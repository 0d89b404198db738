"""Benchmark of the bisimlab CLI: three workloads, end to end or traced.

    python3 bench/run.py --workload image-pipeline --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from src/.
With --trace 0 every CLI command of a round runs as its own child process,
one at a time, and the end-to-end metrics are reported. Their times are in
reference seconds: wall seconds scaled by how fast a fixed calibration task
ran in the same run (see calibrate), so that the host's changing speed does
not read as a change of the program. With --trace 1 the
same commands run in this process through bisimlab.cli.main, alternating
untraced and traced rounds, and the per-layer metrics are reported. Whole
rounds repeat while the next one fits in --seconds. Each command's output is
checked by checks.py; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy loads, which the imports below trigger; children inherit them
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BISIMLAB_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracing
import workloads

REFERENCE_CALIBRATION_S = 0.15  # calibrate() on a reference-speed core; a reference second is a wall second there
CALIBRATION_SHARE = 0.15  # after each command, calibrate() for this share of its wall time, once at least

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def settle(self, op: workloads.Op, code: int) -> None:
        """Count one operation: the command ran, and its output passes its check."""
        self.attempted += 1
        if code not in op.codes:
            self.failed += 1
            print(f"operation {op.name} failed: exit code {code}", file=sys.stderr)
            return
        try:
            op.check(op.out, code)
        except Exception as exc:  # a malformed artifact fails its parser the same way
            self.failed += 1
            self.correct = False
            print(f"operation {op.name}: wrong output: {exc!r}", file=sys.stderr)


@dataclass
class Round:
    wall_s: dict[str, float] = field(default_factory=dict)  # per command
    peak_rss_mb: float = 0.0
    output_mb: float = 0.0


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn(args: list[str], log: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and max RSS (MB) of one child interpreter."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    return spawn(["-m", "bisimlab.cli", *argv], log)


def run_in_process(argv: list[str], log: Path) -> tuple[int, float, float]:
    from bisimlab import cli

    with open(log, "w") as fh, contextlib.redirect_stdout(fh):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return code, wall, 0.0


def calibrate() -> float:
    """Wall seconds of a fixed task in this process: interpreter-bound dict
    updates, then memory-bound numpy sorts, like the CLI's own mix.

    On a shared host the speed of a core wanders by up to half over minutes.
    Run between the commands, this task slows with them, and dividing by its
    mean over the run takes most of that drift out of the reported times.
    It imports nothing from bisimlab, so no change to the program moves it.
    """
    import numpy as np

    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(400_000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    a = np.arange(400_000, dtype=np.float64)
    for _ in range(14):
        a = np.sort(a[::-1] * 1.0001)
    return time.perf_counter() - start


def run_round(ops: list[workloads.Op], execute, logs: Path, tally: Tally,
              calibrations: list[float] | None = None) -> Round:
    """One round; with `calibrations`, calibrate() samples the core right after
    each command, for a time in proportion to the command's."""
    result = Round()
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)
        code, wall, rss = execute(op.argv, logs / f"{op.name}.log")
        if calibrations is not None:
            spent = 0.0
            while not spent or spent < CALIBRATION_SHARE * wall:
                calibrations.append(calibrate())
                spent += calibrations[-1]
        result.wall_s[op.name] = wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        tally.settle(op, code)
    result.output_mb = sum(p.stat().st_size for op in ops if op.out.exists()
                           for p in op.out.rglob("*") if p.is_file()) / 1e6
    return result


def repeat(seconds: float, one_round) -> list:
    """Whole rounds while the next one, at the mean pace so far, ends within `seconds`."""
    results, start = [], time.perf_counter()
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def cold_start(logs: Path) -> None:
    code, _, _ = run_child(["--help"], logs / "cold-start.log")
    if code != 0:
        raise RuntimeError(f"the CLI does not start (exit code {code}); see {logs / 'cold-start.log'}")


def import_seconds(logs: Path) -> float:
    """Import time of bisimlab.cli, numpy included, in a fresh interpreter."""
    log = logs / "importtime.log"
    code, _, _ = spawn(["-X", "importtime", "-c", "import bisimlab.cli"], log)
    for line in log.read_text().splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "bisimlab.cli":
            return int(line.split("|")[1]) / 1e6
    raise RuntimeError(f"no import time for bisimlab.cli (exit code {code})")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
    }


def run(workload: str, seed: int, seconds: float, traced: bool, sizes: workloads.Sizes = workloads.FULL,
        work: Path | None = None, keep: bool = False) -> tuple[dict, dict]:
    """One benchmark run. Returns (result line, record with per-command times)."""
    work = work or ROOT / "bench" / "work" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out, logs = work / "inputs", work / "out", work / "logs"
    logs.mkdir(parents=True)
    ops = workloads.plan(workload, seed, sizes, inputs, out)
    tally = Tally()
    record = {"workload": workload, "seed": seed, "trace": int(traced), "environment": environment()}

    if not traced:
        setup, calibrations = [], []

        def one_round() -> Round:
            # one set-up before each round, so that the set-ups see the same host as the rounds
            calibrations.append(calibrate())
            shutil.rmtree(inputs, ignore_errors=True)
            start = time.perf_counter()
            workloads.write_inputs(workload, seed, sizes, inputs)
            cold_start(logs)
            setup.append(time.perf_counter() - start)
            return run_round(ops, run_child, logs, tally, calibrations)

        rounds = repeat(seconds, one_round)
        # means, not medians: a core switches between a fast and a slow state, and
        # the mean of either series weighs those states by the time spent in them
        speed = REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)
        wall = {"setup_s": statistics.median(setup),
                "pipeline_s": statistics.fmean(sum(r.wall_s.values()) for r in rounds)}
        metrics = {
            "setup_s": wall["setup_s"] * speed,
            "pipeline_s": wall["pipeline_s"] * speed,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
            "output_mb": statistics.median(r.output_mb for r in rounds),
        }
        units = END_TO_END
        record["wall_s"] = wall
        record["calibration_s"] = calibrations
        record["speed"] = speed
        record["command_s"] = [r.wall_s for r in rounds]
    else:
        workloads.write_inputs(workload, seed, sizes, inputs)
        startup = statistics.median(import_seconds(logs) for _ in range(3))
        origin = time.perf_counter()

        def pair() -> tuple[float, float, tracing.Tracer]:
            plain = sum(run_round(ops, run_in_process, logs, tally).wall_s.values())
            with tracing.installed(tracing.Tracer()) as tracer:
                with_spans = sum(run_round(ops, run_in_process, logs, tally).wall_s.values())
            return plain, with_spans, tracer

        plain, traced_rounds, tracers = zip(*repeat(seconds, pair))
        overhead = statistics.median(traced_rounds) - statistics.median(plain)
        metrics = tracing.layer_metrics(tracers, startup, overhead)
        units = tracing.PER_LAYER
        (work / "spans.json").write_text(json.dumps(tracing.spans_record(tracers, origin)))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    (work / "result.json").write_text(json.dumps(record, indent=1))
    if not keep:
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bisimlab" / "cli.py").is_file():
        print(f"error: no bisimlab sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # one core for the benchmark and its children, so that calibrate() times the core the commands ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(record["environment"]))
    if not args.trace:
        for name in record["command_s"][0]:
            times = [r[name] for r in record["command_s"]]
            print(f"command {name}: {statistics.median(times):.3f} wall s (median of {len(times)} rounds)")
        calibrations = record["calibration_s"]
        print(f"calibration: {statistics.fmean(calibrations):.4f} s (mean of {len(calibrations)}), so one wall s"
              f" is {record['speed']:.4f} reference s; unscaled setup_s {record['wall_s']['setup_s']:.4f},"
              f" pipeline_s {record['wall_s']['pipeline_s']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
