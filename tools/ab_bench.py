"""End-to-end A/B of two revisions: bench/run.py on two copies of each, paired by seed.

    python3 tools/ab_bench.py --baseline <rev> [--change HEAD] --workload random-mdp --seeds 1 2 3 \\
        [--workload tabular-chain --seeds 4 5] [--seconds 40] [--out BENCH_e2e.json]

Each --seeds list belongs to the --workload before it. The `src/` and
`bench/` trees of each revision are extracted with `git archive` twice, into
sibling directories whose paths have the same length (parent0 and parent1,
change0 and change1), since end-to-end times have been seen to move with the
copy that runs them. For every seed, `bench/run.py --trace 0` runs unchanged
in each of the four copies, one at a time; which copy goes first rotates
from seed to seed, in the order parent0, change0, parent1, change1. The tool
exits 1, naming the run, as soon as a run's result is not `correct: true`
with 0 failed.

For each workload and end-to-end metric the record holds each side's median
and quartiles over its runs, the change/parent ratio of the medians, the
seed-paired wins (seeds where the mean of the change's two copies is lower
than the parent's), and the copy effect: the same figures for parent1
against parent0 and for change1 against change0, whose code is the same.
Every run's metrics and the environment are recorded too.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from baseline import extract, resolve, summary

ROOT = Path(__file__).resolve().parents[1]
COPIES = ("parent0", "change0", "parent1", "change1")  # the first copy of each side, then the second


def bench(copy: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, environment line) of one bench/run.py run in `copy`."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=copy, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": None, "failed": None, "exit_code": done.returncode, "stderr": done.stderr[-2000:]}
    return result, env


def compare(runs: list[dict], metric: str, a: str, b: str) -> dict:
    """The runs whose copy's name starts with `b` against those starting with `a`, on one metric:
    summaries, ratio of medians, and the seeds where b's mean is lower than a's."""
    per_seed = {}
    for run in runs:
        for group in (a, b):
            if run["copy"].startswith(group):
                per_seed.setdefault(run["seed"], {}).setdefault(group, []).append(run["metrics"][metric])
    values = {k: [v for seed in per_seed.values() for v in seed.get(k, [])] for k in (a, b)}
    means = [(statistics.fmean(seed[a]), statistics.fmean(seed[b])) for seed in per_seed.values()]
    sa, sb = summary(values[a]), summary(values[b])
    return {a: sa, b: sb, "ratio": round(sb["median"] / sa["median"], 4),
            "lower": sum(y < x for x, y in means), "pairs": len(means)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="git revision of the parent side, e.g. HEAD~1")
    parser.add_argument("--change", default="HEAD", help="git revision of the change side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", nargs="+", type=int, required=True,
                        help="seeds of the --workload before it")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", default=str(ROOT / "BENCH_e2e.json"))
    args = parser.parse_args()
    if len(args.workload) != len(args.seeds):
        parser.error("give each --workload one --seeds list")
    commits = {"parent": resolve(ROOT, args.baseline), "change": resolve(ROOT, args.change)}
    runs, env = [], {}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        for copy in COPIES:
            extract(ROOT, commits[copy[:-1]], ["src", "bench"], Path(tmp) / copy)
        schedule = [(workload, seed) for workload, seeds in zip(args.workload, args.seeds) for seed in seeds]
        for k, (workload, seed) in enumerate(schedule):
            order = COPIES[k % 4:] + COPIES[:k % 4]
            for copy in order:
                result, env = bench(Path(tmp) / copy, workload, seed, args.seconds)
                name = f"{workload} seed {seed} in copy {copy}"
                print(f"{name}: {json.dumps(result)}", file=sys.stderr)
                if result.get("correct") is not True or result.get("failed") != 0:
                    print(f"error: {name} is not correct with 0 failed", file=sys.stderr)
                    return 1
                runs.append({"workload": workload, "seed": seed, "copy": copy, "first": copy == order[0],
                             "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
    workloads = {}
    for workload in args.workload:
        mine = [run for run in runs if run["workload"] == workload]
        workloads[workload] = {
            metric: {**compare(mine, metric, "parent", "change"),
                     "copy_effect": {side: compare(mine, metric, f"{side}0", f"{side}1") for side in commits}}
            for metric in mine[0]["metrics"]}
    record = {
        "what": "bench/run.py --trace 0 end-to-end metrics, two git-archive copies per side; per side the median and"
                " quartiles over its runs, change/parent ratio of medians, and the seeds where the change's mean of"
                " its two copies is lower than the parent's; copy_effect compares the second copy with the first",
        "command": " ".join(["python3 tools/ab_bench.py", "--baseline", commits["parent"][:7], "--change",
                             commits["change"][:7], *[f"--workload {w} --seeds {' '.join(map(str, s))}"
                                                      for w, s in zip(args.workload, args.seeds)],
                             "--seconds", f"{args.seconds:g}"]),
        "parent": commits["parent"],
        "change": commits["change"],
        "seconds": args.seconds,
        "environment": {**env, "machine": platform.machine()},
        "workloads": workloads,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(workloads, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
