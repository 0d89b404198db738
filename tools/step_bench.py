"""Time the phases of one training step, for this checkout and a baseline revision.

    python3 tools/step_bench.py --baseline <git revision> [--repeats 11] [--out BENCH_step.json]

For the `tabular_counting` and `reward_aux` models it runs the training loop
of `bisimlab.train.train` (batch gather, `loss_and_grads`, `adam_step`) on
the data `train --preset <model>` trains on, built once with this checkout
and fed to both sides; the `reward_aux` records are collected to disk and
read back as `train --dataset` reads them. It
times, per step, the gather, `joint_loss` (the forward pass, timed inside
`loss_and_grads`), the backward (the rest of `loss_and_grads`) and Adam, and
counts the minor page faults per timed step (`ru_minflt`). It
also times the matrix products alone that one step forms, with the same
shapes: the floor no glue code can go below. The baseline is extracted with
`git archive` into a temporary directory; both packages are loaded into this
one process and their repeats alternate, so drifts in the CPU's speed fall on
both alike. A repeat's value is the median over its steps; the file records
the median and quartiles over the repeats. The process runs single-threaded
(BISIMLAB_THREADS and the BLAS thread variables set to 1) and pinned to one
CPU, the highest-numbered one it may use.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("BISIMLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import numpy as np  # noqa: E402

from baseline import extract, resolve, summary  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MODELS = {"tabular_counting": 400, "reward_aux": 40}  # model -> timed steps per repeat
WARMUP = 5  # untimed steps before each repeat
COLLECT_STEPS = 600  # image records for reward_aux, as the benchmark's image-pipeline collects
SEED = 1
PHASES = ("gather_ms", "joint_loss_ms", "backward_ms", "adam_ms", "step_ms")


def load_package(src: Path) -> dict:
    """The bisimlab modules under `src`, imported apart from any other copy."""
    sys.path.insert(0, str(src))
    try:
        pkg = {name: importlib.import_module(f"bisimlab.{name}")
               for name in ("cli", "counting_env", "nn", "optim", "presets", "train")}
        pkg["joint_loss"] = pkg["nn"].joint_loss  # before a Loop wraps it
        return pkg
    finally:
        sys.path.remove(str(src))
        for key in [k for k in sys.modules if k == "bisimlab" or k.startswith("bisimlab.")]:
            del sys.modules[key]


def train_data(pkg: dict, preset: str):
    """The TrainData `train --preset <preset> --seed SEED` trains on: the tabular
    tables, or the records of a collect read back from its dataset.bslb and
    frames.bsli as `train --dataset` reads them."""
    if preset == "tabular_counting":
        return pkg["presets"].preset_data(preset, SEED)
    cli = pkg["cli"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["collect", "--steps", str(COLLECT_STEPS), "--seed", str(SEED), "--out-dir", tmp])
        if code != 0:
            raise RuntimeError(f"collect exited {code}")
        collected = cli._load_collected(str(Path(tmp) / "dataset.bslb"), pkg["presets"].IMAGE_CHANNELS)
    return pkg["train"].collected_train_data(collected)


class Loop:
    """train()'s step loop for one preset, timing each phase of each step."""

    def __init__(self, pkg: dict, preset: str, data):
        nn, presets, train = pkg["nn"], pkg["presets"], pkg["train"]
        self.nn, self.optim = nn, pkg["optim"]
        self.config = presets.preset_train_config(preset, SEED)
        self.data = data
        self.aux = train.resolve_aux_targets(self.config, self.data)
        c = self.config
        self.model_config = nn.ModelConfig(
            obs_kind=self.data.obs_kind, obs_shape=self.data.obs_shape, num_actions=self.data.num_actions,
            latent_dim=c.latent_dim, aux_dim=self.aux.shape[1], encoder_hidden=c.encoder_hidden,
            dynamics_hidden=c.dynamics_hidden, aux_hidden=c.aux_hidden, decoder_hidden=c.decoder_hidden)
        self.rng = np.random.default_rng(SEED)
        self.params = nn.init_params(self.model_config, self.rng)
        self.state = self.optim.AdamState()
        self.forward_s = 0.0
        joint_loss = pkg["joint_loss"]

        def timed_joint_loss(*args, **kwargs):  # loss_and_grads calls it through the module
            start = time.perf_counter()
            try:
                return joint_loss(*args, **kwargs)
            finally:
                self.forward_s += time.perf_counter() - start

        nn.joint_loss = timed_joint_loss

    def step(self) -> tuple[float, float, float, float]:
        c, data = self.config, self.data
        t0 = time.perf_counter()
        idx = self.rng.integers(0, len(data), size=c.batch_size)
        batch = self.nn.Batch(obs=data.obs[idx], actions=data.actions[idx], next_obs=data.next_obs[idx],
                              aux_targets=self.aux[idx])
        t1 = time.perf_counter()
        self.forward_s = 0.0
        _, grads = self.nn.loss_and_grads(self.params, batch, c_p=c.c_p, dyn_loss_enabled=c.dyn_loss_enabled,
                                          aux_enabled=c.aux_enabled, decoder_enabled=c.decoder_enabled)
        t2 = time.perf_counter()
        self.optim.adam_step(self.params, grads, self.state, base_lr=c.base_lr)
        t3 = time.perf_counter()
        return t1 - t0, self.forward_s, t2 - t1 - self.forward_s, t3 - t2

    def repeat(self, steps: int) -> dict[str, float]:
        for _ in range(WARMUP):
            self.step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        samples = np.array([self.step() for _ in range(steps)]) * 1e3
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        medians = dict(zip(PHASES, np.median(samples, axis=0).tolist()))
        medians["step_ms"] = float(np.median(samples.sum(axis=1)))
        medians["minor_faults_per_step"] = faults / steps
        return medians


def products(pkg: dict, loop: Loop) -> list[tuple[tuple[int, int], tuple[int, int], bool]]:
    """(left shape, right shape, transposed left) of every matrix product one step forms:
    per layer call a forward product and a weight-gradient product, and an
    input-gradient product except into the observations and into the decoder
    probe's detached latents."""
    c, b = loop.config, loop.config.batch_size
    shapes = pkg["nn"].param_shapes(loop.model_config)
    calls = ((["encoder"] * 2 + ["dynamics"]) if c.dyn_loss_enabled else ["encoder"])
    calls += ["aux_head"] * c.aux_enabled + ["decoder_probe"] * c.decoder_enabled
    out = []
    for comp in calls:
        weights = [shape for name, shape in shapes.items() if name.startswith(comp + ".") and name.endswith(".W")]
        for k, (n_in, n_out) in enumerate(weights):
            out += [((b, n_in), (n_in, n_out), False), ((n_in, b), (b, n_out), True)]
            if k > 0 or comp not in ("encoder", "decoder_probe"):
                out.append(((b, n_out), (n_out, n_in), False))
    return out


def matmul_floor(shapes, steps: int, rng: np.random.Generator) -> float:
    """Median time (ms) of one step's matrix products alone, over `steps` runs."""
    operands = [((rng.standard_normal(left[::-1]).T if transposed else rng.standard_normal(left)),
                 rng.standard_normal(right)) for left, right, transposed in shapes]
    times = []
    for _ in range(WARMUP + steps):
        start = time.perf_counter()
        for a, w in operands:
            a @ w
        times.append(time.perf_counter() - start)
    return statistics.median(times[WARMUP:]) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare with, e.g. HEAD~1")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--out", default=str(ROOT / "BENCH_step.json"))
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, not {args.repeats}")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    commit = resolve(ROOT, args.baseline)
    with tempfile.TemporaryDirectory() as tmp:
        extract(ROOT, commit, ["src"], Path(tmp))
        packages = {"parent": load_package(Path(tmp) / "src"), "change": load_package(ROOT / "src")}
    models = {}
    for preset, steps in MODELS.items():
        data = train_data(packages["change"], preset)
        loops = {side: Loop(pkg, preset, data) for side, pkg in packages.items()}
        shapes = products(packages["change"], loops["change"])
        runs = {side: [] for side in loops}
        floor = []
        for r in range(args.repeats):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                runs[side].append(loops[side].repeat(steps))
            floor.append(matmul_floor(shapes, steps, np.random.default_rng(r)))
        models[preset] = {
            "parameters": int(loops["change"].params.flat.size),
            "batch_size": loops["change"].config.batch_size,
            "steps_per_repeat": steps,
            **{side: {key: summary([run[key] for run in runs[side]]) for key in (*PHASES, "minor_faults_per_step")}
               for side in runs},
            "matmul_products": len(shapes),
            "matmul_floor_ms": summary(floor),
        }
    record = {
        "what": "median over repeats of each repeat's median time per training step phase (ms),"
                " and of its minor page faults per timed step",
        "command": f"python3 tools/step_bench.py --baseline {commit[:7]} --repeats {args.repeats}",
        "parent": commit,
        "repeats": args.repeats,
        "environment": {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
                        "cpus": os.cpu_count(), "pinned_cpu": cpu, "threads": 1},
        "models": models,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
