"""The benchmark's workloads: inputs generated from a seed, and the CLI
operations run on them, each paired with its output check.

Sizes are chosen so that one round of any workload takes 4 to 7 s on one
core; the reasons for each size are in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("image-pipeline", "tabular-chain", "random-mdp")


@dataclass(frozen=True)
class Sizes:
    collect_steps: int  # image records; analyze and verify sample every one
    image_train_steps: int
    tabular_train_steps: int
    chain_refine: int  # |O| of the chain given to the refine engine
    chain_naive: int  # |O| of the chain given to the naive engine
    mdp_classes: int  # states of the small random MDP, all pairwise distinguishable
    mdp_copies: int  # observations per state in the lifted MDP
    mdp_actions: int
    mdp_aux_values: int
    records: int  # records of the empirical-bisim dataset


FULL = Sizes(600, 200, 600, 1000, 250, 25, 40, 4, 3, 200_000)
SMALL = Sizes(60, 20, 60, 40, 20, 6, 10, 3, 3, 2_000)

# logging every 10 steps gives the train check early and late losses
TRAIN_CONFIG = {"report_every": 10}


@dataclass
class Op:
    """One operation: a CLI command and the check of what it wrote."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path, int], None]  # (output directory, exit code)
    codes: tuple[int, ...] = (0,)  # exit codes that mean the command ran


def write_inputs(workload: str, seed: int, sizes: Sizes, inputs: Path) -> None:
    """Generate the workload's inputs and write them with the package's writers."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload != "random-mdp":
        (inputs / "train.json").write_text(json.dumps(TRAIN_CONFIG))
        return
    from bisimlab.dataset import TransitionDataset, save_dataset
    from bisimlab.mdp import DeterministicMDP, save_mdp_json

    rng = np.random.default_rng(seed)
    transition, aux = lifted_random_mdp(rng, sizes)
    n, na = transition.shape
    save_mdp_json(DeterministicMDP(n, na, transition, aux.reshape(-1, 1), aux, np.full(n, 1.0 / n)),
                  str(inputs / "mdp.json"))
    # every (source, action) once, the rest uniform, in random order
    picks = rng.permutation(np.concatenate([np.arange(n * na), rng.integers(0, n * na, sizes.records - n * na)]))
    src, act = picks // na, picks % na
    save_dataset(TransitionDataset(n, na, src, act, transition[src, act], aux[src].reshape(-1, 1)),
                 str(inputs / "dataset.bslb"))


def lifted_random_mdp(rng: np.random.Generator, sizes: Sizes) -> tuple[np.ndarray, np.ndarray]:
    """A random MDP whose bisimulation has `mdp_classes` blocks of `mdp_copies`.

    A small random MDP is drawn until all its states are distinguishable. Each
    state becomes `mdp_copies` observations with the state's aux; a transition
    goes to a random copy of the small MDP's successor. Observation ids are
    shuffled, so blocks interleave.
    """
    k, na, copies = sizes.mdp_classes, sizes.mdp_actions, sizes.mdp_copies
    while True:
        small_t = rng.integers(0, k, size=(k, na))
        small_aux = rng.integers(0, sizes.mdp_aux_values, size=k)
        if checks.coarsest_partition(small_t, small_aux).max() + 1 == k:
            break
    levels = rng.standard_normal(sizes.mdp_aux_values)
    state = rng.permutation(np.repeat(np.arange(k), copies))
    copies_of = np.argsort(state, kind="stable").reshape(k, copies)
    transition = copies_of[small_t[state], rng.integers(0, copies, size=(k * copies, na))]
    return transition, levels[small_aux[state]]


def chain_target(seed: int, n: int) -> int:
    """The counting target at one end of the chain, which makes refinement
    take |O| rounds; both ends cost the same by symmetry."""
    return 0 if seed % 2 == 0 else n - 1


def plan(workload: str, seed: int, sizes: Sizes, inputs: Path, out: Path) -> list[Op]:
    """The operations of one round, in order; each writes to out/<name>."""
    return {"image-pipeline": _image_pipeline, "tabular-chain": _tabular_chain,
            "random-mdp": _random_mdp}[workload](seed, sizes, inputs, out)


def _image_pipeline(seed: int, sizes: Sizes, inputs: Path, out: Path) -> list[Op]:
    col, tr, an, ve = (out / k for k in ("collect", "train", "analyze", "verify"))
    dataset, ckpt, n = str(col / "dataset.bslb"), str(tr / "checkpoint.pjpa"), sizes.collect_steps
    common = ["--seed", str(seed)]
    sample = ["--dataset", dataset, "--sample-size", str(n)]
    counting_blocks = checks.coarsest_partition(*checks.counting_chain(9, 4))

    def model_and_obs() -> dict:
        echo, tensors = checks.read_pjpa(tr / "checkpoint.pjpa")
        data = _collected(col)
        return {"echo": echo, "tensors": tensors, "obs": data["obs"], "labels": data["sources"]}

    def train_batch() -> dict:
        data = _collected(col)
        idx = np.random.default_rng(seed).choice(len(data["sources"]), size=min(64, n), replace=False)
        return {"obs": data["obs"][idx], "next_obs": data["next_obs"][idx],
                "actions": data["actions"][idx], "aux": data["aux"][idx]}

    return [
        Op("collect", ["collect", "--steps", str(n), "--channels", "1", *common, "--out-dir", str(col)], col,
           lambda o, c: checks.check_collect(o, steps=n, max_count=8, target=4)),
        Op("train", ["--config", str(inputs / "train.json"), "train", "--preset", "reward_aux",
                     "--dataset", dataset, "--steps", str(sizes.image_train_steps), *common, "--out-dir", str(tr)], tr,
           lambda o, c: checks.check_train(o, batch=train_batch(), seed=seed)),
        Op("analyze", ["analyze", "--checkpoint", ckpt, *sample, *common, "--out-dir", str(an)], an,
           lambda o, c: checks.check_analyze(o, **model_and_obs())),
        Op("verify", ["verify", "--checkpoint", ckpt, "--counting", "8", "4", *sample, *common, "--out-dir", str(ve)],
           ve, lambda o, c: checks.check_verify(o, c, **model_and_obs(), block_of=counting_blocks), codes=(0, 3)),
    ]


def _collected(col: Path) -> dict:
    """The collected records, with frames decoded as the 1-channel presets see them."""
    ds = checks.read_bslb(col / "dataset.bslb")
    frames = np.stack([checks.gray_frame(f) for f in checks.read_bsli(col / "frames.bsli")])
    frames = frames[:, None].astype(np.float64) / 255.0
    return {"sources": ds["sources"], "actions": ds["actions"], "aux": ds["aux"],
            "obs": frames[0::2], "next_obs": frames[1::2]}


def _tabular_chain(seed: int, sizes: Sizes, inputs: Path, out: Path) -> list[Op]:
    tr, ve = out / "train", out / "verify"
    common = ["--seed", str(seed)]
    transition, aux = checks.counting_chain(9, 4)
    eye = np.eye(9)
    sources, actions = np.repeat(np.arange(9), 2), np.tile(np.arange(2), 9)
    full_coverage = {"obs": eye[sources], "next_obs": eye[transition[sources, actions]],
                     "actions": actions, "aux": aux[sources].reshape(-1, 1)}

    def model() -> dict:
        echo, tensors = checks.read_pjpa(tr / "checkpoint.pjpa")
        return {"echo": echo, "tensors": tensors, "obs": eye, "labels": np.arange(9)}

    ops = [
        Op("train", ["--config", str(inputs / "train.json"), "train", "--preset", "tabular_counting",
                     "--steps", str(sizes.tabular_train_steps), *common, "--out-dir", str(tr)], tr,
           lambda o, c: checks.check_train(o, batch=full_coverage, seed=seed)),
        Op("verify", ["verify", "--checkpoint", str(tr / "checkpoint.pjpa"), "--counting", "8", "4", *common,
                      "--out-dir", str(ve)], ve,
           lambda o, c: checks.check_verify(o, c, **model(), block_of=checks.coarsest_partition(transition, aux)),
           codes=(0, 3)),
    ]
    for engine, n in (("refine", sizes.chain_refine), ("naive", sizes.chain_naive)):
        target = chain_target(seed, n)
        chain = checks.counting_chain(n, target)
        ops.append(Op(f"bisim-{engine}", ["bisim", "--engine", engine, "--counting", str(n - 1), str(target),
                                          "--out-dir", str(out / f"bisim-{engine}")], out / f"bisim-{engine}",
                      lambda o, c, chain=chain, engine=engine: checks.check_bisim(
                          o, transition=chain[0], aux=chain[1], engine=engine, singletons=True)))
    return ops


def _random_mdp(seed: int, sizes: Sizes, inputs: Path, out: Path) -> list[Op]:
    mdp, dataset = inputs / "mdp.json", inputs / "dataset.bslb"
    return [
        Op("bisim", ["bisim", "--mdp", str(mdp), "--out-dir", str(out / "bisim")], out / "bisim",
           lambda o, c: checks.check_bisim(o, **checks.read_mdp_json(mdp), engine="refine")),
        Op("empirical-bisim", ["empirical-bisim", "--dataset", str(dataset), "--out-dir", str(out / "empirical-bisim")],
           out / "empirical-bisim",
           lambda o, c: checks.check_empirical(o, **checks.read_mdp_json(mdp),
                                               sources=checks.read_bslb(dataset)["sources"])),
    ]
