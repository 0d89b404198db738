"""Acceptance gate: the nine headline guarantees, one printed verdict line each.

These tests intentionally re-derive everything from public entry points (CLI
and library API) rather than reusing unit-test internals. Budgets are wall
clock on a single laptop-class core.
"""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest

from bisimlab import bisim
from bisimlab.analysis import (
    EmbeddingSet,
    collapse_ratio,
    median_pairwise_distance,
    nearest_centroid_accuracy,
    pairwise_distances,
    verify_no_collapse,
)
from bisimlab.cli import main as cli_main
from bisimlab.dataset import TransitionDataset
from bisimlab.fixtures import perfect_fit_params, one_hot_observations
from bisimlab.mdp import counting_abstract_mdp, random_mdp
from bisimlab.nn import Batch, encode, init_params, loss_and_grads, ModelConfig
from bisimlab.presets import preset_data, preset_train_config
from bisimlab.train import tabular_train_data, train


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def counting():
    mdp = counting_abstract_mdp(8, 4)
    r_star, _, _ = bisim.least_fixed_point(mdp)
    return mdp, r_star


@pytest.fixture(scope="module")
def image_runs():
    """Train the four image presets once; criteria 7 and 8 share the result."""
    t0 = time.time()
    results = {}
    for name in ("dyn_only", "reward_aux", "reward_only", "random_aux"):
        data = preset_data(name, seed=0)
        config = preset_train_config(name, seed=0)
        result = train(config, data)
        rng = np.random.default_rng(0)
        idx = rng.choice(len(data), size=256, replace=False)
        obs = data.obs[idx]
        labels = data.labels[idx]
        vectors = encode(result.best_params, obs)
        results[name] = (vectors, labels)
    return results, time.time() - t0


def test_criterion_1_exact_nine_class_quotient(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "bisim"
    code = cli_main(["bisim", "--counting", "8", "4", "--out-dir", str(out)])
    elapsed = time.time() - t0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    lines = (out / "partition.csv").read_text().splitlines()[1:]
    blocks = [int(line.split(",")[1]) for line in lines]
    singletons = len(set(blocks)) == 9 and len(blocks) == 9
    ok = (
        code == 0
        and summary["num_blocks"] == 9
        and summary["fixed_point_verified"] is True
        and singletons
        and elapsed < 1.0
    )
    verdict(capsys, 1, ok, f"9 singleton blocks, fixed point verified, {elapsed:.2f}s")


def test_criterion_2_oracle_triangle(capsys):
    t0 = time.time()
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        na = int(rng.integers(1, 5))
        mdp = random_mdp(n, na, int(rng.integers(1, 4)), rng)
        rel, _, _ = bisim.least_fixed_point(mdp)
        part = bisim.partition_refine(mdp)
        rel_oracle = bisim.distinguishing_oracle(mdp, max_depth=n * n)
        assert rel == bisim.partition_to_relation(part)
        assert rel == rel_oracle
    elapsed = time.time() - t0
    verdict(capsys, 2, elapsed < 60.0, f"3 engines agree on 200 random MDPs, {elapsed:.1f}s")


def _dataset_from_mask(mdp, mask):
    sources, actions = np.nonzero(mask)
    return TransitionDataset(
        num_observations=mdp.num_observations,
        num_actions=mdp.num_actions,
        sources=sources,
        actions=actions,
        successors=mdp.transition[sources, actions],
        aux=mdp.aux[sources],
    )


def test_criterion_3_empirical_soundness_monotonicity(capsys):
    t0 = time.time()
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        na = int(rng.integers(1, 4))
        mdp = random_mdp(n, na, int(rng.integers(1, 4)), rng)
        full = np.ones((n, na), dtype=bool)
        m2 = full & (rng.random((n, na)) < 0.7)
        m1 = m2 & (rng.random((n, na)) < 0.7)
        r_exact, _, _ = bisim.least_fixed_point(mdp)

        rels = {}
        for key, mask in (("d1", m1), ("d2", m2), ("full", full)):
            if not mask.any():
                rels[key] = None
                continue
            rel, _, index = bisim.empirical_lfp(_dataset_from_mask(mdp, mask))
            rels[key] = (rel, index)

        # R*_D1 subset of R*_D2 subset of R* restricted to observed sources
        def as_global(entry):
            rel, index = entry
            pairs = set()
            for i, j in rel.pairs():
                pairs.add((int(index.obs_ids[i]), int(index.obs_ids[j])))
            return pairs

        full_pairs = as_global(rels["full"])
        exact_pairs = {(i, j) for i, j in r_exact.pairs()}
        assert full_pairs == exact_pairs
        if rels["d2"] is not None:
            d2 = as_global(rels["d2"])
            assert d2 <= exact_pairs
            if rels["d1"] is not None:
                assert as_global(rels["d1"]) <= d2
    elapsed = time.time() - t0
    verdict(capsys, 3, elapsed < 60.0,
            f"50 MDPs: nested datasets monotone, full coverage exact, {elapsed:.1f}s")


def test_criterion_4_gradient_correctness(capsys):
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        config = ModelConfig(
            obs_kind="onehot", obs_shape=(5,), num_actions=2, latent_dim=8,
            aux_dim=1, encoder_hidden=(6,), dynamics_hidden=6, aux_hidden=6,
            decoder_hidden=(6,),
        )
        params = init_params(config, rng)
        for _, p in params.named_parameters():
            # zero biases can land ReLU inputs exactly on the kink, where the
            # subgradient and the central difference legitimately disagree
            p.data += rng.normal(scale=0.05, size=p.data.shape)
        batch = Batch(
            obs=rng.random((4, 5)),
            actions=rng.integers(0, 2, size=4),
            next_obs=rng.random((4, 5)),
            aux_targets=rng.random((4, 1)),
        )

        def objective():
            report, _ = loss_and_grads(params, batch, c_p=0.7, dyn_loss_enabled=True,
                                       aux_enabled=True, decoder_enabled=False, step=1)
            return report.total

        _, grads = loss_and_grads(params, batch, c_p=0.7, dyn_loss_enabled=True,
                                  aux_enabled=True, decoder_enabled=False, step=1)
        grads = {name: g.copy() for name, g in grads.items()}
        h = 1e-6
        for name, p in params.named_parameters():
            if name.startswith("decoder"):
                continue
            flat = p.data.reshape(-1)
            g = grads[name].reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                plus = objective()
                flat[k] = orig - h
                minus = objective()
                flat[k] = orig
                fd = (plus - minus) / (2 * h)
                # the floor keeps central-difference noise on zero-gradient
                # parameters from registering as relative error
                denom = max(abs(fd), abs(g[k]), 1e-4)
                worst = max(worst, abs(fd - g[k]) / denom)
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    verdict(capsys, 4, ok, f"max relative gradient error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_perfect_fit_theorem(counting, capsys):
    t0 = time.time()
    mdp, r_star = counting
    params = perfect_fit_params(mdp)
    vectors = encode(params, one_hot_observations(mdp))
    embs = EmbeddingSet(vectors=vectors, labels=np.arange(mdp.num_observations))
    report = verify_no_collapse(embs, bisim.quotient(r_star, mdp), eps_collapse=1e-9)
    elapsed = time.time() - t0
    ok = report.verdict == "pass" and len(report.violations) == 0 and elapsed < 1.0
    verdict(capsys, 5, ok,
            f"zero-loss witness: {report.pairs_checked} pairs, 0 violations, {elapsed:.2f}s")


def test_criterion_6_trained_no_collapse(counting, capsys):
    t0 = time.time()
    mdp, r_star = counting
    config = preset_train_config("tabular_counting", seed=0)
    assert config.c_p == 1.0 and config.latent_dim == 32 and config.steps <= 50_000
    result = train(config, tabular_train_data(mdp))
    final = result.metrics[-1]  # the premise is the last step's losses, so the conclusion reads the last parameters
    vectors = encode(result.params, one_hot_observations(mdp))
    embs = EmbeddingSet(vectors=vectors, labels=np.arange(9))
    eps = 1e-3 * median_pairwise_distance(vectors)
    report = verify_no_collapse(embs, bisim.quotient(r_star, mdp), eps)
    acc = nearest_centroid_accuracy(vectors, np.arange(9))
    elapsed = time.time() - t0
    ok = (
        final["dyn_loss"] < 1e-4
        and final["aux_loss"] < 1e-4
        and report.verdict == "pass"
        and acc >= 0.95
        and elapsed < 600.0
    )
    verdict(capsys, 6,
            ok,
            f"dyn {final['dyn_loss']:.1e}, aux {final['aux_loss']:.1e}, "
            f"no-collapse {report.verdict}, centroid acc {acc:.2f}, {elapsed:.0f}s")


def test_criterion_7_ablation_ordering(image_runs, capsys):
    results, elapsed = image_runs
    ratios = {name: collapse_ratio(v, l) for name, (v, l) in results.items()}
    accs = {name: nearest_centroid_accuracy(v, l) for name, (v, l) in results.items()}
    ok = (
        ratios["dyn_only"] >= 0.9
        and ratios["reward_aux"] <= 0.5
        and accs["reward_aux"] >= 0.8
        and accs["dyn_only"] < accs["reward_only"] < accs["reward_aux"]
        and elapsed < 1800.0
    )
    verdict(capsys, 7, ok,
            f"collapse ratio dyn-only {ratios['dyn_only']:.2f}, reward-aux "
            f"{ratios['reward_aux']:.2f}; centroid acc dyn-only {accs['dyn_only']:.2f} "
            f"< reward-only {accs['reward_only']:.2f} < reward-aux "
            f"{accs['reward_aux']:.2f}, {elapsed:.0f}s")


def test_criterion_8_random_aux_separation(image_runs, capsys):
    results, _ = image_runs
    vectors, labels = results["random_aux"]
    dm = pairwise_distances(EmbeddingSet(vectors=vectors, labels=labels))
    same = dm.labels[:, None] == dm.labels[None, :]
    iu = np.triu_indices(len(labels), k=1)
    within = np.median(dm.matrix[iu][same[iu]])
    cross = np.median(dm.matrix[iu][~same[iu]])
    ratio = within / cross if cross > 0 else np.inf
    verdict(capsys, 8, ratio >= 0.5,
            f"median within-count / cross-count distance {ratio:.2f}")


def test_criterion_9_reproducibility(tmp_path, capsys):
    def digest_dir(path):
        return {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())
            if f.name != "manifest.json"
        }

    runs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        cli_main(["bisim", "--counting", "8", "4", "--out-dir", str(root / "bisim")])
        cli_main(["collect", "--steps", "120", "--seed", "7",
                  "--out-dir", str(root / "data")])
        cli_main(["empirical-bisim", "--dataset", str(root / "data" / "dataset.bslb"),
                  "--out-dir", str(root / "emp")])
        cli_main(["train", "--preset", "tabular_counting", "--steps", "300",
                  "--out-dir", str(root / "train")])
        runs.append({
            name: digest_dir(root / name) for name in ("bisim", "data", "emp", "train")
        })
    capsys.readouterr()
    ok = runs[0] == runs[1]
    verdict(capsys, 9, ok, "relation/partition/dataset/checkpoint/metrics byte-identical")
