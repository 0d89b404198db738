import numpy as np
import pytest

from bisimlab.bisim import (
    build_co_observed_index,
    empirical_apply_F,
    empirical_lfp,
    least_fixed_point,
)
from bisimlab.dataset import TransitionDataset
from bisimlab.mdp import counting_abstract_mdp, random_mdp
from bisimlab.relation import PairRelation


def full_coverage_dataset(mdp):
    sources = np.repeat(np.arange(mdp.num_observations), mdp.num_actions)
    actions = np.tile(np.arange(mdp.num_actions), mdp.num_observations)
    return TransitionDataset(
        num_observations=mdp.num_observations,
        num_actions=mdp.num_actions,
        sources=sources,
        actions=actions,
        successors=mdp.transition[sources, actions],
        aux=mdp.aux[sources],
    )


def subsample(ds, keep, seed):
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(ds), size=keep, replace=False))
    return TransitionDataset(
        num_observations=ds.num_observations,
        num_actions=ds.num_actions,
        sources=ds.sources[idx],
        actions=ds.actions[idx],
        successors=ds.successors[idx],
        aux=ds.aux[idx],
    ), idx


def test_clause1_p_disagreement():
    ds = TransitionDataset(4, 1, [0, 1], [0, 0], [2, 3], [[1.0], [0.0]])
    index = build_co_observed_index(ds)
    out = empirical_apply_F(index, PairRelation.empty(2))
    assert out.bits[0, 1] and out.bits[1, 0]


def test_no_shared_action_contributes_nothing():
    # x and y observed under different actions only; same aux
    ds = TransitionDataset(4, 2, [0, 1], [0, 1], [2, 3], [[0.0], [0.0]])
    index = build_co_observed_index(ds)
    seeded = PairRelation.empty(2)
    seeded.bits[:] = True  # even a full relation cannot fire the successor clause
    np.fill_diagonal(seeded.bits, False)
    assert empirical_apply_F(index, seeded).count() == 0


def test_full_coverage_agrees_with_exact():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = random_mdp(int(rng.integers(2, 25)), int(rng.integers(1, 4)), 2, rng)
        ds = full_coverage_dataset(m)
        r_d, index = empirical_lfp(ds)
        r_star, _, _ = least_fixed_point(m)
        assert np.array_equal(index.obs_ids, np.arange(m.num_observations))
        assert r_d == r_star


def test_single_record_empty_relation():
    ds = TransitionDataset(3, 1, [0], [0], [1], [[1.0]])
    r_d, index = empirical_lfp(ds)
    assert index.num_sources == 1
    assert r_d.count() == 0


def test_determinism_violation_rejected():
    ds = TransitionDataset(3, 1, [0, 0], [0, 0], [1, 2], [[0.0], [0.0]])
    with pytest.raises(ValueError, match="determinism"):
        empirical_lfp(ds)


def test_aux_inconsistency_rejected():
    ds = TransitionDataset(3, 2, [0, 0], [0, 1], [1, 2], [[0.0], [1.0]])
    with pytest.raises(ValueError, match="aux"):
        empirical_lfp(ds)


def _restrict_exact_to_sources(r_star, obs_ids):
    return PairRelation(r_star.bits[np.ix_(obs_ids, obs_ids)])


def test_monotonicity_and_soundness_nested_datasets():
    # adding data never shrinks the empirical relation, and it never exceeds
    # the exact relation restricted to observed sources
    for seed in range(15):
        rng = np.random.default_rng(3000 + seed)
        m = random_mdp(int(rng.integers(3, 20)), int(rng.integers(1, 4)), 2, rng)
        full = full_coverage_dataset(m)
        d2, idx2 = subsample(full, max(2, len(full) * 2 // 3), seed)
        keep1 = max(1, len(d2) // 2)
        d1 = TransitionDataset(
            num_observations=d2.num_observations,
            num_actions=d2.num_actions,
            sources=d2.sources[:keep1],
            actions=d2.actions[:keep1],
            successors=d2.successors[:keep1],
            aux=d2.aux[:keep1],
        )
        r1, i1 = empirical_lfp(d1)
        r2, i2 = empirical_lfp(d2)
        r_star, _, _ = least_fixed_point(m)
        pairs1 = {(int(i1.obs_ids[i]), int(i1.obs_ids[j])) for i, j in zip(*np.nonzero(r1.bits))}
        pairs2 = {(int(i2.obs_ids[i]), int(i2.obs_ids[j])) for i, j in zip(*np.nonzero(r2.bits))}
        assert pairs1 <= pairs2
        assert all(r_star.bits[i, j] for i, j in pairs2)


def test_empirical_b_star_may_be_non_transitive():
    # 0 and 1 proven apart through their successors under the shared action;
    # 2 shares no action with either, so it stays "bisimilar" to both
    ds = TransitionDataset(
        5,
        2,
        sources=[0, 1, 3, 2],
        actions=[0, 0, 0, 1],
        successors=[3, 1, 3, 2],
        aux=[[0.0], [0.0], [1.0], [0.0]],
    )
    r_d, index = empirical_lfp(ds)
    # dense indices follow sorted obs ids 0,1,2,3
    assert r_d.bits[0, 1] and not r_d.bits[0, 2] and not r_d.bits[1, 2]
    assert not r_d.complement_is_transitive()
