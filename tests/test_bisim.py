import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisimlab.bisim import (
    aux_disagreement,
    aux_labels,
    apply_F,
    distinguishing_oracle,
    empirical_lfp,
    is_fixed_point,
    least_fixed_point,
    partition_refine,
    partition_to_relation,
    quotient,
)
from bisimlab.dataset import TransitionDataset
from bisimlab.mdp import DeterministicMDP, counting_abstract_mdp, random_mdp
from bisimlab.relation import PairRelation, Partition


def chain_mdp():
    """o0 -> o1 -> o2 -> o2 under the single action; p = (0, 0, 1)."""
    return DeterministicMDP(
        num_observations=3,
        num_actions=1,
        transition=np.array([[1], [2], [2]]),
        aux=np.array([[0.0], [0.0], [1.0]]),
        reward=np.array([0.0, 0.0, 1.0]),
        initial_dist=np.array([1 / 3, 1 / 3, 1 / 3]),
    )


def constant_aux_mdp(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return DeterministicMDP(
        num_observations=n,
        num_actions=2,
        transition=rng.integers(0, n, size=(n, 2)),
        aux=np.zeros((n, 1)),
        reward=np.zeros(n),
        initial_dist=np.full(n, 1.0 / n),
    )


def brute_force_pairs(mdp, max_len):
    """Oracle: enumerate every action sequence up to max_len explicitly."""
    n, na = mdp.num_observations, mdp.num_actions
    out = set()
    seqs = [[]]
    for _ in range(max_len + 1):
        next_seqs = []
        for seq in seqs:
            state = np.arange(n)
            for a in seq:
                state = mdp.transition[state, a]
            for i in range(n):
                for j in range(n):
                    if not np.array_equal(mdp.aux[state[i]], mdp.aux[state[j]]):
                        out.add((i, j))
            next_seqs.extend(seq + [a] for a in range(na))
        seqs = next_seqs
    return out


def test_apply_F_empty_constant_p():
    m = constant_aux_mdp()
    out = apply_F(m, PairRelation.empty(5))
    assert out.count() == 0


def test_apply_F_clause1_counting():
    # oracle: enumerate all 81 pairs and compare aux directly
    m = counting_abstract_mdp(8, 4)
    expected = {(i, j) for i in range(9) for j in range(9) if (i == 4) != (j == 4)}
    out = apply_F(m, PairRelation.empty(9))
    assert {(i, j) for i in range(9) for j in range(9) if out.bits[i, j]} == expected


def test_apply_F_successor_clause_chain():
    m = chain_mdp()
    r1 = apply_F(m, PairRelation.empty(3))
    seed = PairRelation(r1.bits.copy())
    seed.bits[1, 2] = seed.bits[2, 1] = True
    out = apply_F(m, seed)
    assert (0, 1) in out and (1, 0) in out  # (f(0), f(1)) = (1, 2) is in R


def test_apply_F_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_F(chain_mdp(), PairRelation.empty(4))
    with pytest.raises(ValueError):
        is_fixed_point(chain_mdp(), Partition(block_of=np.zeros(4), num_blocks=1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.35)), st.sampled_from(("refined", "moved", "arbitrary")))
def test_is_fixed_point_matches_apply_F(seed, tol, kind):
    """The signature check is the boolean F(R) == R for R = pairs in different
    blocks, on stable partitions and on any others."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    mdp = random_mdp(n, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng)
    if rng.random() < 0.5:
        mdp = dataclasses.replace(mdp, aux=rng.random((n, int(rng.integers(1, 3)))) * 3.0)
    block_of = partition_refine(mdp, tol).block_of
    if kind == "moved":  # one observation put in another block, or a new one
        block_of[rng.integers(n)] = rng.integers(n + 1)
    elif kind == "arbitrary":  # labels need not run 0..k-1
        block_of = rng.integers(0, int(rng.integers(1, n + 1)), n) * 3 + 5
    part = Partition(block_of=block_of, num_blocks=len(np.unique(block_of)))
    rel = partition_to_relation(part)
    assert is_fixed_point(mdp, part, tol) == (apply_F(mdp, rel, tol) == rel)
    if kind == "refined":
        assert is_fixed_point(mdp, part, tol)


def test_lfp_counting_is_cross_count():
    m = counting_abstract_mdp(8, 4)
    r_star, _, trace = least_fixed_point(m)
    assert r_star.count() == 9 * 9 - 9  # every cross-count (= cross-state) pair
    assert trace[-1] == 0
    part = quotient(r_star, m)
    assert part.num_blocks == 9
    assert part.block_of.tolist() == list(range(9))


def test_lfp_constant_p_empty():
    m = constant_aux_mdp()
    r_star, iterations, _ = least_fixed_point(m)
    assert r_star.count() == 0
    assert iterations == 1
    assert quotient(r_star, m).num_blocks == 1


def test_lfp_chain_all_pairs():
    m = chain_mdp()
    r_star, _, _ = least_fixed_point(m)
    expected = brute_force_pairs(m, 3)
    assert {(i, j) for i in range(3) for j in range(3) if r_star.bits[i, j]} == expected
    assert r_star.count() == 6
    assert quotient(r_star, m).num_blocks == 3


def test_lfp_fixed_point_and_invariants():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = random_mdp(int(rng.integers(2, 30)), int(rng.integers(1, 4)), 2, rng)
        r_star, iterations, trace = least_fixed_point(m)
        assert apply_F(m, r_star) == r_star
        assert r_star.is_symmetric()
        assert r_star.is_irreflexive()
        assert iterations <= m.num_observations**2
        # ascending chain: every sweep only adds pairs
        assert all(f >= 0 for f in trace)


def test_F_monotone_on_random_relations():
    m = random_mdp(12, 3, 2, np.random.default_rng(5))
    rng = np.random.default_rng(99)
    for _ in range(25):
        small = rng.random((12, 12)) < 0.2
        extra = rng.random((12, 12)) < 0.2
        r_small = PairRelation(small)
        r_big = PairRelation(small | extra)
        assert apply_F(m, r_small) <= apply_F(m, r_big)


def test_quotient_rejects_non_fixed_point():
    m = counting_abstract_mdp(8, 4)
    with pytest.raises(ValueError, match="not a fixed point"):
        quotient(PairRelation.empty(9), m)


def test_quotient_rejects_non_transitive_complement():
    # identity transitions and constant aux make every relation a fixed point
    m = DeterministicMDP(
        num_observations=3,
        num_actions=1,
        transition=np.array([[0], [1], [2]]),
        aux=np.zeros((3, 1)),
        reward=np.zeros(3),
        initial_dist=np.full(3, 1 / 3),
    )
    rel = PairRelation.from_pairs(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="non-transitive complement"):
        quotient(rel, m)


def test_partition_refine_counting():
    assert partition_refine(counting_abstract_mdp(8, 4)).num_blocks == 9


def test_partition_refine_constant_p():
    assert partition_refine(constant_aux_mdp()).num_blocks == 1


def test_partition_refine_matches_naive_on_random_mdps():
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        m = random_mdp(int(rng.integers(2, 51)), int(rng.integers(1, 5)), int(rng.integers(1, 4)), rng)
        r_star, _, _ = least_fixed_point(m)
        naive = quotient(r_star, m)
        fast = partition_refine(m)
        assert np.array_equal(naive.block_of, fast.block_of)


def test_partition_refine_canonical_numbering():
    part = partition_refine(counting_abstract_mdp(8, 4))
    # blocks numbered by smallest contained observation id
    assert part.block_of.tolist() == sorted(part.block_of.tolist())


def test_oracle_depth0_is_clause1():
    m = counting_abstract_mdp(8, 4)
    d0 = distinguishing_oracle(m, 0)
    assert d0 == apply_F(m, PairRelation.empty(9))
    assert d0.count() == 16  # 2 * 8 ordered pairs against state 4


def test_oracle_counting_depth8():
    m = counting_abstract_mdp(8, 4)
    r_star, _, _ = least_fixed_point(m)
    assert distinguishing_oracle(m, 8) == r_star


def test_oracle_matches_brute_force_enumeration():
    m = chain_mdp()
    for depth in range(4):
        got = distinguishing_oracle(m, depth)
        expected = brute_force_pairs(m, depth)
        assert {(i, j) for i in range(3) for j in range(3) if got.bits[i, j]} == expected


def test_oracle_triangle_random_sample():
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        m = random_mdp(int(rng.integers(2, 40)), int(rng.integers(1, 5)), 2, rng)
        r_star, _, _ = least_fixed_point(m)
        assert distinguishing_oracle(m, m.num_observations**2) == r_star
        assert partition_to_relation(partition_refine(m)) == r_star


def test_aux_labels_exact_matches_unique_rows():
    aux = np.array([[2.0, 1.0], [0.0, -0.0], [2.0, 1.0], [-0.0, 0.0], [1.0, 1.0]])
    _, expected = np.unique(aux, axis=0, return_inverse=True)
    assert aux_labels(aux).tolist() == expected.reshape(-1).tolist()
    assert aux_labels(aux).tolist() == [2, 0, 2, 0, 1]


def test_aux_labels_tolerance_is_transitive_and_order_free():
    # 0 ~ 0.5 ~ 1.0 within 0.5, though |0 - 1.0| > 0.5; 3.0 stays apart
    aux = np.array([[1.0], [3.0], [0.0], [0.5]])
    labels = aux_labels(aux, 0.5)
    assert labels[0] == labels[2] == labels[3] != labels[1]
    order = np.array([2, 0, 3, 1])
    permuted = aux_labels(aux[order], 0.5)
    assert np.array_equal(permuted[:, None] == permuted[None, :], (labels[:, None] == labels[None, :])[np.ix_(order, order)])
    assert aux_disagreement(aux, 0.5).tolist() == (labels[:, None] != labels[None, :]).tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 1.0))
def test_oracle_triangle_with_aux_tol(seed, tol):
    """All engines share one aux grouping: with tol > 0 the naive fixed
    point has a quotient, and refinement, the BFS oracle and F_D on full
    coverage agree with it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    mdp = random_mdp(n, int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
    if rng.random() < 0.5:
        mdp = dataclasses.replace(mdp, aux=rng.random((n, int(rng.integers(1, 4)))) * 3.0)
    r_star, _, _ = least_fixed_point(mdp, tol)
    part = quotient(r_star, mdp, tol)
    refined = partition_refine(mdp, tol)
    assert np.array_equal(part.block_of, refined.block_of)
    assert partition_to_relation(refined) == r_star
    assert distinguishing_oracle(mdp, n * n, tol) == r_star
    sources = np.repeat(np.arange(n), mdp.num_actions)
    actions = np.tile(np.arange(mdp.num_actions), n)
    ds = TransitionDataset(num_observations=n, num_actions=mdp.num_actions, sources=sources, actions=actions,
                           successors=mdp.transition[sources, actions], aux=mdp.aux[sources])
    r_star_d, index = empirical_lfp(ds, tol)
    assert index.obs_ids.tolist() == list(range(n))
    assert r_star_d == r_star
