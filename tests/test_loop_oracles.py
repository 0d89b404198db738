"""The library agrees with the loops, the Moore refinement, the `np.ix_`
gathers and the whole-relation F_D sweep it replaced (loop_oracles.py)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_oracles
from bisimlab import bisim
from bisimlab.analysis import DistanceMatrix, EmbeddingSet, verify_no_collapse, write_distance_csv
from bisimlab.bisim import (
    apply_F,
    aux_disagreement,
    build_co_observed_index,
    distinguishing_oracle,
    empirical_apply_F,
    empirical_lfp,
    partition_refine,
    partition_refine_with_rounds,
    partition_to_relation,
)
from bisimlab.dataset import TransitionDataset, load_dataset, save_dataset
from bisimlab.mdp import DeterministicMDP, counting_abstract_mdp
from bisimlab.relation import PairRelation, Partition, write_relation_csv

SETTINGS = settings(max_examples=150, deadline=None)
AUX_VALUES = (0.0, -0.0, 1.0, 2.5, float("nan"))


@st.composite
def datasets(draw, consistent: bool):
    """Small datasets; consistent ones come from one transition and aux table,
    the others draw every column freely (out-of-range ids and NaN aux included)."""
    n = draw(st.integers(1, 6))
    na = draw(st.integers(1, 3))
    dp = draw(st.integers(1, 2))
    m = draw(st.integers(0, 30))
    if consistent:
        table = draw(st.lists(st.integers(0, n - 1), min_size=n * na, max_size=n * na))
        aux_table = draw(st.lists(st.sampled_from(AUX_VALUES[:4]), min_size=n * dp, max_size=n * dp))
        sources = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
        actions = np.array(draw(st.lists(st.integers(0, na - 1), min_size=m, max_size=m)), dtype=np.int64)
        successors = np.array(table).reshape(n, na)[sources, actions]
        aux = np.array(aux_table).reshape(n, dp)[sources]
        # flip signs of zeros: equal under ==, so still consistent
        signs = np.array(draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=m * dp, max_size=m * dp)))
        aux = np.where(aux == 0.0, aux * signs.reshape(m, dp), aux)
    else:
        ids = st.integers(-1, n)
        sources = draw(st.lists(ids, min_size=m, max_size=m))
        actions = draw(st.lists(st.integers(-1, na), min_size=m, max_size=m))
        successors = draw(st.lists(ids, min_size=m, max_size=m))
        aux = np.array(draw(st.lists(st.sampled_from(AUX_VALUES), min_size=m * dp, max_size=m * dp))).reshape(m, dp)
    return TransitionDataset(n, na, sources, actions, successors, aux)


@SETTINGS
@given(datasets(consistent=False))
def test_validate_matches_loop(ds):
    assert ds.validate() == loop_oracles.validate(ds)


@SETTINGS
@given(datasets(consistent=True))
def test_validate_accepts_consistent_data(ds):
    assert ds.validate() == loop_oracles.validate(ds) == []


def _sparse_ids(ds):
    """The same dataset with its observation ids spread far apart, so that ranking them takes a sort."""
    spread = 10**12
    return TransitionDataset(ds.num_observations * spread, ds.num_actions, ds.sources * spread, ds.actions,
                             ds.successors * spread, ds.aux)


@SETTINGS
@given(datasets(consistent=False))
def test_validate_matches_loop_on_sparse_ids(ds):
    ds = _sparse_ids(ds)
    assert ds.validate() == loop_oracles.validate(ds)


def test_validate_error_order():
    ds = TransitionDataset(
        3, 2, sources=[0, 1, 0, 1, 0, 3], actions=[0, 0, 0, 0, 1, 0], successors=[1, 2, 2, 0, 1, 2],
        aux=[[0.0], [1.0], [0.0], [2.0], [float("nan")], [0.0]],
    )
    assert ds.validate() == [
        "source index out of range",
        "determinism violation at (source=0, action=0): 1 vs 2",
        "determinism violation at (source=1, action=0): 2 vs 0",
        "aux inconsistency at source=1",
        "aux inconsistency at source=0",
    ]
    assert ds.validate() == loop_oracles.validate(ds)


def _same_index(got, want):
    for name in ("obs_ids", "aux", "succ_dense"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # bytewise: signs of zeros too


@SETTINGS
@given(datasets(consistent=True))
def test_co_observed_index_matches_loop(ds):
    _same_index(build_co_observed_index(ds), loop_oracles.build_co_observed_index(ds))


@SETTINGS
@given(datasets(consistent=True))
def test_co_observed_index_matches_loop_on_sparse_ids(ds):
    ds = _sparse_ids(ds)
    _same_index(build_co_observed_index(ds), loop_oracles.build_co_observed_index(ds))


def test_co_observed_index_marks_unseen_successors():
    ds = TransitionDataset(6, 2, sources=[4, 1, 4], actions=[1, 0, 0], successors=[5, 4, 0], aux=[[1.0], [0.0], [1.0]])
    index = build_co_observed_index(ds)
    assert index.obs_ids.tolist() == [1, 4]
    assert index.succ_dense.tolist() == [[1, -1], [-1, -1]]


@st.composite
def relations(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return PairRelation(np.array(cells, dtype=bool).reshape(n, n))


@st.composite
def lifted_relations(draw, max_n=40):
    """Relations whose rows repeat: a random k x k relation lifted through
    block labels, with a few cells flipped. Random relations of at most 12
    observations rarely repeat a row."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 4))
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    sub = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))).reshape(k, k)
    bits = sub[labels][:, labels]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        bits[i, j] = not bits[i, j]
    return PairRelation(bits)


@SETTINGS
@given(st.one_of(relations(), lifted_relations()), st.booleans(), st.integers(0, 10**9))
def test_relation_csv_matches_loop(tmp_path_factory, rel, mapped, offset):
    path = tmp_path_factory.mktemp("rel") / "relation.csv"
    ids = np.arange(rel.num_observations, dtype=np.int64) * 7 + offset if mapped else None
    write_relation_csv(rel, str(path), ids)
    assert path.read_bytes() == loop_oracles.relation_csv(rel, ids).encode()


@st.composite
def embeddings(draw, integer: bool):
    n = draw(st.integers(0, 14))
    dim = draw(st.integers(1, 3))
    num_obs = draw(st.integers(1, 6))
    values = st.integers(-3, 3).map(float) if integer else st.floats(-10, 10, allow_nan=False)
    vectors = np.array(draw(st.lists(values, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    ids = draw(st.lists(st.integers(0, num_obs - 1), min_size=n, max_size=n))
    block_of = draw(st.lists(st.integers(0, num_obs - 1), min_size=num_obs, max_size=num_obs))
    part = Partition(block_of=np.array(block_of), num_blocks=max(block_of) + 1)
    embs = EmbeddingSet(vectors=vectors, labels=np.array(ids, dtype=np.int64))
    return embs, part


def _same_report(got, want):
    assert got.pairs_checked == want.pairs_checked
    assert got.verdict == want.verdict
    assert [(i, j) for i, j, _ in got.violations] == [(i, j) for i, j, _ in want.violations]
    np.testing.assert_allclose([d for *_, d in got.violations], [d for *_, d in want.violations], rtol=1e-12)
    np.testing.assert_allclose(got.min_cross_class_distance, want.min_cross_class_distance, rtol=1e-12)
    np.testing.assert_allclose(got.max_within_class_distance, want.max_within_class_distance, rtol=1e-12)


@SETTINGS
@given(embeddings(integer=True), st.sampled_from((0.0, 1.0, 2.0, 2.5, 4.0, 100.0)))
def test_verify_no_collapse_matches_loop_exactly(case, eps):
    # integer coordinates make every squared distance an exact integer,
    # so both sides see bit-identical distances, ties at eps included
    embs, part = case
    got = verify_no_collapse(embs, part, eps)
    want = loop_oracles.verify_no_collapse(embs, partition_to_relation(part), eps)
    assert got.to_json() == want.to_json()
    _same_report(got, want)


@SETTINGS
@given(embeddings(integer=False), st.floats(0.0, 20.0))
def test_verify_no_collapse_matches_loop(case, eps):
    embs, part = case
    want = loop_oracles.verify_no_collapse(embs, partition_to_relation(part), eps)
    # a distance within rounding of eps may land on either side of it
    v = embs.vectors
    dists = np.linalg.norm(v[:, None] - v[None, :], axis=2)[np.triu_indices(len(v), 1)]
    assume(not np.any(np.isclose(dists, eps, rtol=1e-9, atol=0.0)))
    _same_report(verify_no_collapse(embs, part, eps), want)


@SETTINGS
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_distance_csv_matches_loop(tmp_path_factory, rows, cols, data):
    values = st.one_of(st.floats(width=64), st.sampled_from((0.0, -0.0, 1e16, 1e-300, float("inf"))))
    matrix = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    dm = DistanceMatrix(matrix=matrix, labels=np.zeros(rows, dtype=np.int64), order=np.arange(rows))
    path = tmp_path_factory.mktemp("dist") / "distances.csv"
    write_distance_csv(dm, str(path))
    assert path.read_text() == loop_oracles.distance_csv(dm)


@st.composite
def mdps(draw, max_n=60):
    """Deterministic MDPs with up to `max_n` observations and 1-3 actions.

    Half are lifted: every observation is one of a few copies of a small
    MDP's state, with that state's aux (from at most three values) and a
    random copy of its successor, so blocks are large and refinement splits
    them late. Some transitions are replaced by self-loops. Aux is sometimes
    continuous and 1-2 dimensional, for aux tolerances above zero.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    na = draw(st.integers(1, 3))
    if draw(st.booleans()):
        k = draw(st.integers(1, min(n, 8)))
        state = rng.permutation(np.arange(n) % k)
        copies = [np.flatnonzero(state == s) for s in range(k)]
        small_t = rng.integers(0, k, size=(k, na))
        transition = np.array([[rng.choice(copies[t]) for t in small_t[s]] for s in state]).reshape(n, na)
        aux = rng.integers(0, draw(st.integers(1, 3)), size=k)[state].astype(np.float64).reshape(n, 1)
    else:
        transition = rng.integers(0, n, size=(n, na))
        aux = rng.integers(0, draw(st.integers(1, 4)), size=(n, 1)).astype(np.float64)
    loops = rng.random((n, na)) < draw(st.sampled_from((0.0, 0.2, 0.6)))
    transition = np.where(loops, np.arange(n)[:, None], transition)
    if draw(st.booleans()):
        aux = rng.random((n, draw(st.integers(1, 2)))) * 3.0
    return DeterministicMDP(n, na, transition, aux, aux[:, 0].copy(), np.full(n, 1.0 / n))


AUX_TOLS = st.one_of(st.just(0.0), st.floats(0.1, 1.0))


@settings(max_examples=600, deadline=None)
@given(mdps(), AUX_TOLS)
def test_partition_refine_matches_moore(mdp, tol):
    got, rounds = partition_refine_with_rounds(mdp, tol)
    want, want_rounds = loop_oracles.partition_refine_with_rounds(mdp, tol)
    assert got.block_of.tolist() == want.block_of.tolist()
    assert got.num_blocks == want.num_blocks
    assert rounds == want_rounds


@pytest.mark.parametrize("n", [1, 2, 250, 1000])
@pytest.mark.parametrize("end", ["low", "high"])
def test_partition_refine_matches_moore_on_chains(n, end):
    mdp = counting_abstract_mdp(n - 1, 0 if end == "low" else n - 1)
    got, rounds = partition_refine_with_rounds(mdp)
    want, want_rounds = loop_oracles.partition_refine_with_rounds(mdp)
    assert got.block_of.tolist() == want.block_of.tolist()
    assert (got.num_blocks, rounds) == (want.num_blocks, want_rounds)


def test_chain_closed_form_at_20000():
    # Moore's rounds on a chain whose target sits at one end: n singletons after n - 1 rounds
    for n in range(2, 30):
        part, rounds = loop_oracles.partition_refine_with_rounds(counting_abstract_mdp(n - 1, n - 1))
        assert (part.num_blocks, rounds) == (n, n - 1)
    n = 20_000
    for target in (0, n - 1):
        part, rounds = partition_refine_with_rounds(counting_abstract_mdp(n - 1, target))
        assert part.num_blocks == n
        assert np.array_equal(part.block_of, np.arange(n))
        assert rounds == n - 1


def _random_relation(rng, n):
    return PairRelation(rng.random((n, n)) < rng.choice((0.05, 0.3, 0.9)))


@SETTINGS
@given(mdps(max_n=30), AUX_TOLS, st.integers(0, 2**32 - 1))
def test_pair_gathers_match_ix(mdp, tol, seed):
    rng = np.random.default_rng(seed)
    rel = _random_relation(rng, mdp.num_observations)
    assert np.array_equal(apply_F(mdp, rel, tol).bits, loop_oracles.apply_F(mdp, rel, tol).bits)
    depth = int(rng.integers(0, 5))
    assert np.array_equal(distinguishing_oracle(mdp, depth, tol).bits,
                          loop_oracles.distinguishing_oracle(mdp, depth, tol).bits)


@SETTINGS
@given(datasets(consistent=True), AUX_TOLS, st.integers(0, 2**32 - 1))
def test_empirical_gather_matches_ix(ds, tol, seed):
    index = build_co_observed_index(ds)
    rel = _random_relation(np.random.default_rng(seed), index.num_sources)
    assert np.array_equal(empirical_apply_F(index, rel, tol).bits,
                          loop_oracles.empirical_apply_F(index, rel, tol).bits)


def _same_empirical(ds, tol):
    got, want = empirical_lfp(ds, tol), loop_oracles.empirical_lfp(ds, tol)
    assert got[0] == want[0]
    _same_index(got[1], want[1])
    return got


@SETTINGS
@given(datasets(consistent=True), AUX_TOLS)
def test_empirical_lfp_matches_sweep(ds, tol):
    _same_empirical(ds, tol)


@SETTINGS
@given(mdps(max_n=40), AUX_TOLS, st.sampled_from((0.3, 0.7, 1.0)), st.integers(0, 2**32 - 1))
def test_empirical_lfp_matches_sweep_on_lifted_mdps(mdp, tol, coverage, seed):
    # large blocks, missing actions and successors that are never sources
    rng = np.random.default_rng(seed)
    n, na = mdp.num_observations, mdp.num_actions
    picks = np.flatnonzero(rng.random(n * na) < coverage)
    picks = rng.permutation(np.concatenate([picks, rng.choice(picks, size=picks.size)])) if picks.size else picks
    src, act = picks // na, picks % na
    ds = TransitionDataset(n, na, src, act, mdp.transition[src, act], mdp.aux[src])
    _same_empirical(ds, tol)


def test_empirical_lfp_compares_labels_not_representatives():
    # aux 0 and 0.6, and 0.6 and 1.25, are within 0.65: one label for all three.
    # Sources 0 and 1 have action 0 only and source 2 action 1 only, so the
    # blocks are {0, 1} and {2}, and no pair is ever told apart.
    ds = TransitionDataset(3, 2, sources=[0, 1, 2], actions=[0, 0, 1], successors=[0, 1, 2],
                           aux=[[0.0], [0.6], [1.25]])
    r_d, _ = _same_empirical(ds, 0.65)
    assert r_d.count() == 0 and np.count_nonzero(~r_d.bits) == 9
    # the blocks' first members have aux 0 and 1.25, more than 0.65 apart
    trap = aux_disagreement(np.array([[0.0], [1.25]]), 0.65)[[0, 0, 1]][:, [0, 0, 1]]
    assert PairRelation(trap).count() == 4


@pytest.mark.parametrize("records", [0, 1])
def test_empirical_lfp_on_tiny_datasets(records):
    ds = TransitionDataset(3, 2, sources=[1][:records], actions=[1][:records], successors=[2][:records],
                           aux=np.full((records, 1), 0.5))
    r_d, index = _same_empirical(ds, 0.0)
    assert index.num_sources == records
    assert r_d.count() == 0 and np.count_nonzero(~r_d.bits) == records


def test_empirical_lfp_ignores_declared_observation_count(tmp_path):
    # nothing is sized by the header's |O|, and ids far apart are ranked by one sort
    ds = TransitionDataset(2**32 - 1, 2, sources=[2**32 - 2, 7, 2**31], actions=[0, 1, 0],
                           successors=[7, 2**32 - 2, 5], aux=[[1.0], [0.0], [1.0]])
    path = tmp_path / "dataset.bslb"
    save_dataset(ds, str(path))
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        r_d, index = empirical_lfp(load_dataset(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a table over the declared 2**32 ids would take gigabytes
    assert index.obs_ids.tolist() == [7, 2**31, 2**32 - 2]
    assert r_d.pairs() == [(0, 1), (0, 2)]
    _same_empirical(load_dataset(str(path)), 0.0)


def test_empirical_lfp_on_full_coverage_runs_on_the_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    k, copies, na = 6, 20, 3
    state = rng.permutation(np.repeat(np.arange(k), copies))
    copies_of = np.argsort(state, kind="stable").reshape(k, copies)
    transition = copies_of[rng.integers(0, k, size=(k, na))[state], rng.integers(0, copies, size=(k * copies, na))]
    aux = rng.integers(0, 2, size=k)[state].astype(np.float64).reshape(-1, 1)
    n = k * copies
    mdp = DeterministicMDP(n, na, transition, aux, aux[:, 0].copy(), np.full(n, 1.0 / n))
    src, act = np.repeat(np.arange(n), na), np.tile(np.arange(na), n)
    ds = TransitionDataset(n, na, src, act, transition[src, act], aux[src])
    sizes = []

    def recording(index, rel, aux_tol=0.0):
        sizes.append(rel.num_observations)
        return empirical_apply_F(index, rel, aux_tol)

    monkeypatch.setattr(bisim, "empirical_apply_F", recording)
    r_d, _ = empirical_lfp(ds)
    part = partition_refine(mdp)
    assert r_d == partition_to_relation(part)
    assert part.num_blocks < n and set(sizes) == {part.num_blocks}
