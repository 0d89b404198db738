"""The array implementations agree with the loops they replaced (loop_oracles.py)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_oracles
from bisimlab.analysis import DistanceMatrix, EmbeddingSet, verify_no_collapse, write_distance_csv
from bisimlab.bisim import build_co_observed_index
from bisimlab.dataset import TransitionDataset
from bisimlab.relation import PairRelation, write_relation_csv

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


@SETTINGS
@given(datasets(consistent=True))
def test_co_observed_index_matches_loop(ds):
    got, want = build_co_observed_index(ds), loop_oracles.build_co_observed_index(ds)
    for name in ("obs_ids", "aux", "has_action", "succ_dense"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # bytewise: signs of zeros too


def test_co_observed_index_marks_unseen_successors():
    ds = TransitionDataset(6, 2, sources=[4, 1, 4], actions=[1, 0, 0], successors=[5, 4, 0], aux=[[1.0], [0.0], [1.0]])
    index = build_co_observed_index(ds)
    assert index.obs_ids.tolist() == [1, 4]
    assert index.succ_dense.tolist() == [[1, -1], [-1, -1]]
    assert index.has_action.tolist() == [[True, False], [True, True]]


@st.composite
def relations(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return PairRelation(np.array(cells, dtype=bool).reshape(n, n))


@SETTINGS
@given(relations(), st.booleans(), st.integers(0, 10**9))
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
    cells = draw(st.lists(st.booleans(), min_size=num_obs * num_obs, max_size=num_obs * num_obs))
    rel = PairRelation(np.array(cells, dtype=bool).reshape(num_obs, num_obs))
    embs = EmbeddingSet(vectors=vectors, labels=np.zeros(n, dtype=np.int64), source_ids=np.array(ids, dtype=np.int64))
    return embs, rel


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
    embs, rel = case
    got, want = verify_no_collapse(embs, rel, eps), loop_oracles.verify_no_collapse(embs, rel, eps)
    assert got.to_json() == want.to_json()
    _same_report(got, want)


@SETTINGS
@given(embeddings(integer=False), st.floats(0.0, 20.0))
def test_verify_no_collapse_matches_loop(case, eps):
    embs, rel = case
    want = loop_oracles.verify_no_collapse(embs, rel, eps)
    # a distance within rounding of eps may land on either side of it
    v = embs.vectors
    dists = np.linalg.norm(v[:, None] - v[None, :], axis=2)[np.triu_indices(len(v), 1)]
    assume(not np.any(np.isclose(dists, eps, rtol=1e-9, atol=0.0)))
    _same_report(verify_no_collapse(embs, rel, eps), want)


@SETTINGS
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_distance_csv_matches_loop(tmp_path_factory, rows, cols, data):
    values = st.one_of(st.floats(width=64), st.sampled_from((0.0, -0.0, 1e16, 1e-300, float("inf"))))
    matrix = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    dm = DistanceMatrix(matrix=matrix, labels=np.zeros(rows, dtype=np.int64), order=np.arange(rows))
    path = tmp_path_factory.mktemp("dist") / "distances.csv"
    write_distance_csv(dm, str(path))
    assert path.read_text() == loop_oracles.distance_csv(dm)
