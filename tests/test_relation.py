import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracles
from bisimlab import relation
from bisimlab.bisim import empirical_lfp, quotient
from bisimlab.cli import main
from bisimlab.dataset import TransitionDataset, save_dataset
from bisimlab.mdp import DeterministicMDP
from bisimlab.relation import PairRelation


def single_pair(n, i=0, j=1):
    """R = {(i, j), (j, i)}: the complement links i to j through the other n - 2."""
    return PairRelation.from_pairs(n, [(i, j), (j, i)])


def test_complement_path_count_of_256_is_not_transitive():
    # 256 two-step paths 0 -> k -> 1 in the complement; a count taken modulo 256 reads 0
    rel = single_pair(258)
    assert not rel.complement_is_transitive()
    assert not loop_oracles.complement_is_transitive(rel)


def test_complement_check_spans_row_blocks():
    n = 600  # more rows than one block holds at this width
    assert relation._BLOCK_CELLS // n < n
    assert not single_pair(n, n - 2, n - 1).complement_is_transitive()
    labels = np.arange(n) % 7
    assert PairRelation(labels[:, None] != labels[None, :]).complement_is_transitive()


def test_complement_check_on_a_row_quotient_that_spans_row_blocks():
    # rows 589..599 repeat, so the check runs on 590 representatives: more than one row block holds
    n, k = 600, 590
    assert relation._BLOCK_CELLS // k < k
    labels = np.minimum(np.arange(n), k - 1)
    bits = labels[:, None] != labels[None, :]
    assert PairRelation(bits).complement_is_transitive()
    # 586 ~ 587 ~ 588 but 586 and 588 stay apart, in the second row block
    for i, j in ((586, 587), (587, 588)):
        bits[i, j] = bits[j, i] = False
    assert not PairRelation(bits).complement_is_transitive()


@st.composite
def perturbed_partitions(draw):
    """Different-block relations (transitive complement), or symmetric
    relations lifted from 4 blocks, with some cells flipped; flips may break
    symmetry."""
    n = draw(st.integers(1, 14))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    bits = labels[:, None] != labels[None, :]
    if draw(st.booleans()):
        sub = np.array(draw(st.lists(st.booleans(), min_size=16, max_size=16))).reshape(4, 4)
        bits = (sub | sub.T)[labels][:, labels]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        bits[i, j] = not bits[i, j]
    return PairRelation(bits)


@st.composite
def random_relations(draw):
    n = draw(st.integers(0, 10))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return PairRelation(np.array(cells, dtype=bool).reshape(n, n))


@settings(max_examples=200, deadline=None)
@given(st.one_of(perturbed_partitions(), random_relations()), st.sampled_from((1, 5, 1 << 18)))
def test_complement_is_transitive_matches_closure(rel, block_cells):
    with mock.patch.object(relation, "_BLOCK_CELLS", block_cells):
        assert rel.complement_is_transitive() == loop_oracles.complement_is_transitive(rel)


def test_quotient_rejects_complement_with_256_paths():
    # identity transitions and constant aux make every relation a fixed point
    n = 258
    mdp = DeterministicMDP(n, 1, np.arange(n)[:, None], np.zeros((n, 1)), np.zeros(n), np.full(n, 1 / n))
    with pytest.raises(ValueError, match="non-transitive complement"):
        quotient(single_pair(n), mdp)


def dataset_with_256_complement_paths():
    """R*_D holds (0, 1), and 256 sources are unrelated to both.

    Sources 0 and 1 see action 0 only and step to X (aux 1) and Y (aux 0),
    which R*_D separates, so (0, 1) is in R*_D. The 255 middle sources and Y
    see action 1 only, so they share no action with 0 or 1.
    """
    middle = list(range(2, 257))
    x, y = 257, 258
    sources = [0, 1, x, y, *middle]
    actions = [0, 0, 1, 1, *[1] * len(middle)]
    successors = [x, y, x, y, *middle]
    aux = [[1.0 if s == x else 0.0] for s in sources]
    return TransitionDataset(259, 2, sources, actions, successors, aux)


def test_empirical_relation_with_256_complement_paths(tmp_path, capsys):
    ds = dataset_with_256_complement_paths()
    r_d, index = empirical_lfp(ds)
    assert r_d.bits[0, 1] and r_d.count() == 2 * (1 + 258)
    assert not r_d.complement_is_transitive()

    path = str(tmp_path / "dataset.bslb")
    save_dataset(ds, path)
    assert main(["empirical-bisim", "--dataset", path, "--out-dir", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["transitive_complement"] is False
