import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisimlab.mdp import (
    MDP_JSON_KEYS,
    DeterministicMDP,
    counting_abstract_mdp,
    load_mdp_json,
    random_mdp,
    save_mdp_json,
    validate_mdp,
)


def test_validate_wellformed():
    assert validate_mdp(counting_abstract_mdp(8, 4)) == []


def test_validate_transition_out_of_range():
    m = counting_abstract_mdp(2, 1)
    m.transition[0, 0] = 3  # == |O|
    assert any("transition out of range" in e for e in validate_mdp(m))


def test_validate_unnormalized_initial_dist():
    m = counting_abstract_mdp(2, 1)
    m.initial_dist = np.array([0.25, 0.25, 0.0])
    assert any("initial_dist not normalized" in e for e in validate_mdp(m))


def test_aux_table_of_one_row_is_taken_as_given():
    # one row of three values for three observations is a wrong row count, not a 3 x 1 aux read sideways
    m = DeterministicMDP(3, 1, [[0], [1], [2]], [[0.0, 1.0, 2.0]], [0, 0, 0], [1 / 3] * 3)
    assert m.aux.shape == (1, 3)
    assert validate_mdp(m) == ["aux has 1 rows, expected 3"]


def test_flat_aux_is_one_value_per_observation():
    m = DeterministicMDP(3, 1, [[0], [1], [2]], [0.0, 1.0, 2.0], [0, 0, 0], [1 / 3] * 3)
    assert m.aux.tolist() == [[0.0], [1.0], [2.0]]
    assert validate_mdp(m) == []


def test_counting_8_4_tables():
    m = counting_abstract_mdp(8, 4)
    assert m.num_observations == 9
    assert m.num_actions == 2
    assert m.transition[8, 0] == 8  # inc clamps at the top
    assert m.transition[0, 1] == 0  # dec clamps at the bottom
    assert m.reward[4] == 1.0
    assert m.reward.sum() == 1.0
    assert np.allclose(m.initial_dist, 1.0 / 9)


def test_counting_degenerate_single_state():
    m = counting_abstract_mdp(0, 0)
    assert m.num_observations == 1
    assert m.transition.tolist() == [[0, 0]]
    assert m.reward[0] == 1.0


def test_counting_2_1_readoff():
    m = counting_abstract_mdp(2, 1)
    assert m.transition[0, 0] == 1
    assert m.transition[1, 0] == 2
    assert m.transition[2, 0] == 2
    assert m.transition[1, 1] == 0
    assert m.reward.tolist() == [0.0, 1.0, 0.0]


def test_counting_target_out_of_range():
    with pytest.raises(ValueError):
        counting_abstract_mdp(4, 7)


def test_random_mdp_single_state():
    m = random_mdp(1, 1, 1, np.random.default_rng(0))
    assert m.transition.tolist() == [[0]]
    assert validate_mdp(m) == []


def test_random_mdp_valid_and_deterministic():
    a = random_mdp(50, 4, 3, np.random.default_rng(7))
    b = random_mdp(50, 4, 3, np.random.default_rng(7))
    assert validate_mdp(a) == []
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.aux, b.aux)
    assert len(np.unique(a.aux)) <= 3


def test_mdp_json_roundtrip(tmp_path):
    m = random_mdp(12, 3, 2, np.random.default_rng(3))
    path = str(tmp_path / "mdp.json")
    save_mdp_json(m, path)
    loaded = load_mdp_json(path)
    assert np.array_equal(loaded.transition, m.transition)
    assert np.allclose(loaded.aux, m.aux)
    assert np.allclose(loaded.initial_dist, m.initial_dist)


@pytest.mark.parametrize("m", [counting_abstract_mdp(8, 4), random_mdp(1000, 4, 3, np.random.default_rng(0))])
def test_save_mdp_json_writes_what_json_dump_writes(tmp_path, m):
    # the writer encodes in one json.dumps call; json.dump to the file must give the same bytes
    payload = {"num_observations": m.num_observations, "num_actions": m.num_actions,
               "transition": m.transition.reshape(-1).tolist(), "aux": m.aux.tolist(),
               "reward": m.reward.tolist(), "initial_dist": m.initial_dist.tolist()}
    expected = io.StringIO()
    json.dump(payload, expected)
    path = tmp_path / "mdp.json"
    save_mdp_json(m, str(path))
    assert path.read_bytes() == expected.getvalue().encode()


def test_load_rejects_invalid(tmp_path):
    m = counting_abstract_mdp(2, 1)
    m.initial_dist = np.array([0.9, 0.0, 0.0])
    path = str(tmp_path / "bad.json")
    save_mdp_json(m, path)
    with pytest.raises(ValueError):
        load_mdp_json(path)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(MDP_JSON_KEYS), min_size=1))
def test_load_rejects_missing_keys(tmp_path_factory, dropped):
    path = tmp_path_factory.mktemp("mdp") / "mdp.json"
    save_mdp_json(random_mdp(5, 2, 2, np.random.default_rng(0)), str(path))
    payload = json.loads(path.read_text())
    for key in dropped:
        del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="missing"):
        load_mdp_json(str(path))


@pytest.mark.parametrize("key, value", [
    ("transition", [0, 1, 2]),
    ("transition", [[0, 1], [1]]),
    ("transition", "abc"),
    ("aux", [1.0, 2.0]),
    ("num_actions", None),
    ("num_observations", "five"),
    ("initial_dist", {"a": 1}),
    ("num_observations", 5.0),
    ("num_observations", "5"),
    ("num_actions", True),
    ("transition", [0, 1, 2, 3, 4, 0, 1, 2, 3, 4.5]),
    ("transition", [0, 1, 2, 3, 4, 0, 1, 2, 3, False]),
    ("transition", [[0, 1], [2, 3], [4, 0], [1, 2], [3, 4.0]]),
    ("transition", [0, 1, 2, 3, 4, 0, 1, 2, 3, 2**70]),
    ("reward", ["0", "1e3", "2", "3", "4"]),
    ("aux", [[True], [False], [True], [False], [True]]),
    ("initial_dist", ["0.2", 0.2, 0.2, 0.2, 0.2]),
    ("initial_dist", [math.nan, 0.25, 0.25, 0.25, 0.25]),
    ("reward", [math.nan, 1.0, 2.0, 3.0, 4.0]),
    # shapes that hold the right number of values but are not the documented ones
    ("transition", [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]),
    ("transition", [[[0, 1]], [[2, 3]], [[4, 0]], [[1, 2]], [[3, 4]]]),
    ("aux", [[0.0, 1.0, 0.0, 1.0, 0.0]]),
    ("aux", [[[0.0]], [[1.0]], [[0.0]], [[1.0]], [[0.0]]]),
    ("aux", [[], [], [], [], []]),
    ("reward", [[0.0], [1.0], [2.0], [3.0], [4.0]]),
    ("initial_dist", [[0.2, 0.2, 0.2, 0.2, 0.2]]),
    ("num_observations", 0),
    ("reward", [2**1100, 1.0, 2.0, 3.0, 4.0]),
])
def test_load_rejects_bad_shapes_and_types(tmp_path, key, value):
    path = tmp_path / "mdp.json"
    save_mdp_json(random_mdp(5, 2, 2, np.random.default_rng(0)), str(path))
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="invalid MDP file"):
        load_mdp_json(str(path))


def test_load_accepts_nested_transition_rows(tmp_path):
    path = tmp_path / "mdp.json"
    m = random_mdp(5, 2, 2, np.random.default_rng(0))
    save_mdp_json(m, str(path))
    payload = json.loads(path.read_text())
    payload["transition"] = m.transition.tolist()
    path.write_text(json.dumps(payload))
    assert np.array_equal(load_mdp_json(str(path)).transition, m.transition)


def test_load_accepts_flat_aux(tmp_path):
    path = tmp_path / "mdp.json"
    m = random_mdp(5, 2, 2, np.random.default_rng(0))
    save_mdp_json(m, str(path))
    payload = json.loads(path.read_text())
    payload["aux"] = m.aux[:, 0].tolist()
    path.write_text(json.dumps(payload))
    assert np.array_equal(load_mdp_json(str(path)).aux, m.aux)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "mdp.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="not a JSON object"):
        load_mdp_json(str(path))
