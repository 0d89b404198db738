import numpy as np
import pytest

from bisimlab import counting_env
from bisimlab.counting_env import (
    PALETTE,
    SHAPES,
    CountingEnvConfig,
    binarize_action,
    collect_dataset,
    env_reset,
    env_step,
    render,
    shape_mask,
)
from bisimlab.mdp import ACTION_DEC, ACTION_INC


def small_config(**kw):
    defaults = dict(max_count=8, target_n=4, image_size=32, channels=3, seed=0)
    defaults.update(kw)
    return CountingEnvConfig(**defaults)


def test_reset_zero_count_is_dark():
    config = small_config()
    for seed in range(40):
        obs, _ = env_reset(config, np.random.default_rng(seed))
        if obs.count == 0:
            assert obs.pixels.max() == 0.0
            return
    pytest.fail("no zero-count reset observed in 40 seeds")


def test_reset_fixes_shape_and_color():
    obs, state = env_reset(small_config(), np.random.default_rng(3))
    assert state.shape in SHAPES
    assert any(np.array_equal(state.color, c) for c in PALETTE)
    shape, color = state.shape, state.color.copy()
    for _ in range(5):
        env_step(state, 0.5)
    assert state.shape == shape
    assert np.array_equal(state.color, color)


def test_reset_seed_determinism():
    a, _ = env_reset(small_config(), np.random.default_rng(11))
    b, _ = env_reset(small_config(), np.random.default_rng(11))
    assert np.array_equal(a.pixels, b.pixels)
    assert a.count == b.count


def test_pixel_count_oracle():
    # intensity normalization makes rendered mass exactly count * per-object
    # mass, independent of shape, and grid placement guarantees no overlap
    config = small_config()
    min_area = min(shape_mask(s, config.object_size).sum() for s in SHAPES)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 9))
        shape = SHAPES[int(rng.integers(0, len(SHAPES)))]
        color = PALETTE[int(rng.integers(0, len(PALETTE)))]
        img = render(count, shape, color, config, rng)
        per_object = min_area * color.sum()
        assert img.sum() == pytest.approx(count * per_object)


def test_step_count_transitions_and_reward():
    obs, state = env_reset(small_config(), np.random.default_rng(0))
    state.count = 3
    obs, reward, _ = env_step(state, 0.7)
    assert state.count == 4
    assert reward == 1.0
    assert obs.count == 4


def test_step_clamps_at_zero():
    _, state = env_reset(small_config(), np.random.default_rng(0))
    state.count = 0
    _, reward, _ = env_step(state, -1.0)
    assert state.count == 0
    assert reward == 0.0


def test_grace_step_then_done():
    _, state = env_reset(small_config(), np.random.default_rng(0))
    state.count = 3
    _, reward, done = env_step(state, 1.0)  # hits target 4
    assert reward == 1.0 and not done
    _, _, done = env_step(state, 1.0)  # one-step grace expires
    assert done


def test_step_rejects_non_finite_action():
    _, state = env_reset(small_config(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        env_step(state, float("nan"))


def test_binarize_action_sign_convention():
    assert binarize_action(0.7) == ACTION_INC
    assert binarize_action(-0.3) == ACTION_DEC
    assert binarize_action(0.0) == ACTION_INC  # tie toward inc


def test_collect_single_step():
    data = collect_dataset(small_config(), steps=1, action_repeat=4)
    assert len(data.dataset) == 1
    assert data.source_frames.shape[0] == 1


class _CountingRng:
    """Delegating rng spy that counts uniform() draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.uniform_calls = 0

    def integers(self, *a, **kw):
        return self._rng.integers(*a, **kw)

    def uniform(self, *a, **kw):
        self.uniform_calls += 1
        return self._rng.uniform(*a, **kw)

    def choice(self, *a, **kw):
        return self._rng.choice(*a, **kw)


def test_collect_action_repeat_draw_count(monkeypatch):
    rng = _CountingRng(0)
    monkeypatch.setattr(counting_env.np.random, "default_rng", lambda seed: rng)
    collect_dataset(small_config(), steps=8, action_repeat=4)
    assert rng.uniform_calls == 2


def test_collect_seed_determinism():
    a = collect_dataset(small_config(), steps=60, action_repeat=4)
    b = collect_dataset(small_config(), steps=60, action_repeat=4)
    assert np.array_equal(a.dataset.sources, b.dataset.sources)
    assert np.array_equal(a.source_frames, b.source_frames)
    assert np.array_equal(a.successor_frames, b.successor_frames)


def test_collect_satisfies_dataset_invariants():
    data = collect_dataset(small_config(), steps=300, action_repeat=4)
    assert data.dataset.validate() == []
    # count-level determinism: successor is a pure function of (count, sign)
    inc = data.dataset.actions == ACTION_INC
    expected = np.where(inc, np.minimum(data.dataset.sources + 1, 8), np.maximum(data.dataset.sources - 1, 0))
    assert np.array_equal(data.dataset.successors, expected)
    assert np.array_equal(data.dataset.aux[:, 0], (data.dataset.sources == 4).astype(float))


def test_single_channel_render():
    config = small_config(channels=1)
    obs, _ = env_reset(config, np.random.default_rng(2))
    assert obs.pixels.shape == (1, 32, 32)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(target_n=9)
    with pytest.raises(ValueError):
        small_config(image_size=4)
    with pytest.raises(ValueError):
        small_config(channels=2)
