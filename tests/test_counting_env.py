import numpy as np
import pytest

from bisimlab import counting_env
from bisimlab.counting_env import (
    GRACE_STEPS,
    PALETTE,
    SHAPES,
    CountingEnvConfig,
    binarize_action,
    collect_dataset,
    render,
    shape_mask,
)
from bisimlab.mdp import ACTION_DEC, ACTION_INC


def small_config(**kw):
    defaults = dict(max_count=8, target_n=4, image_size=32, channels=3, seed=0)
    defaults.update(kw)
    return CountingEnvConfig(**defaults)


def spied_collect(monkeypatch, config, steps, action_repeat=4):
    """collect_dataset's records; the (count, shape, color) of every render
    call, in order; for each record, the numbers of the calls that drew its
    source and successor frames; and the episode each record belongs to. The
    spy makes the real render's draws, then returns a frame that holds its call
    number in base 256 in its first two pixels."""
    calls = []

    def spy_render(count, shape, color, config, rng):
        render(count, shape, color, config, rng)
        calls.append((count, shape, tuple(color)))
        img = np.zeros((config.channels, config.image_size, config.image_size))
        img[0, 0, :2] = divmod(len(calls) - 1, 256)
        return img / 255

    monkeypatch.setattr(counting_env, "render", spy_render)
    data = collect_dataset(config, steps=steps, action_repeat=action_repeat)
    src, succ = ((f[:, 0, 0, 0].astype(int) << 8) | f[:, 0, 0, 1] for f in (data.source_frames, data.successor_frames))
    # a record starts an episode unless its source frame is the one its predecessor ended on
    episode = np.cumsum(np.concatenate([[1], src[1:] != succ[:-1]])) - 1
    return data.dataset, calls, src, succ, episode


def test_reset_zero_count_is_dark():
    data = collect_dataset(small_config(), steps=300, action_repeat=4)
    ds = data.dataset
    assert np.any(ds.sources == 0)
    for frames, counts in ((data.source_frames, ds.sources), (data.successor_frames, ds.successors)):
        lit = frames.reshape(len(frames), -1).max(axis=1) > 0
        assert np.array_equal(lit, counts > 0)


def test_reset_fixes_shape_and_color(monkeypatch):
    _, calls, src, succ, episode = spied_collect(monkeypatch, small_config(seed=3), steps=300)
    assert episode[-1] > 5
    for e in range(episode[-1] + 1):
        drawn = {calls[k][1:] for k in np.concatenate([src[episode == e], succ[episode == e]])}
        assert len(drawn) == 1
        ((shape, color),) = drawn
        assert shape in SHAPES
        assert any(np.array_equal(color, c) for c in PALETTE)
    assert len({call[1:] for call in calls}) > 1


def test_reset_seed_determinism():
    # the first reset, and every record after it, is a pure function of the seed: a longer run extends a shorter
    short = collect_dataset(small_config(seed=11), steps=1, action_repeat=4)
    long = collect_dataset(small_config(seed=11), steps=60, action_repeat=4)
    assert short.dataset.sources[0] == long.dataset.sources[0]
    assert np.array_equal(short.source_frames[0], long.source_frames[0])
    assert np.array_equal(short.successor_frames[0], long.successor_frames[0])
    other = collect_dataset(small_config(seed=12), steps=60, action_repeat=4)
    assert not np.array_equal(other.source_frames, long.source_frames)


def test_step_count_transitions_and_reward(monkeypatch):
    ds, calls, src, succ, _ = spied_collect(monkeypatch, small_config(), steps=300)
    up = (ds.sources == 3) & (ds.actions == ACTION_INC)
    assert np.any(up)
    assert np.all(ds.successors[up] == 4)
    # aux is 1 exactly at the target, and each frame renders its record's count
    assert np.array_equal(ds.aux[:, 0], (ds.sources == 4).astype(float))
    assert [calls[k][0] for k in src] == ds.sources.tolist()
    assert [calls[k][0] for k in succ] == ds.successors.tolist()


def test_step_clamps_at_zero():
    ds = collect_dataset(small_config(), steps=300, action_repeat=4).dataset
    for count, action in ((0, ACTION_DEC), (8, ACTION_INC)):
        clamped = (ds.sources == count) & (ds.actions == action)
        assert np.any(clamped)
        assert np.all(ds.successors[clamped] == count)
        assert np.all(ds.aux[clamped, 0] == 0.0)


def test_grace_step_then_done(monkeypatch):
    # an episode ends GRACE_STEPS steps after its count first equals the target (its first count does
    # not count), and a reset renders the next episode's first frame right after the step that ended it
    assert GRACE_STEPS == 1
    # at seed 0 the 296th step ends an episode, so the reset after the last step is checked too
    ds, calls, src, succ, episode = spied_collect(monkeypatch, small_config(), steps=296)
    assert episode[-1] > 5
    starts = np.flatnonzero(np.diff(episode)) + 1
    assert np.array_equal(src[starts], succ[starts - 1] + 1)
    for e in range(episode[-1] + 1):
        successors = ds.successors[episode == e].tolist()
        ends = successors.index(4) + 1 + GRACE_STEPS if 4 in successors else float("inf")
        assert len(successors) == ends if e < episode[-1] else len(successors) <= ends
    assert len(calls) == succ[-1] + 1 + (len(successors) == ends)  # a last episode that ended is reset too


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
    for channels in (1, 3):
        data = collect_dataset(small_config(channels=channels, seed=2), steps=5, action_repeat=4)
        assert data.source_frames.shape == data.successor_frames.shape == (5, channels, 32, 32)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(target_n=9)
    with pytest.raises(ValueError):
        small_config(image_size=4)
    with pytest.raises(ValueError):
        small_config(channels=2)
