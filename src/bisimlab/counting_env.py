"""Object-counting environment with rendered image observations.

`collect_dataset` is the environment's one entry point: it rolls a random
policy through episodes that fix a shape and color at reset, while the sign
of a continuous action in [-1, 1] increments or decrements the object count
(clamped to [0, max_count]) and object positions are resampled each step. A
record's aux (the reward) is 1 exactly when its source count equals the
target; an episode ends a fixed number of grace steps after the first success.

All randomness flows through numpy's PCG64 generator seeded from the config,
so every rollout is a pure function of (config, seed).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from bisimlab.dataset import TransitionDataset, ppm_bytes
from bisimlab.mdp import ACTION_DEC, ACTION_INC

SHAPES = ("triangle", "disk", "square", "bar")

# fully saturated palette
PALETTE = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
    ]
)

# steps an episode runs on after its count first equals target_n
GRACE_STEPS = 1


@dataclass
class CountingEnvConfig:
    max_count: int
    target_n: int
    image_size: int
    channels: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.target_n <= self.max_count:
            raise ValueError(f"target_n {self.target_n} not in [0, {self.max_count}]")
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")

    @property
    def object_size(self) -> int:
        return max(2, self.image_size // 8)


def shape_mask(shape: str, size: int) -> np.ndarray:
    """Boolean [size, size] stencil for one object."""
    ys, xs = np.mgrid[0:size, 0:size]
    if shape == "square":
        return np.ones((size, size), dtype=bool)
    if shape == "disk":
        c = (size - 1) / 2.0
        return (ys - c) ** 2 + (xs - c) ** 2 <= (size / 2.0) ** 2
    if shape == "triangle":
        # upward triangle: row y spans a widening band around the center column
        c = (size - 1) / 2.0
        half_width = (ys + 1) * (size / 2.0) / size
        return np.abs(xs - c) <= half_width
    if shape == "bar":
        third = max(1, size // 3)
        mask = np.zeros((size, size), dtype=bool)
        mask[:, (size - third) // 2 : (size - third) // 2 + third] = True
        return mask
    raise ValueError(f"unknown shape {shape!r}")


@functools.lru_cache(maxsize=None)
def _stencil(shape: str, size: int) -> tuple[np.ndarray, float]:
    """shape_mask(shape, size), read-only, and the intensity that gives it the
    pixel mass of the smallest of the four stencils at that size."""
    mask = shape_mask(shape, size)
    mask.flags.writeable = False
    min_area = min(int(shape_mask(name, size).sum()) for name in SHAPES)
    return mask, min_area / int(mask.sum())


def render(
    count: int, shape: str, color: np.ndarray, config: CountingEnvConfig, rng: np.random.Generator
) -> np.ndarray:
    """Render `count` same-shape, same-color objects at random positions.

    Each object lands in a randomly chosen grid cell of side 2*object_size,
    jittered within the cell. Cells are drawn without replacement while they
    last, so objects never overlap on images large enough to hold them.

    Intensity is scaled per shape so every object contributes the same total
    pixel mass regardless of its footprint; shapes stay visually distinct
    through their stencil and brightness.
    """
    s = config.image_size
    obj = config.object_size
    cell = 2 * obj
    per_side = s // cell
    num_cells = per_side * per_side
    img = np.zeros((3, s, s))
    mask, intensity = _stencil(shape, obj)
    jitter = (cell - obj) // 2 + 1  # an offset that keeps every object inside its cell
    if count <= num_cells:
        cells = rng.choice(num_cells, size=count, replace=False)
    else:
        cells = rng.integers(0, num_cells, size=count)
    for c in cells:
        cy, cx = divmod(int(c), per_side)
        y = cy * cell + int(rng.integers(0, jitter + 1))
        x = cx * cell + int(rng.integers(0, jitter + 1))
        region = img[:, y : y + obj, x : x + obj]
        region[:, mask] = color[:, None] * intensity
    if config.channels == 1:
        img = img.max(axis=0, keepdims=True)
    return img


@dataclass
class CollectedData:
    """Transition dataset at the count level plus raw rendered frames."""

    dataset: TransitionDataset
    source_frames: np.ndarray  # uint8 [m, C, S, S]
    successor_frames: np.ndarray  # uint8 [m, C, S, S]

    def ppm_frames(self) -> list[bytes]:
        out = []
        for k in range(len(self.dataset)):
            out.append(ppm_bytes(self.source_frames[k]))
            out.append(ppm_bytes(self.successor_frames[k]))
        return out


def binarize_action(action: float) -> int:
    """Continuous action -> discrete {inc, dec} by sign; zero ties to inc."""
    return ACTION_DEC if action < 0 else ACTION_INC


def collect_dataset(config: CountingEnvConfig, steps: int, action_repeat: int) -> CollectedData:
    """Roll a uniform-random policy for `steps` transitions, drawing from default_rng(config.seed).

    An episode starts from a uniformly drawn count, shape and color, and keeps
    its shape and color. Each step moves the count by the sign of the action
    (clamped to [0, max_count]) and renders it at new positions. An episode
    ends GRACE_STEPS steps after its count first equals target_n, and the next
    one starts at once. Actions are drawn uniformly from [-1, 1] and held for
    `action_repeat` consecutive steps, across resets. Records live at the
    count level (source count, sign, successor count, 1 when the source count
    is the target, else 0); raw frames are stored side by side, keyed by
    record index.
    """
    if steps <= 0:
        raise ValueError("steps must be > 0")
    if action_repeat < 1:
        raise ValueError("action_repeat must be >= 1")
    rng = np.random.default_rng(config.seed)

    def rendered(count: int, shape: str, color: np.ndarray) -> np.ndarray:
        return np.round(render(count, shape, color, config, rng) * 255).astype(np.uint8)

    def reset() -> tuple[int, str, np.ndarray, np.ndarray]:
        """A new episode's first count, the shape and color it keeps, and its first frame."""
        count = int(rng.integers(0, config.max_count + 1))
        shape = SHAPES[int(rng.integers(0, len(SHAPES)))]
        color = PALETTE[int(rng.integers(0, len(PALETTE)))]
        return count, shape, color, rendered(count, shape, color)

    sources, actions, successors, src_frames, succ_frames = [], [], [], [], []
    count, shape, color, frame = reset()
    since_success = -1  # steps since the episode's count first equalled target_n; -1 before that
    action = float(rng.uniform(-1.0, 1.0))
    since_resample = 0
    for _ in range(steps):
        if since_resample >= action_repeat:
            action = float(rng.uniform(-1.0, 1.0))
            since_resample = 0
        since_resample += 1
        sign = binarize_action(action)
        sources.append(count)
        actions.append(sign)
        src_frames.append(frame)
        count = min(count + 1, config.max_count) if sign == ACTION_INC else max(count - 1, 0)
        successors.append(count)
        frame = rendered(count, shape, color)  # the successor's, and the next source unless the episode ends
        succ_frames.append(frame)
        if since_success >= 0:
            since_success += 1
        elif count == config.target_n:
            since_success = 0
        if since_success >= GRACE_STEPS:
            # the action-repeat schedule is step-based and survives resets
            count, shape, color, frame = reset()
            since_success = -1
    sources = np.array(sources)
    dataset = TransitionDataset(
        num_observations=config.max_count + 1,
        num_actions=2,
        sources=sources,
        actions=np.array(actions),
        successors=np.array(successors),
        aux=(sources == config.target_n).astype(np.float64).reshape(-1, 1),
    )
    return CollectedData(
        dataset=dataset,
        source_frames=np.stack(src_frames),
        successor_frames=np.stack(succ_frames),
    )
