"""Finite deterministic MDPs as dense tables.

Observations and actions are dense integer ids. The auxiliary table holds one
fixed-width real vector per observation (dimension 1 for scalar auxiliaries
such as reward).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ACTION_INC = 0
ACTION_DEC = 1


@dataclass
class DeterministicMDP:
    """Tabular deterministic MDP (observations, actions, transition, aux, reward, mu).

    transition[o, a] is the successor observation id. aux[o] is the auxiliary
    vector attached to observation o; reward[o] a scalar; initial_dist a
    probability vector over observations.
    """

    num_observations: int
    num_actions: int
    transition: np.ndarray  # int [|O|, |A|]
    aux: np.ndarray  # float [|O|, d_p]
    reward: np.ndarray  # float [|O|]
    initial_dist: np.ndarray  # float [|O|]

    def __post_init__(self) -> None:
        self.transition = np.asarray(self.transition, dtype=np.int64)
        self.aux = np.asarray(self.aux, dtype=np.float64)
        if self.aux.ndim < 2:  # one value per observation; a table is taken as given
            self.aux = self.aux.reshape(-1, 1)
        self.reward = np.asarray(self.reward, dtype=np.float64).reshape(-1)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64).reshape(-1)

    @property
    def aux_dim(self) -> int:
        return self.aux.shape[1]


def validate_mdp(mdp: DeterministicMDP) -> list[str]:
    """Return a list of invariant violations; empty means valid."""
    errors: list[str] = []
    n, na = mdp.num_observations, mdp.num_actions
    if n < 1:
        errors.append("num_observations must be positive")
    if na < 1:
        errors.append("num_actions must be positive")
    if mdp.transition.shape != (n, na):
        errors.append(f"transition shape {mdp.transition.shape} != ({n}, {na})")
    elif mdp.transition.size and (mdp.transition.min() < 0 or mdp.transition.max() >= n):
        errors.append("transition out of range")
    if mdp.aux.shape[0] != n:
        errors.append(f"aux has {mdp.aux.shape[0]} rows, expected {n}")
    if mdp.reward.shape != (n,):
        errors.append(f"reward shape {mdp.reward.shape} != ({n},)")
    if mdp.initial_dist.shape != (n,):
        errors.append(f"initial_dist shape {mdp.initial_dist.shape} != ({n},)")
    else:
        if mdp.initial_dist.size and mdp.initial_dist.min() < 0:
            errors.append("initial_dist has negative entries")
        if abs(mdp.initial_dist.sum() - 1.0) > 1e-9:
            errors.append("initial_dist not normalized")
    for name in ("aux", "reward", "initial_dist"):  # NaN passes both initial_dist checks above
        if not np.all(np.isfinite(getattr(mdp, name))):
            errors.append(f"{name} has non-finite entries")
    return errors


def counting_abstract_mdp(max_count: int, target_n: int) -> DeterministicMDP:
    """Count-chain MDP: states 0..max_count, actions inc/dec with clamping.

    Reward (and aux) is the indicator of count == target_n; initial
    distribution is uniform.
    """
    if not 0 <= target_n <= max_count:
        raise ValueError(f"target_n {target_n} not in [0, {max_count}]")
    n = max_count + 1
    counts = np.arange(n)
    transition = np.stack(
        [np.minimum(counts + 1, max_count), np.maximum(counts - 1, 0)], axis=1
    )
    reward = (counts == target_n).astype(np.float64)
    return DeterministicMDP(
        num_observations=n,
        num_actions=2,
        transition=transition,
        aux=reward.reshape(-1, 1),
        reward=reward,
        initial_dist=np.full(n, 1.0 / n),
    )


def random_mdp(
    num_obs: int,
    num_actions: int,
    num_aux_values: int,
    rng: np.random.Generator,
) -> DeterministicMDP:
    """Uniformly random deterministic MDP; aux drawn from `num_aux_values` distinct reals."""
    if min(num_obs, num_actions, num_aux_values) < 1:
        raise ValueError("all counts must be >= 1")
    transition = rng.integers(0, num_obs, size=(num_obs, num_actions))
    levels = np.sort(rng.standard_normal(num_aux_values))
    aux = levels[rng.integers(0, num_aux_values, size=num_obs)].reshape(-1, 1)
    return DeterministicMDP(
        num_observations=num_obs,
        num_actions=num_actions,
        transition=transition,
        aux=aux,
        reward=aux[:, 0].copy(),
        initial_dist=np.full(num_obs, 1.0 / num_obs),
    )


def save_mdp_json(mdp: DeterministicMDP, path: str) -> None:
    payload = {
        "num_observations": mdp.num_observations,
        "num_actions": mdp.num_actions,
        "transition": mdp.transition.reshape(-1).tolist(),
        "aux": mdp.aux.tolist(),
        "reward": mdp.reward.tolist(),
        "initial_dist": mdp.initial_dist.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))  # json.dump streams through the pure-Python encoder; dumps uses the C one


MDP_JSON_KEYS = ("num_observations", "num_actions", "transition", "aux", "reward", "initial_dist")


def _flat(value, types: tuple[type, ...], length: int) -> bool:
    """True for a list of `length` values of exactly these types (so true/false is no number)."""
    return isinstance(value, list) and len(value) == length and all(type(v) in types for v in value)


def _table(value, types: tuple[type, ...], rows: int, width: int | None = None) -> bool:
    """True for `rows` lists of `width` (by default the first row's length) >= 1 values of exactly these types."""
    if not _flat(value, (list,), rows):
        return False
    width = len(value[0]) if width is None else width
    return width >= 1 and all(_flat(row, types, width) for row in value)


def load_mdp_json(path: str) -> DeterministicMDP:
    """Read an MDP written by save_mdp_json; ValueError for anything malformed."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"invalid MDP file {path}: not a JSON object")
    missing = [key for key in MDP_JSON_KEYS if key not in payload]
    if missing:
        raise ValueError(f"invalid MDP file {path}: missing " + ", ".join(missing))
    for key in ("num_observations", "num_actions"):
        if type(payload[key]) is not int or payload[key] < 1:
            raise ValueError(f"invalid MDP file {path}: {key} must be a positive integer, got {json.dumps(payload[key])}")
    n, na = payload["num_observations"], payload["num_actions"]
    real = (int, float)
    # each array's accepted layouts, even where another one holds as many values
    layouts = {
        "transition": (_flat(payload["transition"], (int,), n * na) or _table(payload["transition"], (int,), n, na),
                       f"{n * na} integers or {n} rows of {na} integers"),
        "aux": (_flat(payload["aux"], real, n) or _table(payload["aux"], real, n),
                f"{n} numbers or {n} rows of d >= 1 numbers each"),
        "reward": (_flat(payload["reward"], real, n), f"{n} numbers"),
        "initial_dist": (_flat(payload["initial_dist"], real, n), f"{n} numbers"),
    }
    for key, (fits, expected) in layouts.items():
        if not fits:
            raise ValueError(f"invalid MDP file {path}: {key} must be {expected}")
    try:  # OverflowError: an id past int64, or an integer past the largest float
        mdp = DeterministicMDP(n, na, np.asarray(payload["transition"], dtype=np.int64).reshape(n, na),
                               np.asarray(payload["aux"], dtype=np.float64).reshape(n, -1),
                               payload["reward"], payload["initial_dist"])
    except OverflowError as exc:
        raise ValueError(f"invalid MDP file {path}: {exc}") from exc
    errors = validate_mdp(mdp)
    if errors:
        raise ValueError(f"invalid MDP file {path}: " + "; ".join(errors))
    return mdp
