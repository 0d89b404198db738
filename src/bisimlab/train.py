"""Joint training loop: replay sampling, Adam updates, compactness checkpointing.

Training is a pure function of (config, data): all sampling flows through one
seeded generator, so reruns produce bit-identical metrics logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

# counting_env and mdp name annotations only: reached through their lazy modules, neither runs here
from bisimlab import counting_env, mdp
from bisimlab.analysis import nearest_centroid_accuracy
from bisimlab.nn import Batch, LossReport, ModelConfig, ModelParams, encode, init_params, joint_loss, loss_and_grads
# the .pjpa checkpoint format lives in nn, beside the model layout; its entry points stay
# importable here, where the tests and bench/ (checks.py reads, tracing.py wraps the writer) find them
from bisimlab.nn import load_checkpoint, model_config_echo, save_checkpoint  # noqa: F401
from bisimlab.optim import AdamState, adam_step


EVAL_SIZE = 256  # records in the fixed evaluation sample


class DivergenceError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    c_p: float = 1.0
    latent_dim: int = 32
    base_lr: float = 3e-4
    batch_size: int = 64
    steps: int = 5000
    seed: int = 0
    aux_mode: str = "reward"  # "reward" | "random:<dim>" | "none"
    dyn_loss_enabled: bool = True
    decoder_enabled: bool = True
    eval_every: int = 500
    report_every: int = 100
    encoder_hidden: tuple[int, ...] = (128, 64)
    dynamics_hidden: int = 128
    aux_hidden: int = 128
    decoder_hidden: tuple[int, ...] = (128,)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_p) and self.c_p >= 0):
            raise ValueError("c_p must be a finite number >= 0")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError("base_lr must be a finite number > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("batch_size", "steps", "eval_every", "report_every", "latent_dim", "dynamics_hidden",
                     "aux_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("encoder_hidden", "decoder_hidden"):  # empty is legal: no hidden layer
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"every {name} width must be >= 1")
        if self.aux_mode not in ("reward", "none") and self.random_aux_dim() is None:
            raise ValueError(f"aux_mode must be reward, none or random:<dim> with dim >= 1, got {self.aux_mode!r}")
        if not self.dyn_loss_enabled and self.aux_mode == "none":
            raise ValueError("at least one of the dynamics loss and the auxiliary loss must be active")

    @property
    def aux_enabled(self) -> bool:
        return self.aux_mode != "none"

    def random_aux_dim(self) -> int | None:
        kind, _, dim = str(self.aux_mode).partition(":")
        return int(dim) if kind == "random" and dim.isdecimal() and int(dim) > 0 else None


@dataclass
class TrainData:
    """Replay contents: aligned observation/transition arrays.

    `labels` is the ground-truth class per record (state id or object count).
    No loss reads them, but the evaluation scores against them, and its best
    score chooses the parameters `train` returns as `best_params`.
    """

    obs: np.ndarray  # [m, ...obs_shape] float in [0, 1] (images) or one-hot
    actions: np.ndarray  # int [m]
    next_obs: np.ndarray
    reward_aux: np.ndarray  # [m, 1]
    labels: np.ndarray  # int [m]
    obs_kind: str
    num_actions: int

    @property
    def obs_shape(self) -> tuple[int, ...]:
        return self.obs.shape[1:]

    def __len__(self) -> int:
        return self.obs.shape[0]


def tabular_train_data(mdp: mdp.DeterministicMDP) -> TrainData:
    """Full-coverage one-hot data: one record per (observation, action)."""
    n, na = mdp.num_observations, mdp.num_actions
    eye = np.eye(n)
    sources = np.repeat(np.arange(n), na)
    actions = np.tile(np.arange(na), n)
    successors = mdp.transition[sources, actions]
    return TrainData(
        obs=eye[sources],
        actions=actions,
        next_obs=eye[successors],
        reward_aux=mdp.reward[sources].reshape(-1, 1),
        labels=sources,
        obs_kind="onehot",
        num_actions=na,
    )


def collected_train_data(collected: counting_env.CollectedData) -> TrainData:
    ds = collected.dataset
    return TrainData(
        obs=collected.source_frames.astype(np.float64) / 255.0,
        actions=ds.actions.copy(),
        next_obs=collected.successor_frames.astype(np.float64) / 255.0,
        reward_aux=ds.aux.copy(),
        labels=ds.sources.copy(),
        obs_kind="image",
        num_actions=ds.num_actions,
    )


def random_linear_aux(seed: int, out_dim: int, obs_shape: tuple[int, ...]) -> np.ndarray:
    """Frozen random projection matrix [obs_dim, out_dim], never trained."""
    in_dim = int(np.prod(obs_shape))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((in_dim, out_dim)) / np.sqrt(in_dim)


def resolve_aux_targets(config: TrainConfig, data: TrainData) -> np.ndarray:
    if config.aux_mode == "reward":
        return data.reward_aux
    dim = config.random_aux_dim()
    if dim is not None:
        proj = random_linear_aux(config.seed, dim, data.obs_shape)
        return data.obs.reshape(len(data), -1) @ proj
    return np.zeros((len(data), 1))


@dataclass
class TrainResult:
    params: ModelParams
    best_params: ModelParams
    best_centroid_acc: float
    best_step: int
    best_eval: LossReport  # best_params' losses over the evaluation sample, 0 for an inactive loss
    metrics: list[dict]

    def write_metrics_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for row in self.metrics:
                fh.write(json.dumps(row) + "\n")


def train(config: TrainConfig, data: TrainData) -> TrainResult:
    """Run `config.steps` Adam steps over minibatches drawn uniformly from every record of `data`.

    Every `eval_every` steps and at the last, scores the nearest-centroid
    accuracy of a fixed evaluation sample of min(EVAL_SIZE, len(data))
    records, drawn with replacement from the records the minibatches draw (it
    is not held out). `best_params` are the parameters of the first evaluation
    that reached the best accuracy, those of step `best_step`; `params` are the
    last step's.
    """
    # glibc's malloc maps each block above its mmap threshold afresh and returns a free heap top above its
    # trim threshold to the system. Both start at 128 KiB and rise only when a mapped block is freed, so
    # unless earlier work in the process happened to free one, every step faults its temporaries in anew
    # (37,000 faults in 600 tabular steps). Freeing one untouched 8 MiB block raises both, to 8 and 16 MiB.
    np.empty(8 << 20, dtype=np.uint8)
    rng = np.random.default_rng(config.seed)
    aux_targets = resolve_aux_targets(config, data)
    model_config = ModelConfig(  # the widths are config's: ModelConfig states no default of its own
        obs_kind=data.obs_kind, obs_shape=data.obs_shape, num_actions=data.num_actions, latent_dim=config.latent_dim,
        aux_dim=aux_targets.shape[1], encoder_hidden=config.encoder_hidden, dynamics_hidden=config.dynamics_hidden,
        aux_hidden=config.aux_hidden, decoder_hidden=config.decoder_hidden)
    params = init_params(model_config, rng)
    state = AdamState()
    eval_idx = rng.integers(0, len(data), size=min(EVAL_SIZE, max(len(data), 1)))
    eval_batch = Batch(obs=data.obs[eval_idx], actions=data.actions[eval_idx], next_obs=data.next_obs[eval_idx],
                       aux_targets=aux_targets[eval_idx])
    eval_labels = data.labels[eval_idx]

    metrics: list[dict] = []
    best_params = params.copy()
    best_acc, best_step = -1.0, 0
    centroid_acc: float | None = None
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(data), size=config.batch_size)
        batch = Batch(
            obs=data.obs[idx],
            actions=data.actions[idx],
            next_obs=data.next_obs[idx],
            aux_targets=aux_targets[idx],
        )
        try:
            report, grads = loss_and_grads(
                params,
                batch,
                c_p=config.c_p,
                dyn_loss_enabled=config.dyn_loss_enabled,
                aux_enabled=config.aux_enabled,
                decoder_enabled=config.decoder_enabled,
                step=step,
            )
        except FloatingPointError as exc:
            raise DivergenceError(f"training diverged at step {step}: {exc}") from exc
        adam_step(params, grads, state, base_lr=config.base_lr)
        if step % config.eval_every == 0 or step == config.steps:
            embs = encode(params, eval_batch.obs)
            centroid_acc = nearest_centroid_accuracy(embs, eval_labels)
            if centroid_acc > best_acc:
                best_acc, best_step = centroid_acc, step
                best_params = params.copy()
        if step % config.report_every == 0 or step == config.steps:
            metrics.append({**asdict(report), "centroid_acc": centroid_acc})
    best_eval, _ = joint_loss(best_params, eval_batch, config.c_p, config.dyn_loss_enabled, config.aux_enabled,
                              decoder_enabled=False, step=best_step)
    return TrainResult(params=params, best_params=best_params, best_centroid_acc=best_acc, best_step=best_step,
                       best_eval=best_eval, metrics=metrics)
