"""Encoder, latent dynamics, auxiliary head, and decoder probe.

All components are ReLU MLPs. A model is its ModelConfig plus one flat float64
buffer: `param_shapes(config)` is the only description of the layout
(encoder, dynamics, aux head, decoder probe; per layer W then b), and
ModelParams makes every weight and bias a view into the buffer, so copying the
model or taking an Adam step is one pass over one array. Gradients are a
buffer laid out the same way. `joint_loss` is the forward pass: it keeps each
layer's input and pre-activation, and `loss_and_grads` runs the backward over
them. The decoder probe reconstructs observations from detached latents, so
its loss never reaches the encoder.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

COMPONENTS = ("encoder", "dynamics", "aux_head", "decoder_probe")


@dataclass
class ModelConfig:
    obs_kind: str  # "onehot" or "image"
    obs_shape: tuple[int, ...]  # (n,) for one-hot, (C, S, S) for images
    num_actions: int
    latent_dim: int = 32
    aux_dim: int = 1
    encoder_hidden: tuple[int, ...] = (128, 64)
    dynamics_hidden: int = 128
    aux_hidden: int = 128
    decoder_hidden: tuple[int, ...] = (128,)

    def __post_init__(self) -> None:
        if self.obs_kind not in ("onehot", "image"):
            raise ValueError(f"unknown obs_kind {self.obs_kind!r}")

    @property
    def obs_dim(self) -> int:
        return int(np.prod(self.obs_shape))


@dataclass
class Param:
    """One weight or bias array; a view into its model's flat buffer."""

    data: np.ndarray


@dataclass
class Linear:
    W: Param
    b: Param


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """name -> shape of every parameter of a model with this config, in the
    order of the flat buffer and of the checkpoint: the components in
    COMPONENTS order, and within each its layers' W then b."""
    d, z = config.obs_dim, config.latent_dim
    widths = {
        "encoder": [d, *config.encoder_hidden, z],
        "dynamics": [z + config.num_actions, config.dynamics_hidden, z],
        "aux_head": [z, config.aux_hidden, config.aux_hidden, config.aux_dim],
        "decoder_probe": [z, *config.decoder_hidden, d],
    }
    shapes = {}
    for comp, dims in widths.items():
        for k in range(len(dims) - 1):
            shapes[f"{comp}.{k}.W"] = (dims[k], dims[k + 1])
            shapes[f"{comp}.{k}.b"] = (dims[k + 1],)
    return shapes


@dataclass
class ModelParams:
    """The four MLPs of `config`. `flat` holds every weight and bias, laid out
    as `param_shapes(config)` lists them, and each layer's `.data` is a view
    into it."""

    config: ModelConfig
    flat: np.ndarray = field(repr=False)
    encoder: list[Linear] = field(init=False, repr=False)
    dynamics: list[Linear] = field(init=False, repr=False)
    aux_head: list[Linear] = field(init=False, repr=False)
    decoder_probe: list[Linear] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._layout = []  # (name, start, stop, shape), in param_shapes order
        stop = 0
        for name, shape in param_shapes(self.config).items():
            start, stop = stop, stop + math.prod(shape)
            self._layout.append((name, start, stop, shape))
        if self.flat.shape != (stop,) or self.flat.dtype != np.float64:
            raise ValueError(f"flat buffer must be float64 of shape ({stop},)")
        views = self.views(self.flat)
        self._segments = {}
        for comp in COMPONENTS:
            spans = [(start, end) for name, start, end, _ in self._layout if name.startswith(comp + ".")]
            self._segments[comp] = slice(spans[0][0], spans[-1][1])
            setattr(self, comp, [Linear(Param(views[f"{comp}.{k}.W"]), Param(views[f"{comp}.{k}.b"]))
                                 for k in range(len(spans) // 2)])

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """A model holding a copy of `arrays`; ValueError unless their names
        and shapes are exactly those of `config`."""
        shapes = param_shapes(config)
        if {name: np.shape(a) for name, a in arrays.items()} != shapes:
            raise ValueError("tensors do not match the model config")
        return cls(config, np.concatenate([np.asarray(arrays[name], dtype=np.float64).ravel() for name in shapes]))

    def named_parameters(self) -> list[tuple[str, Param]]:
        out = []
        for comp in COMPONENTS:
            for k, layer in enumerate(getattr(self, comp)):
                out.append((f"{comp}.{k}.W", layer.W))
                out.append((f"{comp}.{k}.b", layer.b))
        return out

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """name -> that parameter's view into a buffer laid out like `flat`."""
        return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in self._layout}

    def segment(self, component: str) -> slice:
        """Where one component's parameters sit in `flat`."""
        return self._segments[component]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())


class Gradients(Mapping):
    """{parameter name: gradient}, read-only; each gradient is a view into
    `flat`, which is laid out like its model's `flat`."""

    def __init__(self, params: ModelParams, flat: np.ndarray):
        self.flat = flat
        self._views = params.views(flat)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, drawn layer by layer in param_shapes order, and zero biases."""
    arrays = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".W"):
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        else:
            arrays[name] = np.zeros(shape)
    return ModelParams.from_arrays(config, arrays)


def _run_mlp(layers: list[Linear], x: np.ndarray, cache: list | None) -> np.ndarray:
    """Forward pass; appends each layer's (input, pre-activation) to `cache`."""
    last = len(layers) - 1
    for k, layer in enumerate(layers):
        h = x @ layer.W.data + layer.b.data
        if cache is not None:
            cache.append((x, h))
        x = np.maximum(h, 0.0) if k < last else h
    return x


def _backprop(
    layers: list[Linear],
    cache: list,
    grad: np.ndarray,
    out: list[tuple[np.ndarray, np.ndarray]],
    accumulate: bool = False,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backward pass of one `_run_mlp` call, given the gradient at its output.

    Writes (or, with `accumulate`, adds) each layer's weight and bias
    gradient into `out[k]`, and returns the gradient at the input, which is
    computed only when `input_grad` asks for it. The expressions and their
    order are those of the reference tape in tests/tape_oracle.py, so the
    gradients are bit-identical to it.
    """
    last = len(layers) - 1
    for k in range(last, -1, -1):
        x, h = cache[k]
        if k < last:
            grad = grad * (h > 0.0)
        gW, gb = out[k]
        if accumulate:
            gW += x.T @ grad
            gb += grad.sum(axis=0)
        else:
            np.matmul(x.T, grad, out=gW)
            np.sum(grad, axis=0, out=gb)
        if k > 0 or input_grad:
            grad = grad @ layers[k].W.data.T
    return grad if input_grad else None


def preprocess(obs_batch: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Flatten and, for images, shift pixels from [0, 1] to [-0.5, 0.5]."""
    flat = np.asarray(obs_batch, dtype=np.float64).reshape(obs_batch.shape[0], -1)
    if config.obs_kind == "image":
        flat = flat - 0.5
    return flat


def encode(params: ModelParams, obs_batch: np.ndarray, cache: list | None = None) -> np.ndarray:
    z = _run_mlp(params.encoder, preprocess(obs_batch, params.config), cache)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite encoder output")
    return z


def one_hot_actions(actions: np.ndarray, num_actions: int) -> np.ndarray:
    eye = np.eye(num_actions)
    return eye[np.asarray(actions, dtype=np.int64)]


def predict_next(
    params: ModelParams, z_batch: np.ndarray, action_batch: np.ndarray, cache: list | None = None
) -> np.ndarray:
    a = one_hot_actions(action_batch, params.config.num_actions)
    out = _run_mlp(params.dynamics, np.concatenate([z_batch, a], axis=1), cache)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite dynamics output")
    return out


def aux_predict(params: ModelParams, z_batch: np.ndarray, cache: list | None = None) -> np.ndarray:
    return _run_mlp(params.aux_head, z_batch, cache)


def decode(params: ModelParams, z_batch: np.ndarray, cache: list | None = None) -> np.ndarray:
    return _run_mlp(params.decoder_probe, z_batch, cache)


@dataclass
class Batch:
    obs: np.ndarray  # [B, ...obs_shape]
    actions: np.ndarray  # int [B]
    next_obs: np.ndarray  # [B, ...obs_shape]
    aux_targets: np.ndarray  # [B, aux_dim]


@dataclass
class LossReport:
    step: int
    dyn_loss: float
    aux_loss: float
    total: float
    decoder_loss: float


@dataclass
class Forward:
    """What the backward needs from one joint_loss call: the layer caches of
    each MLP call, and each active loss's residual (prediction - target)."""

    encoder_t: list = field(default_factory=list)
    encoder_next: list = field(default_factory=list)
    dynamics: list = field(default_factory=list)
    aux_head: list = field(default_factory=list)
    decoder_probe: list = field(default_factory=list)
    dyn_residual: np.ndarray | None = None
    aux_residual: np.ndarray | None = None
    dec_residual: np.ndarray | None = None


def _mse(residual: np.ndarray) -> float:
    return float((residual * residual).mean())


def _mse_grad(residual: np.ndarray, weight: float) -> np.ndarray:
    """Gradient of weight * mean(residual**2) with respect to the prediction,
    formed as the reference tape forms it (d(r*r) = g*r + g*r)."""
    half = residual * (weight / residual.size)
    return half + half


def joint_loss(
    params: ModelParams,
    batch: Batch,
    c_p: float = 1.0,
    dyn_loss_enabled: bool = True,
    aux_enabled: bool = True,
    decoder_enabled: bool = True,
    step: int = 0,
) -> tuple[LossReport, Forward]:
    """Joint objective: dynamics consistency + weighted auxiliary regression.

    dyn loss compares T(E(o_t), a_t) to E(o_{t+1}) with gradients into both
    encoder calls (no stop-gradient, no target network). The decoder probe
    trains on detached latents against images normalized to [-1, 1]; its loss
    is optimized alongside but excluded from `total`.
    """
    fwd = Forward()
    z_t = encode(params, batch.obs, fwd.encoder_t)
    objective = 0.0
    dyn_val = 0.0
    aux_val = 0.0
    if dyn_loss_enabled:
        z_next = encode(params, batch.next_obs, fwd.encoder_next)
        z_hat = predict_next(params, z_t, batch.actions, fwd.dynamics)
        fwd.dyn_residual = z_hat - z_next
        dyn_val = _mse(fwd.dyn_residual)
        objective += dyn_val
    if aux_enabled:
        target = np.asarray(batch.aux_targets, dtype=np.float64)
        fwd.aux_residual = aux_predict(params, z_t, fwd.aux_head) - target
        aux_val = _mse(fwd.aux_residual)
        objective += c_p * aux_val
    total = dyn_val + c_p * aux_val if aux_enabled else dyn_val
    dec_val = 0.0
    if decoder_enabled:
        flat = np.asarray(batch.obs, dtype=np.float64).reshape(batch.obs.shape[0], -1)
        target = flat * 2.0 - 1.0 if params.config.obs_kind == "image" else flat
        fwd.dec_residual = decode(params, z_t, fwd.decoder_probe) - target
        dec_val = _mse(fwd.dec_residual)
        objective += dec_val
    if not np.isfinite(objective):
        raise FloatingPointError(f"non-finite loss at step {step}")
    report = LossReport(step=step, dyn_loss=dyn_val, aux_loss=aux_val, total=total, decoder_loss=dec_val)
    return report, fwd


def loss_and_grads(
    params: ModelParams,
    batch: Batch,
    c_p: float = 1.0,
    dyn_loss_enabled: bool = True,
    aux_enabled: bool = True,
    decoder_enabled: bool = True,
    step: int = 0,
) -> tuple[LossReport, Gradients]:
    """The joint loss and its gradient for every parameter (zero where no
    active loss reaches). No gradient is formed for the observations or for
    the decoder probe's detached input."""
    report, fwd = joint_loss(params, batch, c_p, dyn_loss_enabled, aux_enabled, decoder_enabled, step)
    flat = np.empty_like(params.flat)
    grads = Gradients(params, flat)

    def slots(comp: str) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(grads[f"{comp}.{k}.W"], grads[f"{comp}.{k}.b"]) for k in range(len(getattr(params, comp)))]

    def skip(comp: str) -> None:
        flat[params.segment(comp)] = 0.0

    z_grad = None  # gradient at E(o_t)
    if fwd.dyn_residual is not None:
        dyn_grad = _mse_grad(fwd.dyn_residual, 1.0)
        z_grad = _backprop(params.dynamics, fwd.dynamics, dyn_grad, slots("dynamics"))[:, : params.config.latent_dim]
    else:
        skip("dynamics")
    if fwd.aux_residual is not None:
        aux_in = _backprop(params.aux_head, fwd.aux_head, _mse_grad(fwd.aux_residual, c_p), slots("aux_head"))
        z_grad = aux_in if z_grad is None else z_grad + aux_in
    else:
        skip("aux_head")
    if fwd.dec_residual is not None:
        _backprop(params.decoder_probe, fwd.decoder_probe, _mse_grad(fwd.dec_residual, 1.0),
                  slots("decoder_probe"), input_grad=False)
    else:
        skip("decoder_probe")
    if z_grad is None:
        skip("encoder")
    else:
        enc = slots("encoder")
        _backprop(params.encoder, fwd.encoder_t, z_grad, enc, input_grad=False)
        if fwd.dyn_residual is not None:
            _backprop(params.encoder, fwd.encoder_next, -dyn_grad, enc, accumulate=True, input_grad=False)
    return report, grads
