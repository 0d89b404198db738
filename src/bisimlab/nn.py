"""Encoder, latent dynamics, auxiliary head, and decoder probe.

All components are ReLU MLPs. A model is its ModelConfig plus one flat float64
buffer: `param_shapes(config)` is the only description of the layout
(encoder, dynamics, aux head, decoder probe; per layer W then b), and
ModelParams makes every weight and bias a view into the buffer, so copying the
model or taking an Adam step is one pass over one array. Gradients are a
buffer laid out the same way. `joint_loss` is the forward pass: it keeps each
layer's input and pre-activation, and `loss_and_grads` runs the backward over
them. The decoder probe reconstructs observations from detached latents, so
its loss never reaches the encoder. A .pjpa checkpoint holds a JSON echo of
the configs and the tensors, in `param_shapes` order.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

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
        self._where = {}  # name -> (start, stop, shape), in param_shapes order
        stop = 0
        for name, shape in param_shapes(self.config).items():
            start, stop = stop, stop + math.prod(shape)
            self._where[name] = (start, stop, shape)
        if self.flat.shape != (stop,) or self.flat.dtype != np.float64:
            raise ValueError(f"flat buffer must be float64 of shape ({stop},)")
        self._segments, self._layers, self._weights = {}, {}, {}
        for comp in COMPONENTS:
            spans = [where for name, where in self._where.items() if name.startswith(comp + ".")]
            self._segments[comp] = slice(spans[0][0], spans[-1][1])
            # per layer: where W starts, where W ends and b starts, W's shape, where b ends
            self._layers[comp] = [(w[0], w[1], w[2], b[1]) for w, b in zip(spans[0::2], spans[1::2])]
            self._weights[comp] = self.slots(comp, self.flat)
            setattr(self, comp, [Linear(Param(W), Param(b)) for W, b in self._weights[comp]])
        self._grads = None  # the gradient buffer and its per-component slots, made by loss_and_grads

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
        return {name: flat[start:stop].reshape(shape) for name, (start, stop, shape) in self._where.items()}

    def slots(self, component: str, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) of each layer of one component, as views into a buffer laid out like `flat`."""
        return [(flat[s:m].reshape(shape), flat[m:e]) for s, m, shape, e in self._layers[component]]

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
        self._where = params._where

    def __getitem__(self, name: str) -> np.ndarray:
        start, stop, shape = self._where[name]
        return self.flat[start:stop].reshape(shape)

    def __iter__(self):
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)


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


def _run_mlp(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, cache: list | None) -> np.ndarray:
    """Forward pass over (W, b) pairs; appends each layer's (input, pre-activation) to `cache`."""
    last = len(layers) - 1
    for k, (W, b) in enumerate(layers):
        h = x @ W
        h += b
        if cache is not None:
            cache.append((x, h))
        x = np.maximum(h, 0.0) if k < last else h
    return x


def _backprop(
    layers: list[tuple[np.ndarray, np.ndarray]],
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
            grad *= h > 0.0  # grad is the product formed below, so this writes no caller's array
        gW, gb = out[k]
        if accumulate:
            gW += x.T @ grad
            gb += np.add.reduce(grad, 0)
        else:
            np.matmul(x.T, grad, out=gW)
            np.add.reduce(grad, 0, out=gb)
        if k > 0 or input_grad:
            grad = grad @ layers[k][0].T
    return grad if input_grad else None


def preprocess(obs_batch: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Flatten and, for images, shift pixels from [0, 1] to [-0.5, 0.5]."""
    flat = np.asarray(obs_batch, dtype=np.float64).reshape(obs_batch.shape[0], -1)
    if config.obs_kind == "image":
        flat = flat - 0.5
    return flat


def encode(params: ModelParams, obs_batch: np.ndarray, cache: list | None = None) -> np.ndarray:
    z = _run_mlp(params._weights["encoder"], preprocess(obs_batch, params.config), cache)
    if not np.isfinite(z).all():
        raise FloatingPointError("non-finite encoder output")
    return z


def one_hot_actions(actions: np.ndarray, num_actions: int) -> np.ndarray:
    actions = np.asarray(actions, dtype=np.int64)
    out = np.zeros((len(actions), num_actions))
    out[np.arange(len(actions)), actions] = 1.0
    return out


def predict_next(
    params: ModelParams, z_batch: np.ndarray, action_batch: np.ndarray, cache: list | None = None
) -> np.ndarray:
    a = one_hot_actions(action_batch, params.config.num_actions)
    out = _run_mlp(params._weights["dynamics"], np.concatenate([z_batch, a], axis=1), cache)
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite dynamics output")
    return out


def aux_predict(params: ModelParams, z_batch: np.ndarray, cache: list | None = None) -> np.ndarray:
    return _run_mlp(params._weights["aux_head"], z_batch, cache)


def decode(params: ModelParams, z_batch: np.ndarray, cache: list | None = None) -> np.ndarray:
    return _run_mlp(params._weights["decoder_probe"], z_batch, cache)


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


def _mse(residual: np.ndarray) -> float:
    # what residual**2's .mean() computes, without numpy's Python wrappers
    return float(np.add.reduce(residual * residual, axis=None) / residual.size)


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
) -> tuple[LossReport, tuple]:
    """Joint objective: dynamics consistency + weighted auxiliary regression.

    dyn loss compares T(E(o_t), a_t) to E(o_{t+1}) with gradients into both
    encoder calls (no stop-gradient, no target network). The decoder probe
    trains on detached latents against images normalized to [-1, 1]; its loss
    is optimized alongside but excluded from `total`.

    Also returns what the backward needs: the layer caches of both encoder
    calls, and (residual, layer cache) of the dynamics, aux and decoder losses,
    where a residual is prediction - target and None for an inactive loss.
    """
    enc_t, enc_next, dyn_cache, aux_cache, dec_cache = [], [], [], [], []
    dyn = aux = dec = None
    z_t = encode(params, batch.obs, enc_t)
    dyn_val = aux_val = dec_val = 0.0
    if dyn_loss_enabled:
        z_next = encode(params, batch.next_obs, enc_next)
        dyn = predict_next(params, z_t, batch.actions, dyn_cache) - z_next
        dyn_val = _mse(dyn)
    if aux_enabled:
        aux = aux_predict(params, z_t, aux_cache) - np.asarray(batch.aux_targets, dtype=np.float64)
        aux_val = _mse(aux)
    total = dyn_val + c_p * aux_val if aux_enabled else dyn_val
    objective = total
    if decoder_enabled:
        flat = np.asarray(batch.obs, dtype=np.float64).reshape(batch.obs.shape[0], -1)
        target = flat * 2.0 - 1.0 if params.config.obs_kind == "image" else flat
        dec = decode(params, z_t, dec_cache) - target
        dec_val = _mse(dec)
        objective += dec_val
    if not math.isfinite(objective):
        raise FloatingPointError(f"non-finite loss at step {step}")
    report = LossReport(step=step, dyn_loss=dyn_val, aux_loss=aux_val, total=total, decoder_loss=dec_val)
    return report, (enc_t, enc_next, (dyn, dyn_cache), (aux, aux_cache), (dec, dec_cache))


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
    the decoder probe's detached input.

    The gradients live in one buffer that `params` keeps for this function,
    so a step allocates no gradient buffer and builds no views; the next call
    on the same `params` overwrites them, so copy `grads.flat` to keep them."""
    report, (enc_t, enc_next, (dyn, dyn_cache), (aux, aux_cache), (dec, dec_cache)) = joint_loss(
        params, batch, c_p, dyn_loss_enabled, aux_enabled, decoder_enabled, step)
    if params._grads is None:
        flat = np.empty_like(params.flat)
        params._grads = Gradients(params, flat), {comp: params.slots(comp, flat) for comp in COMPONENTS}
    grads, slots = params._grads
    flat, weights = grads.flat, params._weights
    z_grad = None  # gradient at E(o_t)
    if dyn is not None:
        dyn_grad = _mse_grad(dyn, 1.0)
        z_grad = _backprop(weights["dynamics"], dyn_cache, dyn_grad, slots["dynamics"])
        z_grad = z_grad[:, : params.config.latent_dim]
    else:
        flat[params.segment("dynamics")] = 0.0
    if aux is not None:
        aux_in = _backprop(weights["aux_head"], aux_cache, _mse_grad(aux, c_p), slots["aux_head"])
        z_grad = aux_in if z_grad is None else z_grad + aux_in
    else:
        flat[params.segment("aux_head")] = 0.0
    if dec is not None:
        _backprop(weights["decoder_probe"], dec_cache, _mse_grad(dec, 1.0), slots["decoder_probe"],
                  input_grad=False)
    else:
        flat[params.segment("decoder_probe")] = 0.0
    if z_grad is None:
        flat[params.segment("encoder")] = 0.0
    else:
        enc = slots["encoder"]
        _backprop(weights["encoder"], enc_t, z_grad, enc, input_grad=False)
        if dyn is not None:
            _backprop(weights["encoder"], enc_next, -dyn_grad, enc, accumulate=True, input_grad=False)
    return report, grads


# --- checkpoint file format (.pjpa) ---

CHECKPOINT_MAGIC = b"PJPA"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, config_echo: dict, path: str) -> None:
    blob = json.dumps(config_echo, sort_keys=True).encode()
    named = params.named_parameters()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(named)))
        for name, p in named:
            name_b = name.encode()
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            fh.write(p.data.astype("<f4").tobytes())


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Read a checkpoint. A malformed file (bad magic or version, a truncated
    or unparsable part, tensors that do not fit its model config, trailing
    bytes) raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if pos + size > len(raw):
            raise ValueError(f"{path}: truncated {what}")
        pos += size
        return raw[pos - size : pos]

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    version, blob_len = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    config_echo = json.loads(take(blob_len, "config echo").decode())
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor header"))
        name = take(name_len, "tensor name").decode()
        (ndim,) = struct.unpack("<B", take(1, "tensor header"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor shape"))
        data = take(4 * math.prod(shape), f"tensor {name}")
        tensors[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    names = {f.name for f in fields(ModelConfig)}
    try:
        mc = config_echo["model_config"]
        if set(mc) != names:
            raise KeyError(f"model_config keys {sorted(mc)}, expected {sorted(names)}")
        model_config = ModelConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in mc.items()})
        return ModelParams.from_arrays(model_config, tensors), config_echo
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: bad model config: {exc!r}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _json_fields(config) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()}


def model_config_echo(params: ModelParams, train_config) -> dict:
    """What a checkpoint echoes: its model config and the training config (a dataclass) behind it."""
    return {"model_config": _json_fields(params.config), "train_config": _json_fields(train_config)}
