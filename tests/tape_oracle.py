"""The reverse-mode tape that trained the model before the explicit backward
in bisimlab.nn, kept as the reference the explicit engine must match bit for
bit: the Tensor type, the joint loss built on it, and the per-array Adam step.

`loss_and_grads` and `adam_step` take and update a bisimlab.nn.ModelParams
in place, like the functions they stand in for. The tape's Adam keeps its
moments per parameter name, in its own AdamState.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from bisimlab.nn import Batch, LossReport, ModelParams, one_hot_actions


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other, requires_grad=False)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, parents=(self,))
        out._backward = lambda grad: (-grad,)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data @ other.data, parents=(self, other))

        def backward(grad):
            return (grad @ other.data.T, self.data.T @ grad)

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0), parents=(self,))
        out._backward = lambda grad: (grad * (self.data > 0.0),)
        return out

    def square(self) -> "Tensor":
        return self * self

    def mean(self) -> "Tensor":
        out = Tensor(self.data.mean(), parents=(self,))
        out._backward = lambda grad: (np.full(self.shape, grad / self.data.size),)
        return out

    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), parents=(self,))
        out._backward = lambda grad: (np.full(self.shape, grad),)
        return out

    def detach(self) -> "Tensor":
        """Gradient barrier: same values, no tape edge back to self."""
        return Tensor(self.data.copy(), requires_grad=False)

    def backward(self) -> None:
        """Accumulate gradients of a scalar output into every parent's .grad."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = grad if node.grad is None else node.grad + grad
            if node._backward is None:
                continue
            for parent, pgrad in zip(node._parents, node._backward(grad)):
                key = id(parent)
                grads[key] = pgrad if key not in grads else grads[key] + pgrad


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, splits, axis=axis))

    out._backward = backward
    return out


def mse(a: Tensor, b: Tensor) -> Tensor:
    return (a - b).square().mean()


# --- the joint loss on the tape ---


def _run_mlp(leaves: dict[str, Tensor], comp: str, num_layers: int, x: Tensor) -> Tensor:
    for k in range(num_layers):
        x = x @ leaves[f"{comp}.{k}.W"] + leaves[f"{comp}.{k}.b"]
        if k + 1 < num_layers:
            x = x.relu()
    return x


def joint_loss(
    params: ModelParams,
    leaves: dict[str, Tensor],
    batch: Batch,
    c_p: float = 1.0,
    dyn_loss_enabled: bool = True,
    aux_enabled: bool = True,
    decoder_enabled: bool = True,
    step: int = 0,
) -> tuple[LossReport, Tensor]:
    config = params.config

    def mlp(comp: str, x: Tensor) -> Tensor:
        return _run_mlp(leaves, comp, len(getattr(params, comp)), x)

    def encode(obs: np.ndarray) -> Tensor:
        flat = np.asarray(obs, dtype=np.float64).reshape(obs.shape[0], -1)
        if config.obs_kind == "image":
            flat = flat - 0.5
        z = mlp("encoder", Tensor(flat, requires_grad=False))
        if not np.all(np.isfinite(z.data)):
            raise FloatingPointError("non-finite encoder output")
        return z

    z_t = encode(batch.obs)
    objective = Tensor(0.0, requires_grad=False)
    dyn_val = 0.0
    aux_val = 0.0
    if dyn_loss_enabled:
        z_next = encode(batch.next_obs)
        a = Tensor(one_hot_actions(batch.actions, config.num_actions), requires_grad=False)
        z_hat = mlp("dynamics", concat([z_t, a], axis=1))
        if not np.all(np.isfinite(z_hat.data)):
            raise FloatingPointError("non-finite dynamics output")
        dyn = mse(z_hat, z_next)
        dyn_val = float(dyn.data)
        objective = objective + dyn
    if aux_enabled:
        aux = mse(mlp("aux_head", z_t), Tensor(batch.aux_targets, requires_grad=False))
        aux_val = float(aux.data)
        objective = objective + c_p * aux
    total = dyn_val + c_p * aux_val if aux_enabled else dyn_val
    dec_val = 0.0
    if decoder_enabled:
        flat = np.asarray(batch.obs, dtype=np.float64).reshape(batch.obs.shape[0], -1)
        target = flat * 2.0 - 1.0 if config.obs_kind == "image" else flat
        dec = mse(mlp("decoder_probe", z_t.detach()), Tensor(target, requires_grad=False))
        dec_val = float(dec.data)
        objective = objective + dec
    if not np.isfinite(float(objective.data)):
        raise FloatingPointError(f"non-finite loss at step {step}")
    report = LossReport(step=step, dyn_loss=dyn_val, aux_loss=aux_val, total=total, decoder_loss=dec_val)
    return report, objective


def loss_and_grads(
    params: ModelParams,
    batch: Batch,
    c_p: float = 1.0,
    dyn_loss_enabled: bool = True,
    aux_enabled: bool = True,
    decoder_enabled: bool = True,
    step: int = 0,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    # a leaf over each live parameter array (Tensor() does not copy float64)
    leaves = {name: Tensor(p.data) for name, p in params.named_parameters()}
    report, objective = joint_loss(
        params, leaves, batch, c_p, dyn_loss_enabled, aux_enabled, decoder_enabled, step
    )
    objective.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data)) for name, t in leaves.items()}
    return report, grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    base_lr: float = 3e-4,
    encoder_lr_scale: float = 0.3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, one parameter array at a time."""
    state.t += 1
    t = state.t
    for name, p in params.named_parameters():
        g = grads.get(name)
        if g is None:
            continue
        lr = base_lr * encoder_lr_scale if name.startswith("encoder.") else base_lr
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
