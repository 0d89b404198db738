import numpy as np
import pytest

from tape_oracle import Tensor, concat, mse


def finite_diff(fn, x, h=1e-6):
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for k in range(flat_x.size):
        old = flat_x[k]
        flat_x[k] = old + h
        up = fn()
        flat_x[k] = old - h
        dn = fn()
        flat_x[k] = old
        flat_g[k] = (up - dn) / (2 * h)
    return g


@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: (a + b).sum(),
        lambda a, b: (a - b).sum(),
        lambda a, b: (a * b).mean(),
        lambda a, b: ((a * b) + a).square().mean(),
    ],
)
def test_elementwise_grads_match_fd(build):
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)))
    out = build(a, b)
    out.backward()
    ga, gb = a.grad, b.grad

    def value():
        return float(build(Tensor(a.data), Tensor(b.data)).data)

    if ga is not None:
        assert np.allclose(ga, finite_diff(value, a.data), atol=1e-6)
    if gb is not None:
        assert np.allclose(gb, finite_diff(value, b.data), atol=1e-6)


def test_matmul_grad():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((4, 2)))
    (a @ w).square().mean().backward()

    def value():
        return float((Tensor(a.data) @ Tensor(w.data)).square().mean().data)

    assert np.allclose(a.grad, finite_diff(value, a.data), atol=1e-5)
    assert np.allclose(w.grad, finite_diff(value, w.data), atol=1e-5)


def test_bias_broadcast_grad():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=False)
    b = Tensor(rng.standard_normal(3))
    (x + b).square().mean().backward()
    assert b.grad.shape == (3,)

    def value():
        return float((Tensor(x.data) + Tensor(b.data)).square().mean().data)

    assert np.allclose(b.grad, finite_diff(value, b.data), atol=1e-6)


def test_relu_grad():
    x = Tensor(np.array([[-2.0, -0.5, 0.5, 2.0]]))
    x.relu().sum().backward()
    assert np.array_equal(x.grad, np.array([[0.0, 0.0, 1.0, 1.0]]))


def test_concat_grad_splits():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 2)))
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * np.arange(5.0)).sum().backward()
    assert np.array_equal(a.grad, np.tile(np.arange(3.0), (2, 1)))
    assert np.array_equal(b.grad, np.tile(np.arange(3.0, 5.0), (2, 1)))


def test_detach_blocks_gradient():
    x = Tensor(np.ones((2, 2)))
    y = (x * 3.0).detach()
    (y * 2.0).sum().backward()
    assert x.grad is None


def test_reused_node_accumulates():
    x = Tensor(np.array([2.0]))
    y = x * x  # x used twice
    y.sum().backward()
    assert np.allclose(x.grad, [4.0])


def test_mse_value_and_grad():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[0.0, 0.0]]), requires_grad=False)
    loss = mse(a, b)
    assert float(loss.data) == pytest.approx(2.5)
    loss.backward()
    assert np.allclose(a.grad, [[1.0, 2.0]])


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 2))).backward()


def test_nonscalar_chain_matches_fd():
    rng = np.random.default_rng(3)
    w1 = Tensor(rng.standard_normal((4, 5)))
    w2 = Tensor(rng.standard_normal((5, 2)))
    x = rng.standard_normal((3, 4))

    def forward(a, b):
        h = (Tensor(x, requires_grad=False) @ a).relu()
        return (h @ b).square().mean()

    forward(w1, w2).backward()

    def value():
        return float(forward(Tensor(w1.data), Tensor(w2.data)).data)

    assert np.allclose(w1.grad, finite_diff(value, w1.data), atol=1e-5)
    assert np.allclose(w2.grad, finite_diff(value, w2.data), atol=1e-5)
