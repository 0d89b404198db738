import numpy as np
import pytest

from bisimlab.nn import ModelConfig, ModelParams, init_params
from bisimlab.optim import ENCODER_LR_SCALE, EPS, AdamState, adam_step


def make_params():
    cfg = ModelConfig(obs_kind="onehot", obs_shape=(4,), num_actions=2,
                      latent_dim=3, encoder_hidden=(), dynamics_hidden=4,
                      aux_hidden=4, decoder_hidden=())
    return init_params(cfg, np.random.default_rng(0))


def constant_grads(params, value):
    return ModelParams(params.config, np.full_like(params.flat, value))


def test_zero_gradient_leaves_params_unchanged():
    params = make_params()
    before = {n: p.data.copy() for n, p in params.named_parameters()}
    grads = constant_grads(params, 0.0)
    state = AdamState()
    adam_step(params, grads, state, base_lr=3e-4)
    for n, p in params.named_parameters():
        assert np.array_equal(p.data, before[n])


def test_single_step_closed_form():
    # from m = v = 0 with g = 1: m_hat = 1, v_hat = 1, update = -lr / (1 + eps), lr scaled for the encoder
    params = make_params()
    lr = 3e-4
    before = {n: p.data.copy() for n, p in params.named_parameters()}
    grads = constant_grads(params, 1.0)
    adam_step(params, grads, AdamState(), base_lr=lr)
    for n, p in params.named_parameters():
        scale = ENCODER_LR_SCALE if n.startswith("encoder.") else 1.0
        assert np.allclose(p.data - before[n], -lr * scale / (1.0 + EPS))


def test_encoder_rate_scaling():
    params = make_params()
    before = {n: p.data.copy() for n, p in params.named_parameters()}
    grads = constant_grads(params, 1.0)
    adam_step(params, grads, AdamState(), base_lr=1e-3)
    deltas = {n: p.data - before[n] for n, p in params.named_parameters()}
    enc = deltas["encoder.0.W"].reshape(-1)[0]
    head = deltas["aux_head.0.W"].reshape(-1)[0]
    assert enc / head == pytest.approx(0.3)


def test_moments_decay_under_zero_grad():
    params = make_params()
    grads = constant_grads(params, 1.0)
    state = AdamState()
    adam_step(params, grads, state, base_lr=3e-4)
    m_after_one = state.m_flat.copy()
    adam_step(params, constant_grads(params, 0.0), state, base_lr=3e-4)
    assert np.allclose(state.m_flat, 0.9 * m_after_one)


def test_convergence_on_quadratic():
    # sanity: Adam drives a single weight matrix to a target
    params = make_params()
    state = AdamState()
    target = np.ones_like(params.encoder[0].W.data)
    for _ in range(3000):
        g = constant_grads(params, 0.0)
        g["encoder.0.W"][...] = 2.0 * (params.encoder[0].W.data - target)
        adam_step(params, g, state, base_lr=1e-2)
    assert np.allclose(params.encoder[0].W.data, target, atol=1e-4)


def test_moments_are_views_into_flat_buffers():
    params = make_params()
    state = AdamState()
    adam_step(params, constant_grads(params, 1.0), state, base_lr=3e-4)
    m = ModelParams(params.config, state.m_flat)
    assert list(m) == [n for n, _ in params.named_parameters()]
    assert all(np.shares_memory(a, state.m_flat) for a in m.values())
    assert state.v_flat.shape == params.flat.shape
