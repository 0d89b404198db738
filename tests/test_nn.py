import numpy as np
import pytest

from bisimlab.fixtures import one_hot_observations, perfect_fit_params
from bisimlab.mdp import counting_abstract_mdp, random_mdp
from bisimlab.nn import (
    COMPONENTS,
    Batch,
    ModelConfig,
    ModelParams,
    aux_predict,
    encode,
    init_params,
    joint_loss,
    loss_and_grads,
    param_shapes,
    predict_next,
)


def tiny_config(latent_dim=8):
    return ModelConfig(
        obs_kind="image",
        obs_shape=(1, 4, 4),
        num_actions=2,
        latent_dim=latent_dim,
        aux_dim=1,
        encoder_hidden=(6,),
        dynamics_hidden=6,
        aux_hidden=6,
        decoder_hidden=(6,),
    )


def tiny_batch(rng, n=4):
    return Batch(
        obs=rng.random((n, 1, 4, 4)),
        actions=rng.integers(0, 2, n),
        next_obs=rng.random((n, 1, 4, 4)),
        aux_targets=rng.random((n, 1)),
    )


def fd_objective_grads(params, batch, c_p=1.0, dyn=True, aux=True, h=1e-5):
    """Central finite differences of the joint loss over every parameter."""
    out = {}
    for name, p in params.named_parameters():
        g = np.zeros_like(p.data)
        flat, gflat = p.data.reshape(-1), g.reshape(-1)
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + h
            up, _ = joint_loss(params, batch, c_p, dyn, aux, decoder_enabled=False)
            flat[k] = old - h
            dn, _ = joint_loss(params, batch, c_p, dyn, aux, decoder_enabled=False)
            flat[k] = old
            gflat[k] = (up.total - dn.total) / (2 * h)
        out[name] = g
    return out


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def test_zero_weights_give_zero_latents():
    params = init_params(tiny_config(), np.random.default_rng(0))
    for layer in params.encoder:
        layer.W.data[:] = 0.0
        layer.b.data[:] = 0.0
    z = encode(params, np.random.default_rng(1).random((3, 1, 4, 4)))
    assert np.all(z == 0.0)


def test_identical_observations_identical_rows():
    params = init_params(tiny_config(), np.random.default_rng(0))
    obs = np.tile(np.random.default_rng(2).random((1, 1, 4, 4)), (2, 1, 1, 1))
    z = encode(params, obs)
    assert np.array_equal(z[0], z[1])
    zn = predict_next(params, z, np.array([1, 1]))
    assert np.array_equal(zn[0], zn[1])


def test_image_preprocessing_shift():
    cfg = ModelConfig(obs_kind="image", obs_shape=(1, 4, 4), num_actions=2, latent_dim=3, aux_dim=1,
                      encoder_hidden=(), dynamics_hidden=128, aux_hidden=128, decoder_hidden=(128,))
    params = init_params(cfg, np.random.default_rng(0))
    obs = np.random.default_rng(1).random((2, 1, 4, 4))
    z = encode(params, obs)
    expected = (obs.reshape(2, -1) - 0.5) @ params.encoder[0].W.data + params.encoder[0].b.data
    assert np.allclose(z, expected)
    # one-hot inputs pass through unshifted
    cfg1 = ModelConfig(obs_kind="onehot", obs_shape=(5,), num_actions=2, latent_dim=3, aux_dim=1,
                       encoder_hidden=(), dynamics_hidden=128, aux_hidden=128, decoder_hidden=(128,))
    p1 = init_params(cfg1, np.random.default_rng(0))
    onehot = np.eye(5)[:2]
    assert np.allclose(encode(p1, onehot), onehot @ p1.encoder[0].W.data + p1.encoder[0].b.data)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    params = init_params(tiny_config(), rng)
    batch = tiny_batch(rng)
    _, grads = loss_and_grads(params, batch, decoder_enabled=False)
    fd = fd_objective_grads(params, batch)
    for name in fd:
        assert max_rel_err(grads[name], fd[name]) < 1e-3, name


def test_loss_composition():
    rng = np.random.default_rng(4)
    params = init_params(tiny_config(), rng)
    batch = tiny_batch(rng)
    for c_p in (0.0, 1.0, 7.5):
        report, _ = joint_loss(params, batch, c_p=c_p)
        assert report.total == pytest.approx(report.dyn_loss + c_p * report.aux_loss, abs=1e-9)
    report, _ = joint_loss(params, batch, c_p=0.0)
    assert report.total == pytest.approx(report.dyn_loss, abs=1e-12)


def test_decoder_barrier_no_leak():
    # with dyn/aux losses disabled, encoder gradients must be exactly zero
    rng = np.random.default_rng(5)
    params = init_params(tiny_config(), rng)
    batch = tiny_batch(rng)
    # aux residual is forced to zero by targeting the current predictions,
    # so any encoder gradient could only come from the decoder path
    z = encode(params, batch.obs)
    batch_fit = Batch(batch.obs, batch.actions, batch.next_obs, aux_predict(params, z))
    report, grads = loss_and_grads(
        params, batch_fit, dyn_loss_enabled=False, aux_enabled=True, decoder_enabled=True
    )
    assert report.decoder_loss > 0.0
    for name, g in grads.items():
        if name.startswith("encoder."):
            assert np.all(g == 0.0), name


def test_decoder_loss_nonzero_and_reported():
    rng = np.random.default_rng(6)
    params = init_params(tiny_config(), rng)
    report, _ = joint_loss(params, tiny_batch(rng))
    assert report.decoder_loss > 0.0
    assert report.total == pytest.approx(report.dyn_loss + report.aux_loss, abs=1e-9)


def test_non_finite_loss_raises():
    rng = np.random.default_rng(7)
    params = init_params(tiny_config(), rng)
    params.encoder[0].W.data[:] = 1e200
    with pytest.raises(FloatingPointError):
        joint_loss(params, tiny_batch(rng))


def test_perfect_fit_fixture_zero_losses():
    m = counting_abstract_mdp(8, 4)
    params = perfect_fit_params(m)
    obs = one_hot_observations(m)
    for a in range(2):
        batch = Batch(
            obs=obs,
            actions=np.full(9, a),
            next_obs=obs[m.transition[:, a]],
            aux_targets=m.aux,
        )
        report, _ = joint_loss(params, batch, decoder_enabled=False)
        assert report.dyn_loss == 0.0
        assert report.aux_loss == 0.0


def test_perfect_fit_fixture_random_mdp():
    m = random_mdp(7, 3, 2, np.random.default_rng(8))
    params = perfect_fit_params(m)
    obs = one_hot_observations(m)
    z = encode(params, obs)
    for a in range(3):
        zn = predict_next(params, z, np.full(7, a))
        assert np.allclose(zn, np.eye(7)[m.transition[:, a]])
    assert np.allclose(aux_predict(params, z), m.aux)


def test_params_are_views_into_one_flat_buffer():
    params = init_params(tiny_config(), np.random.default_rng(0))
    shapes = param_shapes(params.config)
    assert list(params) == list(shapes) and len(params) == len(shapes)
    for name, shape in shapes.items():
        assert params[name].shape == shape and np.shares_memory(params[name], params.flat)
    # the components tile the buffer in COMPONENTS order
    segments = [params.segment(comp) for comp in COMPONENTS]
    assert [s.start for s in segments] == [0] + [s.stop for s in segments[:-1]]
    assert segments[-1].stop == params.flat.size
    _, grads = loss_and_grads(params, tiny_batch(np.random.default_rng(1)))
    assert list(grads) == list(shapes) and grads.segment("encoder") == params.segment("encoder")
    assert all(np.shares_memory(grads[name], grads.flat) for name in shapes)
    assert not np.shares_memory(grads.flat, params.flat)
    named = params.named_parameters()
    assert sum(p.data.size for _, p in named) == params.flat.size
    assert all(np.shares_memory(p.data, params.flat) for _, p in named)
    encoder = params.segment("encoder")
    assert encoder.start == 0
    assert encoder.stop == sum(layer.W.data.size + layer.b.data.size for layer in params.encoder)
    twin = params.copy()
    assert not np.shares_memory(twin.flat, params.flat)
    twin.encoder[0].W.data[0, 0] += 1.0
    assert twin.flat[0] == params.flat[0] + 1.0
    assert np.array_equal(twin.flat[1:], params.flat[1:])


def test_model_params_reject_a_buffer_of_another_size_or_dtype():
    config = tiny_config()
    size = init_params(config, np.random.default_rng(0)).flat.size
    ModelParams(config, np.zeros(size))
    for flat in (np.zeros(size - 1), np.zeros(size, dtype=np.float32)):
        with pytest.raises(ValueError, match=f"float64 of shape \\({size},\\)"):
            ModelParams(config, flat)


def test_each_call_rewrites_the_whole_gradient_buffer():
    """loss_and_grads reuses one gradient buffer per model: a call must not
    see what an earlier call with other loss flags or another batch left."""
    rng = np.random.default_rng(9)
    params = init_params(tiny_config(), rng)
    flags = [(True, True, True), (False, True, False), (True, False, True), (True, True, False)]
    for dyn, aux, dec in flags + flags[::-1]:
        batch = tiny_batch(rng)
        _, grads = loss_and_grads(params, batch, 0.7, dyn, aux, dec)
        _, want = loss_and_grads(params.copy(), batch, 0.7, dyn, aux, dec)
        assert grads.flat.tobytes() == want.flat.tobytes()
    assert loss_and_grads(params, batch)[1] is grads  # the same buffer, rewritten
