"""The explicit backward and the flat Adam agree bit for bit with the tape
they replaced (tape_oracle.py): losses, gradients, and parameters after
several steps, for every loss-flag combination."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_oracle
from bisimlab import train as train_module
from bisimlab.nn import Batch, ModelConfig, init_params, loss_and_grads
from bisimlab.optim import AdamState, adam_step
from bisimlab.train import TrainConfig, TrainData, model_config_echo, save_checkpoint, train

SETTINGS = settings(max_examples=150, deadline=None)
hidden = st.lists(st.integers(1, 5), max_size=2).map(tuple)


@st.composite
def problems(draw):
    """A small model config, a seed for its weights and batches, a batch
    size, the three loss flags and c_p."""
    kind = draw(st.sampled_from(("onehot", "image")))
    if kind == "onehot":
        obs_shape = (draw(st.integers(1, 6)),)
    else:
        side = draw(st.integers(1, 3))
        obs_shape = (draw(st.integers(1, 2)), side, side)
    config = ModelConfig(
        obs_kind=kind,
        obs_shape=obs_shape,
        num_actions=draw(st.integers(1, 3)),
        latent_dim=draw(st.integers(1, 5)),
        aux_dim=draw(st.integers(1, 3)),
        encoder_hidden=draw(hidden),
        dynamics_hidden=draw(st.integers(1, 5)),
        aux_hidden=draw(st.integers(1, 5)),
        decoder_hidden=draw(hidden),
    )
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    c_p = draw(st.sampled_from((0.0, 0.7, 30.0)))
    return config, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 8)), flags, c_p


def random_batch(config, batch_size, rng):
    if config.obs_kind == "onehot":
        eye = np.eye(config.obs_shape[0])
        obs = eye[rng.integers(0, len(eye), batch_size)]
        next_obs = eye[rng.integers(0, len(eye), batch_size)]
    else:
        obs = rng.random((batch_size, *config.obs_shape))
        next_obs = rng.random((batch_size, *config.obs_shape))
    return Batch(
        obs=obs,
        actions=rng.integers(0, config.num_actions, batch_size),
        next_obs=next_obs,
        aux_targets=rng.standard_normal((batch_size, config.aux_dim)),
    )


def report_bytes(report):
    values = (report.dyn_loss, report.aux_loss, report.total, report.decoder_loss)
    return report.step, np.array(values).tobytes()


def named_bytes(named):
    return {name: np.asarray(a).tobytes() for name, a in named.items()}


def flat_bytes(params, named):
    """The tape's per-name arrays, concatenated in the order of params.flat."""
    return np.concatenate([named[name].ravel() for name, _ in params.named_parameters()]).tobytes()


@SETTINGS
@given(problems())
def test_losses_and_gradients_byte_equal(problem):
    config, seed, batch_size, (dyn, aux, dec), c_p = problem
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    # nonzero biases put the ReLU inputs off the kink at zero as well
    params.flat += rng.normal(scale=0.1, size=params.flat.shape)
    batch = random_batch(config, batch_size, rng)
    report, grads = loss_and_grads(params, batch, c_p, dyn, aux, dec, step=3)
    want_report, want_grads = tape_oracle.loss_and_grads(params, batch, c_p, dyn, aux, dec, step=3)
    assert report_bytes(report) == report_bytes(want_report)
    assert list(grads) == list(want_grads)
    assert named_bytes(grads) == named_bytes(want_grads)


@SETTINGS
@given(problems(), st.integers(1, 4))
def test_adam_trajectory_byte_equal(problem, steps):
    config, seed, batch_size, (dyn, aux, dec), c_p = problem
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    oracle_params = params.copy()
    state, oracle_state = AdamState(), tape_oracle.AdamState()
    for step in range(1, steps + 1):
        batch = random_batch(config, batch_size, rng)
        report, grads = loss_and_grads(params, batch, c_p, dyn, aux, dec, step)
        want_report, want_grads = tape_oracle.loss_and_grads(oracle_params, batch, c_p, dyn, aux, dec, step)
        assert report_bytes(report) == report_bytes(want_report)
        assert named_bytes(grads) == named_bytes(want_grads)
        adam_step(params, grads, state, base_lr=1e-2)
        tape_oracle.adam_step(oracle_params, want_grads, oracle_state, base_lr=1e-2, encoder_lr_scale=0.3)
        assert params.flat.tobytes() == oracle_params.flat.tobytes()
    assert state.m_flat.tobytes() == flat_bytes(params, oracle_state.m)
    assert state.v_flat.tobytes() == flat_bytes(params, oracle_state.v)


def test_blocks_cover_every_parameter(monkeypatch):
    """Small blocks that straddle the encoder boundary change nothing."""
    import bisimlab.optim

    config = ModelConfig(obs_kind="onehot", obs_shape=(7,), num_actions=2, latent_dim=3, aux_dim=1,
                         encoder_hidden=(4,), dynamics_hidden=5, aux_hidden=5, decoder_hidden=())
    rng = np.random.default_rng(1)
    params = init_params(config, rng)
    oracle_params = params.copy()
    monkeypatch.setattr(bisimlab.optim, "BLOCK", 7)
    state, oracle_state = AdamState(), tape_oracle.AdamState()
    for _ in range(3):
        batch = random_batch(config, 5, rng)
        _, grads = loss_and_grads(params, batch)
        _, want = tape_oracle.loss_and_grads(oracle_params, batch)
        adam_step(params, grads, state, base_lr=3e-4)
        tape_oracle.adam_step(oracle_params, want, oracle_state, base_lr=3e-4)
    assert params.flat.tobytes() == oracle_params.flat.tobytes()


def test_non_finite_loss_raises_like_the_tape():
    config = ModelConfig(obs_kind="onehot", obs_shape=(4,), num_actions=2, latent_dim=3, aux_dim=1,
                         encoder_hidden=(), dynamics_hidden=3, aux_hidden=3, decoder_hidden=())
    rng = np.random.default_rng(2)
    params = init_params(config, rng)
    batch = random_batch(config, 3, rng)
    batch.aux_targets[:] = 1e200
    for engine in (loss_and_grads, tape_oracle.loss_and_grads):
        try:
            engine(params, batch, dyn_loss_enabled=False, step=9)
        except FloatingPointError as exc:
            assert "step 9" in str(exc)
        else:
            raise AssertionError("no FloatingPointError")


def image_data(rng, records=40):
    obs = rng.random((records, 1, 5, 5))
    return TrainData(
        obs=obs,
        actions=rng.integers(0, 2, records),
        next_obs=np.roll(obs, 1, axis=0),
        reward_aux=rng.integers(0, 2, (records, 1)).astype(np.float64),
        labels=rng.integers(0, 4, records),
        obs_kind="image",
        num_actions=2,
    )


def tabular_data(rng, n=6):
    eye = np.eye(n)
    sources = np.repeat(np.arange(n), 2)
    actions = np.tile(np.arange(2), n)
    successors = rng.integers(0, n, 2 * n)
    return TrainData(
        obs=eye[sources],
        actions=actions,
        next_obs=eye[successors],
        reward_aux=(sources == 2).astype(np.float64).reshape(-1, 1),
        labels=sources,
        obs_kind="onehot",
        num_actions=2,
    )


def test_train_checkpoint_bytes_equal_the_tape_loop(tmp_path, monkeypatch):
    for kind, data, aux_mode in (("image", image_data(np.random.default_rng(3)), "random:2"),
                                 ("onehot", tabular_data(np.random.default_rng(4)), "reward")):
        config = TrainConfig(steps=25, batch_size=8, latent_dim=4, encoder_hidden=(6, 5), dynamics_hidden=6,
                             aux_hidden=6, decoder_hidden=(6,), eval_every=10, report_every=5,
                             c_p=3.0, base_lr=3e-3, aux_mode=aux_mode, seed=5)
        outputs = []
        for engine in ("explicit", "tape"):
            with monkeypatch.context() as patch:
                if engine == "tape":
                    patch.setattr(train_module, "loss_and_grads", tape_oracle.loss_and_grads)
                    patch.setattr(train_module, "adam_step", tape_oracle.adam_step)
                    patch.setattr(train_module, "AdamState", tape_oracle.AdamState)
                result = train(config, data)
            path = tmp_path / f"{kind}-{engine}.pjpa"
            save_checkpoint(result.best_params, model_config_echo(result.best_params, config), str(path))
            outputs.append((path.read_bytes(), result.params.flat.tobytes(), result.metrics))
        assert outputs[0] == outputs[1], kind
