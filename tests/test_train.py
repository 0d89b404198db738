import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisimlab.counting_env import CountingEnvConfig, collect_dataset
from bisimlab.fixtures import perfect_fit_params
from bisimlab.mdp import counting_abstract_mdp, random_mdp
from bisimlab.presets import PRESET_NAMES, preset_train_config
from bisimlab.train import (
    DivergenceError,
    TrainConfig,
    collected_train_data,
    load_checkpoint,
    model_config_echo,
    random_linear_aux,
    resolve_aux_targets,
    save_checkpoint,
    tabular_train_data,
    train,
)


def small_config(**overrides):
    base = dict(
        steps=60,
        latent_dim=8,
        encoder_hidden=(16,),
        dynamics_hidden=16,
        aux_hidden=16,
        decoder_hidden=(16,),
        batch_size=16,
        eval_every=20,
        report_every=20,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_each_step_calls_loss_and_grads_and_adam_step_once_through_the_module(monkeypatch):
    """Per-step tracing wraps these two module attributes, so train() must
    look them up on bisimlab.train at every step."""
    import bisimlab.train as train_module

    calls = {"loss_and_grads": 0, "adam_step": 0}

    def counting(name):
        original = getattr(train_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(train_module, name, counting(name))
    train(small_config(steps=7, eval_every=3), tabular_train_data(counting_abstract_mdp(4, 2)))
    assert calls == {"loss_and_grads": 7, "adam_step": 7}


def test_tabular_train_data_shapes():
    mdp = counting_abstract_mdp(8, 4)
    data = tabular_train_data(mdp)
    assert len(data) == 18
    assert data.obs.shape == (18, 9)
    # every (state, action) pair present exactly once
    pairs = set(zip(data.labels.tolist(), data.actions.tolist()))
    assert len(pairs) == 18
    # one-hot successors agree with the transition table
    succ = np.argmax(data.next_obs, axis=1)
    assert np.array_equal(succ, mdp.transition[data.labels, data.actions])


def test_training_is_deterministic():
    mdp = counting_abstract_mdp(8, 4)
    data = tabular_train_data(mdp)
    r1 = train(small_config(), data)
    r2 = train(small_config(), data)
    assert r1.metrics == r2.metrics
    for (n1, p1), (n2, p2) in zip(
        r1.params.named_parameters(), r2.params.named_parameters()
    ):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_seed_changes_trajectory():
    data = tabular_train_data(counting_abstract_mdp(8, 4))
    r1 = train(small_config(seed=0), data)
    r2 = train(small_config(seed=1), data)
    assert r1.metrics != r2.metrics


def test_loss_decreases_on_tabular():
    data = tabular_train_data(counting_abstract_mdp(8, 4))
    result = train(small_config(steps=600, base_lr=1e-3), data)
    first, last = result.metrics[0], result.metrics[-1]
    assert last["total"] < first["total"]


def test_metrics_rows_have_expected_keys():
    data = tabular_train_data(counting_abstract_mdp(8, 4))
    result = train(small_config(), data)
    assert {r["step"] for r in result.metrics} == {20, 40, 60}
    for row in result.metrics:
        assert set(row) == {
            "step", "dyn_loss", "aux_loss", "total", "decoder_loss", "centroid_acc",
        }


def test_random_linear_aux_is_frozen_and_scaled():
    a = random_linear_aux(7, 16, (3, 32, 32))
    b = random_linear_aux(7, 16, (3, 32, 32))
    assert np.array_equal(a, b)
    assert a.shape == (3 * 32 * 32, 16)
    # variance of entries is 1/in_dim
    assert a.var() == pytest.approx(1.0 / (3 * 32 * 32), rel=0.1)


def test_resolve_aux_targets_modes():
    data = tabular_train_data(counting_abstract_mdp(8, 4))
    reward = resolve_aux_targets(TrainConfig(aux_mode="reward"), data)
    assert np.array_equal(reward, data.reward_aux)
    rand = resolve_aux_targets(TrainConfig(aux_mode="random:5"), data)
    assert rand.shape == (len(data), 5)
    proj = random_linear_aux(0, 5, data.obs_shape)
    assert np.allclose(rand, data.obs @ proj)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dyn_loss_enabled=False, aux_mode="none")
    with pytest.raises(ValueError):
        TrainConfig(c_p=-1.0)
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(c_p=float("nan"))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    for width in (dict(latent_dim=0), dict(dynamics_hidden=-3), dict(aux_hidden=0),
                  dict(encoder_hidden=(64, 0)), dict(decoder_hidden=(0,))):
        with pytest.raises(ValueError, match=">= 1"):
            TrainConfig(**width)
    TrainConfig(encoder_hidden=(), decoder_hidden=())  # no hidden layer is legal


# what each preset changes from TrainConfig's defaults, written out so that any edit to a preset shows here
PRESET_CHANGES = {
    "tabular_counting": dict(steps=20_000, encoder_hidden=(64,), dynamics_hidden=64, aux_hidden=64,
                             decoder_hidden=(64,)),
    "reward_aux": dict(steps=20_000, c_p=30.0),
    "random_aux": dict(steps=6000, c_p=30.0, aux_mode="random:64"),
    "reward_only": dict(steps=8000, dyn_loss_enabled=False, base_lr=1e-5),
    "dyn_only": dict(steps=3000, aux_mode="none"),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_changes_from_defaults_and_overrides_win(name):
    config, default = preset_train_config(name, 0), TrainConfig(seed=0)
    changed = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)
               if getattr(config, f.name) != getattr(default, f.name)}
    # JSON tells 30 from 30.0, which the checkpoint's config echo would record
    assert json.dumps(changed, sort_keys=True) == json.dumps(PRESET_CHANGES[name], sort_keys=True)
    overridden = preset_train_config(name, 7, steps=3, c_p=0.5, encoder_hidden=(8,))
    assert overridden == dataclasses.replace(config, seed=7, steps=3, c_p=0.5, encoder_hidden=(8,))


def test_preset_names_keep_their_order_and_unknown_names_are_rejected():
    assert PRESET_NAMES == ("tabular_counting", "reward_aux", "random_aux", "reward_only", "dyn_only")
    with pytest.raises(ValueError, match="unknown preset"):
        preset_train_config("bogus", 0)


def test_divergence_raises():
    data = tabular_train_data(counting_abstract_mdp(8, 4))
    with pytest.raises(DivergenceError):
        train(small_config(base_lr=1e120, steps=50), data)


def test_checkpoint_roundtrip(tmp_path):
    mdp = random_mdp(5, 2, 2, np.random.default_rng(3))
    params = perfect_fit_params(mdp)
    echo = model_config_echo(params, TrainConfig(steps=10))
    path = str(tmp_path / "ckpt.pjpa")
    save_checkpoint(params, echo, path)
    loaded, echo_back = load_checkpoint(path)
    assert echo_back == json.loads(json.dumps(echo))
    for (n1, p1), (n2, p2) in zip(
        params.named_parameters(), loaded.named_parameters()
    ):
        assert n1 == n2
        # stored as float32, so compare at that precision
        assert np.allclose(p1.data, p2.data, atol=1e-6)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.pjpa"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))


def test_best_params_tracked():
    data = tabular_train_data(counting_abstract_mdp(8, 4))
    result = train(small_config(steps=1500, base_lr=3e-3, eval_every=100), data)
    assert 0.0 <= result.best_centroid_acc <= 1.0
    final_accs = [r["centroid_acc"] for r in result.metrics if r["centroid_acc"] is not None]
    assert result.best_centroid_acc >= max(final_accs)


@pytest.mark.parametrize("case", ["image", "tabular_counting"])
def test_decoder_probe_leaves_the_model_and_its_outcomes_unchanged(case):
    """The probe trains on detached latents, Adam is element-wise and init_params
    draws the probe's weights either way, so turning it off moves nothing else:
    the criterion-6/7/8 fixtures train without it on that premise."""
    if case == "image":
        env = CountingEnvConfig(max_count=8, target_n=4, image_size=8, channels=1, seed=0)
        data = collected_train_data(collect_dataset(env, steps=200, action_repeat=4))
        config = small_config(steps=60)
    else:
        data = tabular_train_data(counting_abstract_mdp(8, 4))
        config = preset_train_config(case, seed=0, steps=1000)
    on = train(config, data)
    off = train(dataclasses.replace(config, decoder_enabled=False), data)
    for a, b in ((on.params, off.params), (on.best_params, off.best_params)):
        for component in ("encoder", "dynamics", "aux_head"):
            assert np.array_equal(a.flat[a.segment(component)], b.flat[b.segment(component)]), component
    assert on.best_centroid_acc == off.best_centroid_acc
    for key in ("dyn_loss", "aux_loss", "total", "centroid_acc"):
        assert [row[key] for row in on.metrics] == [row[key] for row in off.metrics], key
    assert all(row["decoder_loss"] > 0 for row in on.metrics)
    assert all(row["decoder_loss"] == 0 for row in off.metrics)


def _saved_checkpoint(tmp_path):
    params = perfect_fit_params(random_mdp(5, 2, 2, np.random.default_rng(3)))
    path = tmp_path / "ckpt.pjpa"
    save_checkpoint(params, model_config_echo(params, TrainConfig(steps=10)), str(path))
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncated_checkpoint_raises_value_error(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    raw = _saved_checkpoint(tmp_path)
    length = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path / "cut.pjpa"
    path.write_bytes(raw[:length])
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "long.pjpa"
    path.write_bytes(_saved_checkpoint(tmp_path) + b"\x00")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        load_checkpoint(str(path))


def test_checkpoint_tensors_must_fit_the_config(tmp_path):
    params = perfect_fit_params(random_mdp(5, 2, 2, np.random.default_rng(3)))
    echo = model_config_echo(params, TrainConfig(steps=10))
    echo["model_config"]["latent_dim"] = 6
    path = tmp_path / "mismatch.pjpa"
    save_checkpoint(params, echo, str(path))
    with pytest.raises(ValueError, match="do not match"):
        load_checkpoint(str(path))
    del echo["model_config"]["obs_kind"]
    save_checkpoint(params, echo, str(path))
    with pytest.raises(ValueError, match="bad model config"):
        load_checkpoint(str(path))
