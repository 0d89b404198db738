"""Experiment presets wiring environments, data collection, and training.

A preset is what it changes from TrainConfig's defaults; explicit overrides
win. The reward_aux preset weights the auxiliary loss heavily (c_p 30);
lighter weights let the dynamics loss collapse the encoder before the reward
signal anchors it. The reward_only preset drops the base learning rate to
1e-5, which is what keeps that configuration from diverging.

The CLI reads PRESET_NAMES and collect's defaults (IMAGE_COLLECT_STEPS,
IMAGE_ACTION_REPEAT) to build its parser, so this module imports only the
package's lazily registered modules, and never numpy itself.
"""

from __future__ import annotations

from bisimlab import counting_env, mdp, train as training

PRESETS = {
    "tabular_counting": dict(steps=20_000, encoder_hidden=(64,), dynamics_hidden=64, aux_hidden=64,
                             decoder_hidden=(64,)),
    "reward_aux": dict(steps=20_000, c_p=30.0),
    "random_aux": dict(steps=6000, c_p=30.0, aux_mode="random:64"),
    "reward_only": dict(steps=8000, dyn_loss_enabled=False, base_lr=1e-5),
    "dyn_only": dict(steps=3000, aux_mode="none"),
}
PRESET_NAMES = tuple(PRESETS)

IMAGE_COLLECT_STEPS = 6000
IMAGE_ACTION_REPEAT = 4


def preset_train_config(name: str, seed: int, **overrides) -> training.TrainConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return training.TrainConfig(**{**PRESETS[name], "seed": seed, **overrides})


def preset_data(name: str, seed: int) -> training.TrainData:
    """Materialize the data a preset trains on (tabular tables or rollouts)."""
    if name == "tabular_counting":
        return training.tabular_train_data(mdp.counting_abstract_mdp(8, 4))
    env = counting_env.CountingEnvConfig(seed=seed)  # the image presets collect at its defaults
    collected = counting_env.collect_dataset(env, steps=IMAGE_COLLECT_STEPS, action_repeat=IMAGE_ACTION_REPEAT)
    return training.collected_train_data(collected)
