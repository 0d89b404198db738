"""Experiment presets wiring environments, data collection, and training.

A preset is what it changes from TrainConfig's defaults; explicit overrides
win. The reward_aux preset weights the auxiliary loss heavily (c_p 30);
lighter weights let the dynamics loss collapse the encoder before the reward
signal anchors it. The reward_only preset drops the base learning rate to
1e-5, which is what keeps that configuration from diverging.

The CLI reads PRESET_NAMES to build its parser, so this module imports numpy
only where it draws data.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class PresetData:
    train_data: training.TrainData
    mdp: mdp.DeterministicMDP
    collected: counting_env.CollectedData | None = None


def preset_data(name: str, seed: int, collect_steps: int | None = None) -> PresetData:
    """Materialize the data a preset trains on (tabular tables or rollouts)."""
    import numpy as np

    abstract = mdp.counting_abstract_mdp(8, 4)
    if name == "tabular_counting":
        return PresetData(train_data=training.tabular_train_data(abstract), mdp=abstract)
    env = counting_env.CountingEnvConfig(seed=seed)  # the image presets collect at its defaults
    steps = collect_steps if collect_steps is not None else IMAGE_COLLECT_STEPS
    collected = counting_env.collect_dataset(env, steps=steps, action_repeat=IMAGE_ACTION_REPEAT,
                                             rng=np.random.default_rng(seed))
    return PresetData(train_data=training.collected_train_data(collected), mdp=abstract, collected=collected)
