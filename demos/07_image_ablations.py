"""Miniature ablation study on rendered observations.

Trains three short runs on a small version of the image counting task and
compares collapse diagnostics: dynamics loss alone collapses everything,
adding the reward auxiliary anchors the count structure, and reward alone
(no dynamics loss, tiny learning rate) sits in between. The full-scale
version of this comparison is the acceptance suite's ablation criterion;
here everything is shrunk to finish in a couple of minutes.

Run: python3 demos/07_image_ablations.py
"""

import numpy as np

from bisimlab.analysis import collapse_ratio, nearest_centroid_accuracy
from bisimlab.counting_env import CountingEnvConfig, collect_dataset
from bisimlab.nn import encode
from bisimlab.train import TrainConfig, collected_train_data, train

env = CountingEnvConfig(max_count=8, target_n=4, image_size=16, channels=1, seed=0)
collected = collect_dataset(env, steps=6000, action_repeat=4)
data = collected_train_data(collected)

variants = {
    "dyn_only": dict(aux_mode="none"),
    "reward_aux": dict(aux_mode="reward", c_p=30.0),
    "reward_only": dict(aux_mode="reward", dyn_loss_enabled=False, base_lr=1e-5),
}

rng = np.random.default_rng(0)
idx = rng.choice(len(data), size=256, replace=False)
eval_obs, eval_labels = data.obs[idx], data.labels[idx]

print(f"{'variant':<12} {'collapse_ratio':>14} {'centroid_acc':>13}")
for name, over in variants.items():
    cfg = TrainConfig(latent_dim=16, steps=1500, seed=0,
                      encoder_hidden=(128, 64), dynamics_hidden=64, aux_hidden=64,
                      decoder_hidden=(64,), decoder_enabled=False,
                      eval_every=500, report_every=500,
                      **{"base_lr": 1e-3, **over})
    result = train(cfg, data)
    vectors = encode(result.best_params, eval_obs)
    ratio = collapse_ratio(vectors, eval_labels)
    acc = nearest_centroid_accuracy(vectors, eval_labels)
    print(f"{name:<12} {ratio:>14.3f} {acc:>13.3f}")

print("\ndyn-only should sit near ratio 1 (collapsed); reward-aux well below it.")
