"""Train the tabular counting preset and mechanically verify no-collapse.

One-hot observations, joint loss (latent dynamics consistency + reward
auxiliary), trained with the model's explicit backward and Adam. After
training, the encoder's embeddings are checked against the exact
bisimulation: every distinguishable pair must stay separated by a margin tied
to the embedding scale. Takes about ten seconds on one core.

Run: python3 demos/05_train_and_verify.py
"""

import dataclasses

import numpy as np

from bisimlab import bisim
from bisimlab.analysis import (
    EmbeddingSet,
    median_pairwise_distance,
    nearest_centroid_accuracy,
    verify_no_collapse,
)
from bisimlab.fixtures import one_hot_observations
from bisimlab.mdp import counting_abstract_mdp
from bisimlab.nn import encode
from bisimlab.presets import preset_train_config
from bisimlab.train import tabular_train_data, train

mdp = counting_abstract_mdp(max_count=8, target_n=4)
config = dataclasses.replace(preset_train_config("tabular_counting", seed=0), steps=8000)
result = train(config, tabular_train_data(mdp))

final = result.metrics[-1]
print(f"after {final['step']} steps: dyn {final['dyn_loss']:.2e}, "
      f"aux {final['aux_loss']:.2e}")

vectors = encode(result.best_params, one_hot_observations(mdp))
labels = np.arange(mdp.num_observations)
acc = nearest_centroid_accuracy(vectors, labels)
print(f"nearest-centroid accuracy: {acc:.2f}")

eps = 1e-3 * median_pairwise_distance(vectors)
embs = EmbeddingSet(vectors=vectors, labels=labels)
report = verify_no_collapse(embs, bisim.partition_refine(mdp), eps)
print(f"no-collapse verdict at eps {eps:.2e}: {report.verdict} "
      f"(min distance between distinguishable pairs {report.min_cross_class_distance:.3f})")
