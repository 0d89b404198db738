"""Embedding diagnostics: PCA, distance heatmap, collapse ratio.

Trains a quick tabular model, then produces the analysis artifacts: a 2-D
principal projection (power iteration, no linear-algebra solver), the sorted
pairwise-distance matrix with class boundaries, and the scalar collapse
diagnostics. Artifacts land in bisimlab_demo/ under the temporary directory
($TMPDIR, /tmp by default).

Run: python3 demos/06_embedding_diagnostics.py
"""

import dataclasses
import pathlib
import tempfile

import numpy as np

from bisimlab.analysis import (
    EmbeddingSet,
    collapse_ratio,
    nearest_centroid_accuracy,
    pairwise_distances,
    pca_2d,
    write_distance_csv,
    write_heatmap_ppm,
    write_pca_csv,
)
from bisimlab.fixtures import one_hot_observations
from bisimlab.mdp import counting_abstract_mdp
from bisimlab.nn import encode
from bisimlab.presets import preset_train_config
from bisimlab.train import tabular_train_data, train

out = pathlib.Path(tempfile.gettempdir()) / "bisimlab_demo"
out.mkdir(exist_ok=True)

mdp = counting_abstract_mdp(max_count=8, target_n=4)
config = dataclasses.replace(preset_train_config("tabular_counting", seed=0), steps=4000)
result = train(config, tabular_train_data(mdp))

vectors = encode(result.best_params, one_hot_observations(mdp))
labels = np.arange(mdp.num_observations)
embs = EmbeddingSet(vectors=vectors, labels=labels)

proj, fractions, _ = pca_2d(embs)
print(f"top-2 explained variance: {fractions[0]:.2f} + {fractions[1]:.2f}")
write_pca_csv(proj, labels, str(out / "pca.csv"))

dm = pairwise_distances(embs)
write_distance_csv(dm, str(out / "distances.csv"))
write_heatmap_ppm(dm, str(out / "heatmap.ppm"))

print(f"collapse ratio: {collapse_ratio(vectors, labels):.3f} "
      "(0 = classes tight and far apart, 1 = fully collapsed)")
print(f"nearest-centroid accuracy: {nearest_centroid_accuracy(vectors, labels):.2f}")
print(f"artifacts in {out}")
