"""Roll the image counting environment and inspect what gets logged.

Each episode fixes a shape and color, samples a starting count, and then
continuous actions in [-1, 1] increment or decrement the count by their sign.
Rendered frames go to a PPM sidecar; transitions are logged at the count
level, which is what the empirical bisimulation engine consumes.

Run: python3 demos/04_counting_environment.py
"""

import collections
import os
import tempfile

import numpy as np

from bisimlab import bisim
from bisimlab.counting_env import CountingEnvConfig, collect_dataset
from bisimlab.dataset import ppm_bytes

config = CountingEnvConfig(max_count=8, target_n=4, image_size=32, channels=3, seed=0)
collected = collect_dataset(config, steps=2000, action_repeat=4)
ds = collected.dataset

print(f"{len(ds)} transitions, frames {collected.source_frames.shape}")
counts = collections.Counter(ds.sources.tolist())
print("source count histogram:", dict(sorted(counts.items())))
print(f"reward rate: {ds.aux.mean():.3f} (aux is 1 exactly at count {config.target_n})")

# the logged transitions respect increment/decrement-with-clamping
inc = ds.actions == 0
assert np.all(ds.successors[inc] == np.minimum(ds.sources[inc] + 1, config.max_count))
assert np.all(ds.successors[~inc] == np.maximum(ds.sources[~inc] - 1, 0))
print("transitions match clamped counter dynamics")

# with this much data the empirical bisimulation already separates all counts
rel, index = bisim.empirical_lfp(ds)
print(f"empirical relation: {index.num_sources} sources, "
      f"{rel.count()} distinguishable ordered pairs "
      f"(all pairs = {index.num_sources * (index.num_sources - 1)})")

# write one frame out as a viewable image, in the temporary directory ($TMPDIR)
frame_path = os.path.join(tempfile.gettempdir(), "counting_frame.ppm")
with open(frame_path, "wb") as fh:
    fh.write(ppm_bytes(collected.source_frames[0]))
print(f"sample frame written to {frame_path}")
