"""Empirical bisimulation from logged transitions, and how coverage matters.

With only a dataset of (source, action, successor, aux) records, two states
can only be told apart through actions observed at both. The empirical
relation therefore grows monotonically with coverage and matches the exact
one once every (state, action) pair has been logged.

Run: python3 demos/02_empirical_bisimulation.py
"""

import numpy as np

from bisimlab import bisim
from bisimlab.dataset import TransitionDataset
from bisimlab.mdp import random_mdp

mdp = random_mdp(num_obs=25, num_actions=3, num_aux_values=2, rng=np.random.default_rng(4))
exact, _, _ = bisim.least_fixed_point(mdp)


def dataset_from_mask(mask):
    sources, actions = np.nonzero(mask)
    return TransitionDataset(
        num_observations=mdp.num_observations,
        num_actions=mdp.num_actions,
        sources=sources,
        actions=actions,
        successors=mdp.transition[sources, actions],
        aux=mdp.aux[sources],
    )


rng = np.random.default_rng(0)
full = np.ones((mdp.num_observations, mdp.num_actions), dtype=bool)

for keep in (0.3, 0.6, 1.0):
    mask = full & (rng.random(full.shape) < keep) if keep < 1.0 else full
    if not mask.any():
        continue
    rel, index = bisim.empirical_lfp(dataset_from_mask(mask))
    global_pairs = {
        (int(index.obs_ids[i]), int(index.obs_ids[j])) for i, j in rel.pairs()
    }
    print(
        f"coverage {keep:.0%}: {mask.sum()} records over {index.num_sources} sources, "
        f"{len(global_pairs)} distinguishable pairs"
    )
    # soundness: never distinguish a pair the exact relation does not
    assert global_pairs <= {(i, j) for i, j in exact.pairs()}

print("full coverage matches the exact relation:",
      global_pairs == {(i, j) for i, j in exact.pairs()})
