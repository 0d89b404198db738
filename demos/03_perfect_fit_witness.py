"""The zero-loss witness: exact parameters make the no-collapse theorem executable.

For the tabular counting MDP we can write down encoder, dynamics, and
auxiliary-head weights achieving exactly zero joint loss. The guarantee then
says: any two states the bisimulation distinguishes must receive distinct
embeddings. This script builds the witness, checks both loss terms are zero
to machine precision, and runs the mechanical verifier.

Run: python3 demos/03_perfect_fit_witness.py
"""

import numpy as np

from bisimlab import bisim
from bisimlab.analysis import EmbeddingSet, verify_no_collapse
from bisimlab.fixtures import one_hot_observations, perfect_fit_params
from bisimlab.mdp import counting_abstract_mdp
from bisimlab.nn import Batch, encode, joint_loss

mdp = counting_abstract_mdp(max_count=8, target_n=4)
params = perfect_fit_params(mdp)

# evaluate the joint loss on full coverage: it is exactly zero
n, na = mdp.num_observations, mdp.num_actions
sources = np.repeat(np.arange(n), na)
actions = np.tile(np.arange(na), n)
eye = np.eye(n)
batch = Batch(
    obs=eye[sources],
    actions=actions,
    next_obs=eye[mdp.transition[sources, actions]],
    aux_targets=mdp.aux[sources],
)
report, _ = joint_loss(params, batch, c_p=1.0, dyn_loss_enabled=True,
                       aux_enabled=True, decoder_enabled=False, step=0)
print(f"dyn loss {report.dyn_loss:.3e}, aux loss {report.aux_loss:.3e}")
assert report.dyn_loss == 0.0 and report.aux_loss == 0.0

# the verifier confirms all distinguishable pairs are separated
vectors = encode(params, one_hot_observations(mdp))
embs = EmbeddingSet(vectors=vectors, labels=np.arange(n))
collapse = verify_no_collapse(embs, bisim.partition_refine(mdp), eps_collapse=1e-9)
print(f"verdict: {collapse.verdict} "
      f"({collapse.pairs_checked} pairs, {len(collapse.violations)} violations, "
      f"min cross-class distance {collapse.min_cross_class_distance:.3f})")
