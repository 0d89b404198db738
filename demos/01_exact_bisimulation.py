"""Compute the largest bisimulation of the counting MDP three different ways.

The abstract counting MDP has nine states (object counts 0..8), increment and
decrement actions, and reward 1 exactly at count 4. Every pair of distinct
counts reaches the reward state after a different number of steps, so no two
states are equivalent: the quotient has nine singleton blocks.

Run: python3 demos/01_exact_bisimulation.py
"""

import numpy as np

from bisimlab import bisim
from bisimlab.mdp import counting_abstract_mdp, random_mdp

mdp = counting_abstract_mdp(max_count=8, target_n=4)

# engine 1: iterate the distinguishability operator to its least fixed point
r_star, iterations, trace = bisim.least_fixed_point(mdp)
partition = bisim.quotient(r_star, mdp)
print(f"naive sweeps: {iterations} iterations, frontier sizes {trace}")
print(f"blocks: {partition.num_blocks} -> {partition.block_of.tolist()}")

# engine 2: partition refinement in Moore's rounds (the fast dual)
refined = bisim.partition_refine(mdp)
assert np.array_equal(refined.block_of, partition.block_of)
print("partition refinement agrees")

# engine 3: breadth-first search on the pair graph, with a depth certificate
oracle = bisim.distinguishing_oracle(mdp, max_depth=mdp.num_observations ** 2)
assert oracle == r_star
print("pair-graph oracle agrees")

# a coarser quotient: duplicate every counting state and watch the duplicates merge
from bisimlab.mdp import DeterministicMDP

n = mdp.num_observations
twin_transition = np.concatenate([mdp.transition, mdp.transition])  # twins behave alike
m = DeterministicMDP(
    num_observations=2 * n,
    num_actions=mdp.num_actions,
    transition=twin_transition,
    aux=np.concatenate([mdp.aux, mdp.aux]),
    reward=np.concatenate([mdp.reward, mdp.reward]),
    initial_dist=np.full(2 * n, 1.0 / (2 * n)),
)
rel, _, _ = bisim.least_fixed_point(m)
part = bisim.quotient(rel, m)
print(f"\nduplicated counting MDP: {2 * n} states collapse to {part.num_blocks} blocks")
assert part.num_blocks == n
assert np.array_equal(part.block_of[:n], part.block_of[n:])
assert np.array_equal(bisim.partition_refine(m).block_of, part.block_of)
print("each state shares a block with its twin")
