"""Largest bisimulation over finite deterministic MDPs.

Three independent routes to the same object:

  * least_fixed_point — full sweeps of the distinguishability operator F
    starting from the empty relation (the reference path);
  * partition_refine — Moore's rounds of block splitting on successor
    blocks, touching only observations whose successor changed block; the
    largest group keeps its id (the fast path);
  * distinguishing_oracle — breadth-first search over the pair (product)
    graph for a shortest distinguishing action sequence.

Plus the dataset-restricted operator F_D, which consults only co-observed
actions and sources that actually appear in the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bisimlab.dataset import TransitionDataset
from bisimlab.mdp import DeterministicMDP
from bisimlab.relation import PairRelation, Partition, canonicalize_blocks


def aux_labels(aux: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Group observations whose aux vectors are within `tol` of each other.

    The groups are the connected components of the graph joining two
    observations when the largest absolute difference of their aux vectors
    is at most `tol`, so the grouping is transitive and does not depend on
    the order of the observations. At tol 0 the labels are the ranks of the
    distinct aux rows.
    """
    if tol == 0.0:
        _, labels = np.unique(aux, axis=0, return_inverse=True)
        return labels.reshape(-1).astype(np.int64)
    close = np.abs(aux[:, None, :] - aux[None, :, :]).max(axis=2) <= tol
    labels = np.full(aux.shape[0], -1, dtype=np.int64)
    components = 0
    for i in range(aux.shape[0]):
        if labels[i] >= 0:
            continue
        labels[i] = components
        frontier = np.array([i])
        while frontier.size:
            frontier = np.flatnonzero(close[frontier].any(axis=0) & (labels < 0))
            labels[frontier] = components
        components += 1
    return labels


def aux_disagreement(aux: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Boolean matrix of pairs in different aux_labels groups."""
    labels = aux_labels(aux, tol)
    return labels[:, None] != labels[None, :]


def apply_F(mdp: DeterministicMDP, rel: PairRelation, aux_tol: float = 0.0) -> PairRelation:
    """One application of the distinguishability operator.

    F(R) = {(o,o') : p(o) != p(o')}  union
           {(o,o') : exists a with (f(o,a), f(o',a)) in R}.
    """
    n = mdp.num_observations
    if rel.num_observations != n:
        raise ValueError(f"relation over {rel.num_observations} observations, MDP has {n}")
    out = aux_disagreement(mdp.aux, aux_tol)
    for a in range(mdp.num_actions):
        fa = mdp.transition[:, a]
        out |= rel.bits[fa][:, fa]
    return PairRelation(out)


def least_fixed_point(
    mdp: DeterministicMDP, aux_tol: float = 0.0
) -> tuple[PairRelation, int, list[int]]:
    """Iterate F from the empty relation until it stabilizes.

    Returns (R*, iteration count, per-iteration frontier sizes |R^(t+1) \\ R^(t)|).
    """
    rel = PairRelation.empty(mdp.num_observations)
    trace: list[int] = []
    iterations = 0
    while True:
        nxt = apply_F(mdp, rel, aux_tol)
        iterations += 1
        frontier = int(np.sum(nxt.bits & ~rel.bits))
        trace.append(frontier)
        if frontier == 0:
            break
        rel = nxt
    return rel, iterations, trace


def quotient(r_star: PairRelation, mdp: DeterministicMDP, aux_tol: float = 0.0) -> Partition:
    """Equivalence classes of B* = (O x O) \\ R*.

    Requires R* to actually be a fixed point of F and its complement to be
    transitive; fails loudly otherwise (guards against feeding in empirical
    relations, whose complements need not be equivalences).
    """
    if apply_F(mdp, r_star, aux_tol) != r_star:
        raise ValueError("relation is not a fixed point of F")
    if not r_star.complement_is_transitive():
        raise ValueError("non-transitive complement")
    comp = ~r_star.bits
    # representative = smallest j equivalent to i; dense renumbering by first occurrence
    reps = np.argmax(comp, axis=1)
    return canonicalize_blocks(reps)


def partition_refine(mdp: DeterministicMDP, aux_tol: float = 0.0) -> Partition:
    """Coarsest partition refining the aux-partition and closed under f.

    Moore's rounds, touching only observations whose successor changed block;
    the largest group keeps its id. Identical to
    quotient(least_fixed_point(mdp)) but with per-block rather than per-pair
    work.
    """
    return partition_refine_with_rounds(mdp, aux_tol)[0]


def partition_refine_with_rounds(
    mdp: DeterministicMDP, aux_tol: float = 0.0
) -> tuple[Partition, int]:
    """Moore's partition and the number of rounds it takes to stabilize.

    Round k splits every block by the blocks of its members' successors after
    round k - 1, and the last round splits nothing. A block keeps its id for
    its largest group, so members whose successors all kept their ids still
    agree: only the predecessors of re-labelled observations, found through
    the inverse transitions, are compared, and the untouched rest of their
    block forms one group of its own. An observation changes id only into a
    block at most half its old one's size, so the work is O(|A| n log n).
    """
    n, na = mdp.num_observations, mdp.num_actions
    block_of = aux_labels(mdp.aux, aux_tol).tolist()
    members: dict[int, set[int]] = {}
    for o, b in enumerate(block_of):
        members.setdefault(b, set()).add(o)
    next_id = len(members)
    succ = mdp.transition.tolist()
    # inverse transitions in CSR form: the sources of t are src[ptr[t]:ptr[t + 1]]
    flat = mdp.transition.reshape(-1)
    src = (np.argsort(flat, kind="stable") // na).tolist()
    ptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n))]).tolist()
    touched = range(n)  # the first round compares every observation
    rounds = 0
    while True:
        rounds += 1
        groups: dict[int, dict[tuple, list[int]]] = {}
        for o in touched:
            sig = tuple(map(block_of.__getitem__, succ[o]))
            groups.setdefault(block_of[o], {}).setdefault(sig, []).append(o)
        changed: list[int] = []
        for b, by_sig in groups.items():
            parts = list(by_sig.values())
            block = members[b]
            rest = len(block) - sum(map(len, parts))
            largest = max(parts, key=len)
            if rest >= len(largest):
                moving = parts
            else:
                moving = [p for p in parts if p is not largest]
                if rest:
                    moving.append([o for o in block if o not in touched])
            for part in moving:
                members[next_id] = moved = set(part)
                block -= moved
                for o in part:
                    block_of[o] = next_id
                next_id += 1
                changed += part
        if not changed:
            break
        touched = {s for t in changed for s in src[ptr[t]:ptr[t + 1]]}
    return canonicalize_blocks(np.array(block_of, dtype=np.int64)), rounds


def partition_to_relation(part: Partition) -> PairRelation:
    """R from a partition: pairs in different blocks."""
    bits = part.block_of[:, None] != part.block_of[None, :]
    return PairRelation(bits)


def distinguishing_oracle(
    mdp: DeterministicMDP, max_depth: int, aux_tol: float = 0.0
) -> PairRelation:
    """Pairs separable by some action sequence of length <= max_depth.

    Breadth-first search on the pair graph (i,j) -a-> (f(i,a), f(j,a)),
    computing the shortest distance to an aux-disagreeing pair. Depth
    |O|^2 is always sufficient for exactness; smaller depths give an
    under-approximation (depth 0 = immediate aux disagreement only).
    """
    n = mdp.num_observations
    bad = aux_disagreement(mdp.aux, aux_tol)
    reached = bad.copy()
    for _ in range(max_depth):
        frontier = np.zeros_like(reached)
        for fa in mdp.transition.T:
            frontier |= reached[fa][:, fa]
        frontier &= ~reached
        if not frontier.any():
            break
        reached |= frontier
    return PairRelation(reached)


# --- empirical path (dataset-restricted operator) ---


@dataclass
class CoObservedIndex:
    """Sources appearing in a dataset, plus per-action coverage and successors.

    obs_ids maps dense source index -> original observation id. has_action[k, a]
    says source k has a record for action a; succ_dense[k, a] is the successor's
    dense index, or -1 when the successor never appears as a source.
    """

    obs_ids: np.ndarray  # int [m]
    aux: np.ndarray  # float [m, d_p]
    has_action: np.ndarray  # bool [m, |A|]
    succ_dense: np.ndarray  # int [m, |A|], -1 when successor not a source

    @property
    def num_sources(self) -> int:
        return self.obs_ids.shape[0]


def build_co_observed_index(ds: TransitionDataset) -> CoObservedIndex:
    errors = ds.validate()
    if errors:
        raise ValueError("inconsistent dataset: " + "; ".join(errors))
    # the unique values come sorted; their first index in reverse is each source's last record
    obs_ids, from_end = np.unique(ds.sources[::-1], return_index=True)
    m = obs_ids.shape[0]
    k = np.searchsorted(obs_ids, ds.sources)
    t = np.minimum(np.searchsorted(obs_ids, ds.successors), max(m - 1, 0))
    has_action = np.zeros((m, ds.num_actions), dtype=bool)
    has_action[k, ds.actions] = True
    # validated determinism: repeated (source, action) records share a successor
    succ_dense = np.full((m, ds.num_actions), -1, dtype=np.int64)
    succ_dense[k, ds.actions] = np.where(obs_ids[t] == ds.successors, t, -1)
    aux = ds.aux[len(ds) - 1 - from_end]
    return CoObservedIndex(obs_ids=obs_ids, aux=aux, has_action=has_action, succ_dense=succ_dense)


def empirical_apply_F(
    index: CoObservedIndex, rel: PairRelation, aux_tol: float = 0.0
) -> PairRelation:
    """F_D: aux disagreement over observed sources, plus successor
    disagreement through co-observed actions only."""
    m = index.num_sources
    if rel.num_observations != m:
        raise ValueError("relation not dimensioned to the dataset's sources")
    out = aux_disagreement(index.aux, aux_tol)
    # pad with an always-false row/col so dense index -1 contributes nothing
    padded = np.zeros((m + 1, m + 1), dtype=bool)
    padded[:m, :m] = rel.bits
    for a in range(index.has_action.shape[1]):
        has = index.has_action[:, a]
        succ = np.where(index.succ_dense[:, a] < 0, m, index.succ_dense[:, a])
        clause = padded[succ][:, succ]
        clause &= has[:, None] & has[None, :]
        out |= clause
    return PairRelation(out)


def empirical_lfp(
    ds: TransitionDataset, aux_tol: float = 0.0
) -> tuple[PairRelation, PairRelation, CoObservedIndex]:
    """Least fixed point of F_D from the empty relation.

    Returns (R*_D, B*_D, index) where both relations are over the dataset's
    dense source indices. B*_D is the complement restricted to O_D x O_D and
    is returned as a relation (it need not be transitive under partial
    coverage).
    """
    index = build_co_observed_index(ds)
    rel = PairRelation.empty(index.num_sources)
    while True:
        nxt = empirical_apply_F(index, rel, aux_tol)
        if nxt == rel:
            break
        rel = nxt
    return rel, PairRelation(~rel.bits), index
