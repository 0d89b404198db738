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
actions and sources that actually appear in the data. empirical_lfp takes
its least fixed point partition first: the refinement loop of
partition_refine (_refine) splits the m sources, plus one sink state for
every missing action and unseen successor, into k blocks whose members
share their aux label, their usable actions and their successors' blocks.
Every F_D iterate is then a union of block pairs, so F_D is swept over the
k x k block relation and the result expanded to the sources, bit for bit
the sweep over all m x m pairs (kept as the oracle in the tests).
"""

from __future__ import annotations

import numpy as np

# only the empirical engine reads dataset: reached through its lazy module, it runs with that engine alone
from bisimlab import dataset
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
    return PairRelation(_sweep(aux_disagreement(mdp.aux, aux_tol), mdp.transition, rel.bits))


def _sweep(disagree: np.ndarray, transition: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """F(R)'s matrix from the aux-disagreement matrix and R's matrix."""
    out = disagree.copy()
    for fa in transition.T:
        out |= bits[fa][:, fa]
    return out


def is_fixed_point(mdp: DeterministicMDP, part: Partition, aux_tol: float = 0.0) -> bool:
    """Whether R = {(o,o') : o and o' in different blocks} satisfies F(R) = R.

    (o,o') is in F(R) exactly when the signatures of o and o' differ, a
    signature being an observation's aux label and the blocks of its
    successors, one per action. So F(R) = R says that two observations lie
    in different blocks exactly when their signatures differ: every block
    has one signature and no two blocks share one, i.e. block <-> signature
    is a bijection. That holds when the distinct (block, signature) pairs
    are as many as the distinct blocks and as many as the distinct
    signatures. The same boolean as apply_F(mdp, R) == R for any partition,
    in O(n |A|) work plus one sort of the signatures, reading only the MDP
    and block_of.
    """
    n = mdp.num_observations
    if part.num_observations != n:
        raise ValueError(f"partition of {part.num_observations} observations, MDP has {n}")
    if n == 0:
        return True
    block_of = part.block_of
    signature = np.column_stack([aux_labels(mdp.aux, aux_tol), block_of[mdp.transition]])
    _, sig_of = np.unique(signature, axis=0, return_inverse=True)
    sig_of = sig_of.reshape(-1)
    _, block_ids = np.unique(block_of, return_inverse=True)
    num_blocks, num_sigs = block_ids.max() + 1, sig_of.max() + 1
    # distinct (block, signature) pairs, counted without np.unique, which loads numpy.ma
    pairs = np.sort(block_ids * num_sigs + sig_of)
    return num_blocks == num_sigs == np.count_nonzero(np.diff(pairs)) + 1


def least_fixed_point(
    mdp: DeterministicMDP, aux_tol: float = 0.0
) -> tuple[PairRelation, int, list[int]]:
    """Iterate F from the empty relation until it stabilizes.

    Returns (R*, iteration count, per-iteration frontier sizes |R^(t+1) \\ R^(t)|).
    The aux-disagreement matrix is formed once and shared by every sweep.
    """
    disagree = aux_disagreement(mdp.aux, aux_tol)
    bits = np.zeros_like(disagree)
    trace: list[int] = []
    iterations = 0
    while True:
        nxt = _sweep(disagree, mdp.transition, bits)
        iterations += 1
        frontier = int(np.sum(nxt & ~bits))
        trace.append(frontier)
        if frontier == 0:
            break
        bits = nxt
    return PairRelation(bits), iterations, trace


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
    block_of, rounds = _refine(aux_labels(mdp.aux, aux_tol), mdp.transition)
    return canonicalize_blocks(block_of), rounds


def _refine(labels: np.ndarray, transition: np.ndarray) -> tuple[np.ndarray, int]:
    """The refinement loop of partition_refine_with_rounds, from initial labels
    0..L-1 over a successor table [n, |A|]: raw block ids and the round count."""
    n, na = transition.shape
    block_of = labels.tolist()
    members: dict[int, set[int]] = {}
    for o, b in enumerate(block_of):
        members.setdefault(b, set()).add(o)
    next_id = len(members)
    succ = transition.tolist()
    # inverse transitions in CSR form: the sources of t are src[ptr[t]:ptr[t + 1]]
    flat = transition.reshape(-1)
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
    return np.array(block_of, dtype=np.int64), rounds


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


def build_co_observed_index(ds: dataset.TransitionDataset) -> dataset.CoObservedIndex:
    errors, index = ds.scan()
    if errors:
        raise ValueError("inconsistent dataset: " + "; ".join(errors))
    return index


def empirical_apply_F(
    index: dataset.CoObservedIndex, rel: PairRelation, aux_tol: float = 0.0
) -> PairRelation:
    """F_D: aux disagreement over observed sources, plus successor
    disagreement through co-observed actions only."""
    m = index.num_sources
    if rel.num_observations != m:
        raise ValueError("relation not dimensioned to the dataset's sources")
    # pad with an always-false row/col so dense index -1 (a missing action, or a
    # successor that is never a source) contributes nothing
    padded = np.zeros((m + 1, m + 1), dtype=bool)
    padded[:m, :m] = rel.bits
    succ = np.where(index.succ_dense < 0, m, index.succ_dense)
    return PairRelation(_sweep(aux_disagreement(index.aux, aux_tol), succ, padded))


def empirical_lfp(
    ds: dataset.TransitionDataset, aux_tol: float = 0.0
) -> tuple[PairRelation, dataset.CoObservedIndex]:
    """Least fixed point of F_D from the empty relation.

    Returns (R*_D, index), R*_D over the dataset's dense source indices. Its
    complement restricted to O_D x O_D need not be transitive under partial
    coverage.

    Partition first: _refine splits the sources, seeded with their aux
    labels, by the blocks of their successors, with one sink state standing
    for every missing action and every successor that is never a source.
    The sink has a label of its own and loops to itself, so it is a block
    of its own. Members of a block share their label, the actions through
    which F_D can reach a source, and those sources' blocks, so every F_D
    iterate, R*_D included, is a union of block pairs. F_D therefore runs on
    the k blocks, with each block's label as its aux (compared at tol 0,
    since the labels already carry the tolerance's grouping), and the k x k
    result is expanded to the m sources. Under full coverage k is the number
    of bisimulation blocks; at worst, k = m.
    """
    index = build_co_observed_index(ds)
    m, na = index.succ_dense.shape
    labels = aux_labels(index.aux, aux_tol)
    sink = np.full((1, na), m)
    succ = np.vstack([np.where(index.succ_dense < 0, m, index.succ_dense), sink])
    block_of, _ = _refine(np.append(labels, labels.max(initial=-1) + 1), succ)
    # the sink's block holds the sink alone, so the sources' blocks number 0..k-1
    _, rep, block_of = np.unique(block_of[:m], return_index=True, return_inverse=True)
    succ_block = np.append(block_of, -1)[succ[rep]]
    blocks = dataset.CoObservedIndex(obs_ids=index.obs_ids[rep], aux=labels[rep].astype(np.float64).reshape(-1, 1),
                                     succ_dense=succ_block)
    rel = PairRelation.empty(rep.shape[0])
    while True:
        nxt = empirical_apply_F(blocks, rel)
        if nxt == rel:
            break
        rel = nxt
    return PairRelation(rel.bits[block_of][:, block_of]), index
