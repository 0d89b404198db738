"""Per-record and per-pair loops that bisimlab's array code replaced.

Each function here is the straightforward loop form of a library routine and
serves as an oracle in test_loop_oracles.py: the library must give the same
errors, arrays, file bytes, reports, partitions and round counts. The
`np.ix_` gathers of the bisimulation operators are kept here too, and so is
F_D's fixed point by whole-relation sweeps, which the library now takes on
the quotient by its sources' blocks.
"""

from __future__ import annotations

import numpy as np

from bisimlab.analysis import CollapseReport, DistanceMatrix, EmbeddingSet
from bisimlab.bisim import aux_disagreement, aux_labels
from bisimlab.dataset import CoObservedIndex, TransitionDataset
from bisimlab.mdp import DeterministicMDP
from bisimlab.relation import PairRelation, Partition, canonicalize_blocks


def validate(ds: TransitionDataset) -> list[str]:
    errors: list[str] = []
    for arr, name, bound in (
        (ds.sources, "source", ds.num_observations),
        (ds.actions, "action", ds.num_actions),
        (ds.successors, "successor", ds.num_observations),
    ):
        if arr.size and (arr.min() < 0 or arr.max() >= bound):
            errors.append(f"{name} index out of range")
    seen_succ: dict[tuple[int, int], int] = {}
    for s, a, t in zip(ds.sources.tolist(), ds.actions.tolist(), ds.successors.tolist()):
        prev = seen_succ.setdefault((s, a), t)
        if prev != t:
            errors.append(f"determinism violation at (source={s}, action={a}): {prev} vs {t}")
    seen_aux: dict[int, np.ndarray] = {}
    for s, p in zip(ds.sources.tolist(), ds.aux):
        prev_p = seen_aux.setdefault(s, p)
        if not np.array_equal(prev_p, p):
            errors.append(f"aux inconsistency at source={s}")
    return errors


def build_co_observed_index(ds: TransitionDataset) -> CoObservedIndex:
    errors = validate(ds)
    if errors:
        raise ValueError("inconsistent dataset: " + "; ".join(errors))
    obs_ids = np.unique(ds.sources)
    m = obs_ids.shape[0]
    dense = {int(o): k for k, o in enumerate(obs_ids.tolist())}
    aux = np.zeros((m, ds.aux_dim))
    succ_dense = np.full((m, ds.num_actions), -1, dtype=np.int64)
    for s, a, t, p in zip(ds.sources.tolist(), ds.actions.tolist(), ds.successors.tolist(), ds.aux):
        k = dense[s]
        aux[k] = p
        succ_dense[k, a] = dense.get(t, -1)
    return CoObservedIndex(obs_ids=obs_ids, aux=aux, succ_dense=succ_dense)


def relation_csv(rel: PairRelation, ids: np.ndarray | None = None) -> str:
    """relation.csv text: `bisim` writes indices, `empirical-bisim` maps them through ids."""
    n = rel.num_observations
    ids = np.arange(n) if ids is None else ids
    lines = ["i,j\n"]
    for i in range(n):
        for j in range(i + 1, n):
            if rel.bits[i, j]:
                lines.append(f"{ids[i]},{ids[j]}\n")
    return "".join(lines)


def verify_no_collapse(embs: EmbeddingSet, r_star: PairRelation, eps_collapse: float) -> CollapseReport:
    n = len(embs)
    violations: list[tuple[int, int, float]] = []
    pairs_checked = 0
    min_cross = np.inf
    max_within = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            oi, oj = int(embs.labels[i]), int(embs.labels[j])
            dist = float(np.linalg.norm(embs.vectors[i] - embs.vectors[j]))
            if r_star.bits[oi, oj]:
                pairs_checked += 1
                min_cross = min(min_cross, dist)
                if dist < eps_collapse or dist == 0.0:
                    violations.append((oi, oj, dist))
            else:
                max_within = max(max_within, dist)
    return CollapseReport(
        pairs_checked=pairs_checked,
        violations=violations,
        min_cross_class_distance=float(min_cross) if pairs_checked else float("nan"),
        max_within_class_distance=max_within,
        eps_collapse=eps_collapse,
    )


def distance_csv(dm: DistanceMatrix) -> str:
    return "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in dm.matrix)


def complement_is_transitive(rel: PairRelation) -> bool:
    """Transitive closure of the complement by repeated boolean squaring."""
    comp = ~rel.bits
    closure = comp.copy()
    while True:
        step = closure | ((closure.astype(np.int64) @ closure.astype(np.int64)) > 0)
        if np.array_equal(step, closure):
            return bool(np.array_equal(closure, comp))
        closure = step


def partition_refine_with_rounds(mdp: DeterministicMDP, aux_tol: float = 0.0) -> tuple[Partition, int]:
    """Moore's refinement: every round ranks all observations' successor-block signatures."""
    labels = aux_labels(mdp.aux, aux_tol)
    rounds = 0
    while True:
        succ_labels = labels[mdp.transition]  # [n, |A|]
        signature = np.column_stack([labels, succ_labels])
        _, new_labels = np.unique(signature, axis=0, return_inverse=True)
        rounds += 1
        if len(np.unique(new_labels)) == len(np.unique(labels)):
            break
        labels = new_labels
    return canonicalize_blocks(labels), rounds


def apply_F(mdp: DeterministicMDP, rel: PairRelation, aux_tol: float = 0.0) -> PairRelation:
    out = aux_disagreement(mdp.aux, aux_tol)
    for a in range(mdp.num_actions):
        fa = mdp.transition[:, a]
        out |= rel.bits[np.ix_(fa, fa)]
    return PairRelation(out)


def empirical_apply_F(index: CoObservedIndex, rel: PairRelation, aux_tol: float = 0.0) -> PairRelation:
    m = index.num_sources
    out = aux_disagreement(index.aux, aux_tol)
    padded = np.zeros((m + 1, m + 1), dtype=bool)
    padded[:m, :m] = rel.bits
    for a in range(index.succ_dense.shape[1]):
        succ = np.where(index.succ_dense[:, a] < 0, m, index.succ_dense[:, a])
        out |= padded[np.ix_(succ, succ)]
    return PairRelation(out)


def empirical_lfp(ds: TransitionDataset, aux_tol: float = 0.0) -> tuple[PairRelation, CoObservedIndex]:
    """F_D's least fixed point by sweeps over the whole m x m relation."""
    index = build_co_observed_index(ds)
    rel = PairRelation.empty(index.num_sources)
    while True:
        nxt = empirical_apply_F(index, rel, aux_tol)
        if nxt == rel:
            break
        rel = nxt
    return rel, index


def distinguishing_oracle(mdp: DeterministicMDP, max_depth: int, aux_tol: float = 0.0) -> PairRelation:
    reached = aux_disagreement(mdp.aux, aux_tol)
    succ_pairs = [(fa[:, None], fa[None, :]) for fa in mdp.transition.T]
    for _ in range(max_depth):
        frontier = np.zeros_like(reached)
        for fa_i, fa_j in succ_pairs:
            frontier |= reached[fa_i, fa_j]
        frontier &= ~reached
        if not frontier.any():
            break
        reached |= frontier
    return PairRelation(reached)
