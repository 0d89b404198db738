"""Embedding diagnostics and the executable no-collapse check.

PCA uses power iteration with deflation on the mean-centered covariance; the
full eigendecomposition only appears as an oracle in tests. Heatmaps export
as CSV plus a grayscale PPM with red class-boundary lines baked in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from bisimlab.relation import PairRelation


@dataclass
class EmbeddingSet:
    vectors: np.ndarray  # [N, latent_dim]
    labels: np.ndarray  # int [N], ground-truth class
    source_ids: np.ndarray | None = None  # observation ids when drawn from a tabular MDP

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("non-finite embedding")
        if self.source_ids is not None:
            self.source_ids = np.asarray(self.source_ids, dtype=np.int64)

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass
class DistanceMatrix:
    matrix: np.ndarray  # [N, N], rows sorted by (label, source_id)
    labels: np.ndarray  # [N] sorted labels
    order: np.ndarray  # original indices in sorted order


def pairwise_distances(embs: EmbeddingSet) -> DistanceMatrix:
    """Exact l2 distance matrix with rows ordered by (label, source id)."""
    if len(embs) < 1:
        raise ValueError("need at least one embedding")
    sid = embs.source_ids if embs.source_ids is not None else np.arange(len(embs))
    order = np.lexsort((sid, embs.labels))
    v = embs.vectors[order]
    sq = np.sum(v * v, axis=1)
    gram = v @ v.T
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    mat = np.sqrt(d2)
    np.fill_diagonal(mat, 0.0)
    mat = np.minimum(mat, mat.T)  # enforce exact symmetry against rounding
    return DistanceMatrix(matrix=mat, labels=embs.labels[order], order=order)


def _power_iteration(
    cov: np.ndarray, rng: np.random.Generator, tol: float = 1e-10, max_iter: int = 10_000
) -> tuple[np.ndarray, float]:
    d = cov.shape[0]
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return v, 0.0  # zero matrix: any unit vector is an eigenvector
        w /= norm
        delta = min(np.linalg.norm(w - v), np.linalg.norm(w + v))
        v = w
        lam = float(v @ cov @ v)
        if delta < tol:
            return v, lam
    raise RuntimeError("power iteration did not converge (near-degenerate spectrum)")


def pca_2d(
    embs: EmbeddingSet, seed: int = 0, tol: float = 1e-10, max_iter: int = 10_000
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-2 principal projection via power iteration with deflation.

    Returns (projection [N, 2], explained-variance fractions [2],
    components [2, d]). Eigenvector signs: first nonzero coordinate positive.
    """
    if len(embs) < 3:
        raise ValueError("need at least 3 embeddings for PCA")
    x = embs.vectors - embs.vectors.mean(axis=0)
    cov = (x.T @ x) / len(embs)
    total_var = float(np.trace(cov))
    rng = np.random.default_rng(seed)
    components = []
    eigvals = []
    deflated = cov.copy()
    for _ in range(2):
        try:
            v, lam = _power_iteration(deflated, rng, tol, max_iter)
        except RuntimeError:
            # near-degenerate spectrum: retry once at a looser tolerance
            v, lam = _power_iteration(deflated, rng, tol * 100, max_iter)
        for prev in components:
            v = v - (v @ prev) * prev  # deflation residue can leave the iterate tilted
        norm = np.linalg.norm(v)
        if norm > 0:
            v = v / norm
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        components.append(v)
        eigvals.append(max(lam, 0.0))
        deflated = deflated - lam * np.outer(v, v)
    comps = np.stack(components)
    fractions = np.array(eigvals) / total_var if total_var > 0 else np.zeros(2)
    return x @ comps.T, fractions, comps


def class_centroids(embs: EmbeddingSet) -> tuple[np.ndarray, np.ndarray]:
    classes = np.unique(embs.labels)
    cents = np.stack([embs.vectors[embs.labels == c].mean(axis=0) for c in classes])
    return classes, cents


def nearest_centroid_accuracy(vectors: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of items whose nearest class centroid carries their own label.

    Centroids are class means; distance ties break toward the smaller label.
    """
    embs = EmbeddingSet(vectors=vectors, labels=labels)
    classes, cents = class_centroids(embs)
    if np.any(np.bincount(embs.labels, minlength=classes.max() + 1)[classes] < 1):
        raise ValueError("empty label class")
    d = np.linalg.norm(embs.vectors[:, None, :] - cents[None, :, :], axis=2)
    # classes are sorted, so argmin's first-match rule is the tie-break we want
    assigned = classes[np.argmin(d, axis=1)]
    return float(np.mean(assigned == embs.labels))


def collapse_ratio(vectors: np.ndarray, labels: np.ndarray) -> float:
    """(mean within-class variance) / (total variance); 1 when totally collapsed.

    Variance here is the mean squared l2 deviation from the relevant mean.
    Zero total variance returns 1 by convention.
    """
    embs = EmbeddingSet(vectors=vectors, labels=labels)
    if len(embs) < 2:
        raise ValueError("need at least 2 embeddings")
    total = float(np.mean(np.sum((embs.vectors - embs.vectors.mean(axis=0)) ** 2, axis=1)))
    if total == 0.0:
        return 1.0
    within = 0.0
    for c in np.unique(embs.labels):
        members = embs.vectors[embs.labels == c]
        within += float(np.sum(np.sum((members - members.mean(axis=0)) ** 2, axis=1)))
    return (within / len(embs)) / total


@dataclass
class CollapseReport:
    pairs_checked: int
    violations: list[tuple[int, int, float]]
    min_cross_class_distance: float
    max_within_class_distance: float
    eps_collapse: float

    @property
    def verdict(self) -> str:
        return "pass" if not self.violations else "fail"

    def to_json(self) -> str:
        worst = sorted(self.violations, key=lambda t: t[2])[:100]
        return json.dumps(
            {
                "pairs_checked": self.pairs_checked,
                "num_violations": len(self.violations),
                "violations": [[i, j, d] for i, j, d in worst],
                "min_cross_class_distance": self.min_cross_class_distance,
                "max_within_class_distance": self.max_within_class_distance,
                "eps_collapse": self.eps_collapse,
                "verdict": self.verdict,
            },
            indent=2,
        )


def verify_no_collapse(
    embs: EmbeddingSet, r_star: PairRelation, eps_collapse: float
) -> CollapseReport:
    """Check the executable form of the no-collapse guarantee.

    Every embedded pair whose observations lie in R* (distinguishable, hence
    outside the largest bisimulation) must sit at l2 distance >= eps_collapse.
    Pairs (i, j), i < j, are taken one row i at a time, so violations come in
    row-major order.
    """
    if embs.source_ids is None:
        raise ValueError("verify_no_collapse requires source_ids")
    n = len(embs)
    ids, v = embs.source_ids, embs.vectors
    violations: list[tuple[int, int, float]] = []
    pairs_checked = 0
    min_cross = np.inf
    max_within = 0.0
    for i in range(n - 1):
        diff = v[i + 1 :] - v[i]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        cross = r_star.bits[ids[i], ids[i + 1 :]]
        if cross.any():
            pairs_checked += int(cross.sum())
            min_cross = min(min_cross, float(dist[cross].min()))
            hit = np.flatnonzero(cross & (dist < eps_collapse))
            oi = int(ids[i])
            violations += [(oi, oj, d) for oj, d in zip(ids[i + 1 + hit].tolist(), dist[hit].tolist())]
        if not cross.all():
            max_within = max(max_within, float(dist[~cross].max()))
    return CollapseReport(
        pairs_checked=pairs_checked,
        violations=violations,
        min_cross_class_distance=float(min_cross) if pairs_checked else float("nan"),
        max_within_class_distance=max_within,
        eps_collapse=eps_collapse,
    )


def median_pairwise_distance(vectors: np.ndarray) -> float:
    embs = EmbeddingSet(vectors=vectors, labels=np.zeros(len(vectors), dtype=np.int64))
    dm = pairwise_distances(embs)
    iu = np.triu_indices(len(embs), k=1)
    return float(np.median(dm.matrix[iu]))


# --- exports ---


def write_distance_csv(dm: DistanceMatrix, path: str) -> None:
    line = ",".join(["%.9g"] * dm.matrix.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(line % tuple(row.tolist()) for row in dm.matrix)


def write_heatmap_ppm(dm: DistanceMatrix, path: str) -> None:
    """Grayscale distance heatmap with red lines at label boundaries."""
    mat = dm.matrix
    peak = mat.max()
    gray = (mat / peak * 255.0).astype(np.uint8) if peak > 0 else np.zeros_like(mat, dtype=np.uint8)
    img = np.stack([gray] * 3, axis=-1)
    boundaries = np.nonzero(np.diff(dm.labels))[0] + 1
    for b in boundaries.tolist():
        img[b, :] = (255, 0, 0)
        img[:, b] = (255, 0, 0)
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


def write_pca_csv(projection: np.ndarray, labels: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("x,y,label\n")
        for (x, y), lab in zip(projection, labels.tolist()):
            fh.write(f"{x:.9g},{y:.9g},{lab}\n")
