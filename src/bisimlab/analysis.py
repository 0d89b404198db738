"""Embedding diagnostics and the executable no-collapse check.

Every distance comes from `distances`, the norm of an explicit difference
taken a block of rows at a time. PCA takes the top two eigenvectors of the
mean-centered covariance from `np.linalg.eigh`. The no-collapse check reads
the largest bisimulation as a partition: a pair is checked when its
observations lie in different blocks. Heatmaps export as CSV plus a
grayscale PPM with red class-boundary lines baked in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from bisimlab import relation  # for an annotation: reached through its lazy module, it need not run


@dataclass
class EmbeddingSet:
    vectors: np.ndarray  # [N, latent_dim]
    labels: np.ndarray  # int [N], the MDP observation each vector embeds, which is its class

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("non-finite embedding")

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass
class DistanceMatrix:
    matrix: np.ndarray  # [N, N], rows sorted by label, ties in input order
    labels: np.ndarray  # [N] sorted labels
    order: np.ndarray  # original indices in sorted order


# difference elements formed at a time: a block of rows of `a` against all of `b`
_BLOCK_ELEMENTS = 2**16


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """l2 distance of every row of `a` to every row of `b`, as an [len(a), len(b)] matrix.

    Each entry is the norm of an explicit difference, so a distance far below
    the norms keeps its digits (the Gram expansion |a|^2 + |b|^2 - 2ab cancels
    them), the result is exactly symmetric with a zero diagonal when a is b,
    and it equals np.linalg.norm(a[:, None] - b[None], axis=2) bit for bit.
    """
    out = np.empty((len(a), len(b)))
    rows = max(1, _BLOCK_ELEMENTS // max(1, b.size))
    for lo in range(0, len(a), rows):
        diff = a[lo : lo + rows, None, :] - b[None, :, :]
        out[lo : lo + rows] = np.sqrt(np.sum(diff * diff, axis=-1))
    return out


def pairwise_distances(embs: EmbeddingSet) -> DistanceMatrix:
    """Exact l2 distance matrix with rows ordered by label, ties in input order."""
    if len(embs) < 1:
        raise ValueError("need at least one embedding")
    order = np.argsort(embs.labels, kind="stable")
    v = embs.vectors[order]
    return DistanceMatrix(matrix=distances(v, v), labels=embs.labels[order], order=order)


def pca_2d(embs: EmbeddingSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-2 principal projection from the eigendecomposition of the covariance.

    Returns (projection [N, 2], explained-variance fractions [2],
    components [2, d]). Eigenvector signs: first nonzero coordinate positive.
    A 1-dimensional embedding gets a zero second component.
    """
    if len(embs) < 3:
        raise ValueError("need at least 3 embeddings for PCA")
    x = embs.vectors - embs.vectors.mean(axis=0)
    cov = (x.T @ x) / len(embs)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    k = min(2, len(eigvals))
    comps = np.zeros((2, len(eigvals)))
    comps[:k] = eigvecs[:, ::-1][:, :k].T
    lead = np.argmax(np.abs(comps) > 1e-12, axis=1)
    comps *= np.where(comps[[0, 1], lead] < 0, -1.0, 1.0)[:, None]
    top = np.zeros(2)
    top[:k] = np.maximum(eigvals[::-1][:k], 0.0)
    total_var = float(np.trace(cov))
    fractions = top / total_var if total_var > 0 else np.zeros(2)
    return x @ comps.T, fractions, comps


def class_centroids(vectors: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted classes, each class's mean vector, and each row's index into the classes."""
    classes, inverse = np.unique(labels, return_inverse=True)
    cents = np.stack([vectors[inverse == k].mean(axis=0) for k in range(len(classes))])
    return classes, cents, inverse


def nearest_centroid_accuracy(vectors: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of items whose nearest class centroid carries their own label.

    Centroids are class means; distance ties break toward the smaller label.
    """
    embs = EmbeddingSet(vectors=vectors, labels=labels)
    classes, cents, _ = class_centroids(embs.vectors, embs.labels)
    # classes are sorted, so argmin's first-match rule is the tie-break we want
    assigned = classes[np.argmin(distances(embs.vectors, cents), axis=1)]
    return float(np.mean(assigned == embs.labels))


def collapse_ratio(vectors: np.ndarray, labels: np.ndarray) -> float:
    """(mean within-class variance) / (total variance); 1 when totally collapsed.

    Variance here is the mean squared l2 deviation from the relevant mean.
    Zero total variance returns 1 by convention.
    """
    embs = EmbeddingSet(vectors=vectors, labels=labels)
    if len(embs) < 2:
        raise ValueError("need at least 2 embeddings")
    v = embs.vectors
    total = float(np.mean(np.sum((v - v.mean(axis=0)) ** 2, axis=1)))
    if total == 0.0:
        return 1.0
    _, cents, inverse = class_centroids(v, embs.labels)
    within = float(np.mean(np.sum((v - cents[inverse]) ** 2, axis=1)))
    return within / total


@dataclass
class CollapseReport:
    pairs_checked: int
    violations: list[tuple[int, int, float]]
    min_cross_class_distance: float  # NaN when no pair is checked, written to JSON as null
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
                "min_cross_class_distance": self.min_cross_class_distance if self.pairs_checked else None,
                "max_within_class_distance": self.max_within_class_distance,
                "eps_collapse": self.eps_collapse,
                "verdict": self.verdict,
            },
            indent=2,
        )


def verify_no_collapse(embs: EmbeddingSet, part: relation.Partition, eps_collapse: float | None) -> CollapseReport:
    """Check the executable form of the no-collapse guarantee.

    `part` is the largest bisimulation over the observations `embs.labels`.
    Every embedded pair whose observations lie in different blocks
    (distinguishable, hence outside the bisimulation) must sit at l2 distance
    >= eps_collapse, and never at distance 0; None sets eps_collapse to 1e-3
    of the median pairwise distance, from the same distance matrix. Pairs
    (i, j), i < j, are taken in row-major order, and so are the violations.
    """
    ids = embs.labels
    block = part.block_of[ids]
    d = distances(embs.vectors, embs.vectors)
    if eps_collapse is None:
        eps_collapse = 1e-3 * _median_pair_distance(d)
    upper = np.triu(np.ones(d.shape, dtype=bool), 1)
    cross = upper & (block[:, None] != block[None, :])
    within = upper & ~cross
    i, j = np.nonzero(cross & ((d < eps_collapse) | (d == 0)))
    pairs_checked = int(np.count_nonzero(cross))
    return CollapseReport(
        pairs_checked=pairs_checked,
        violations=list(zip(ids[i].tolist(), ids[j].tolist(), d[i, j].tolist())),
        min_cross_class_distance=float(d[cross].min()) if pairs_checked else float("nan"),
        max_within_class_distance=float(d[within].max()) if within.any() else 0.0,
        eps_collapse=eps_collapse,
    )


def _median_pair_distance(d: np.ndarray) -> float:
    """Median over the pairs i < j of a square distance matrix."""
    if len(d) < 2:
        raise ValueError("need at least 2 embeddings for a median pairwise distance")
    pairs = d[np.triu_indices(len(d), k=1)]
    # np.median's value, taken from np.partition, since np.median loads numpy.ma
    mid = pairs.size // 2
    if pairs.size % 2:
        return float(np.partition(pairs, mid)[mid])
    low, high = np.partition(pairs, (mid - 1, mid))[mid - 1 : mid + 1]
    return float((low + high) / 2.0)


def median_pairwise_distance(vectors: np.ndarray) -> float:
    v = EmbeddingSet(vectors=vectors, labels=np.zeros(len(vectors), dtype=np.int64)).vectors
    return _median_pair_distance(distances(v, v))


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
