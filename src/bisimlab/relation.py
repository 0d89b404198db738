"""Pair relations over observations and partitions into blocks.

A PairRelation is a symmetric boolean |O|x|O| matrix. At desk scale
(|O| up to a few thousand) a byte-per-entry numpy matrix fits easily in
memory and vectorizes every sweep, so we store plain bool rather than packed
bits.

A relation computed from a partition repeats its rows: observations in one
block have equal rows. The transitivity check and the CSV writer therefore
work on the distinct rows (found by hashing packed rows, in first-occurrence
order) and reuse what they find for a row on its repeats. Both shortcuts are
exact for any relation, repeated rows or not; see their docstrings.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

# matrix cells per row block in complement_is_transitive
_BLOCK_CELLS = 1 << 18


def _row_classes(bits: np.ndarray) -> list[int]:
    """For each row of a square matrix, the index of the first row equal to
    it. Rows are compared by the bytes of their packed bits, hashed."""
    n = bits.shape[0]
    packed = np.packbits(bits, axis=1).tobytes()
    width = len(packed) // max(n, 1)
    first: dict[bytes, int] = {}
    return [first.setdefault(packed[i * width : (i + 1) * width], i) for i in range(n)]


@dataclass
class PairRelation:
    bits: np.ndarray  # bool [n, n]

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 2 or self.bits.shape[0] != self.bits.shape[1]:
            raise ValueError(f"relation matrix must be square, got {self.bits.shape}")

    @classmethod
    def empty(cls, num_observations: int) -> "PairRelation":
        return cls(np.zeros((num_observations, num_observations), dtype=bool))

    @classmethod
    def from_pairs(cls, num_observations: int, pairs) -> "PairRelation":
        rel = cls.empty(num_observations)
        for i, j in pairs:
            rel.bits[i, j] = True
        return rel

    @property
    def num_observations(self) -> int:
        return self.bits.shape[0]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return bool(self.bits[pair[0], pair[1]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairRelation):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.array_equal(self.bits, other.bits))

    def __le__(self, other: "PairRelation") -> bool:
        """Subset check."""
        return bool(np.all(~self.bits | other.bits))

    def count(self) -> int:
        return int(self.bits.sum())

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.bits, self.bits.T))

    def is_irreflexive(self) -> bool:
        return not bool(np.any(np.diagonal(self.bits)))

    def pairs(self) -> list[tuple[int, int]]:
        """Unordered pairs (i, j) with i < j, lexicographically sorted."""
        ii, jj = np.nonzero(np.triu(self.bits, k=1))
        return list(zip(ii.tolist(), jj.tolist()))

    def complement_is_transitive(self) -> bool:
        """Whether (O x O) \\ R is transitive.

        Counts two-step paths through the complement C with a float32 matrix
        product, a block of rows at a time: C is transitive when no pair with
        a path count above zero lies in R. The counts are sums of 0/1 terms,
        exact below 2**24 and never rounded down to zero above it.

        A symmetric R is checked on one representative of each distinct row.
        Equal rows give R[i, j] = R[rep(i), j], and by symmetry the same
        holds for columns, so R is the lift of its sub-relation S over the
        representatives, R[i, j] = S[class(i), class(j)], and C is the lift
        of S's complement. A path i -> j -> l through C is then one through
        S's complement between their classes, and S's complement is C
        restricted to the representatives, so the two are transitive
        together. A non-symmetric R is checked on all its rows.
        """
        bits = self.bits
        if self.is_symmetric():
            reps = np.flatnonzero(np.array(_row_classes(bits)) == np.arange(bits.shape[0]))
            if reps.size < bits.shape[0]:
                bits = bits[reps][:, reps]
        n = bits.shape[0]
        comp = (~bits).astype(np.float32)
        rows = max(1, _BLOCK_CELLS // max(n, 1))
        for r0 in range(0, n, rows):
            paths = comp[r0 : r0 + rows] @ comp
            if np.any((paths > 0) & bits[r0 : r0 + rows]):
                return False
        return True


@dataclass
class Partition:
    block_of: np.ndarray  # int [n]
    num_blocks: int

    def __post_init__(self) -> None:
        self.block_of = np.asarray(self.block_of, dtype=np.int64)

    @property
    def num_observations(self) -> int:
        return self.block_of.shape[0]


def canonicalize_blocks(labels: np.ndarray) -> Partition:
    """Renumber arbitrary block labels so block ids sort by smallest member."""
    labels = np.asarray(labels)
    first_seen: dict = {}
    for lab in labels.tolist():
        if lab not in first_seen:
            first_seen[lab] = len(first_seen)
    block_of = np.array([first_seen[lab] for lab in labels.tolist()], dtype=np.int64)
    return Partition(block_of=block_of, num_blocks=len(first_seen))


def write_relation_csv(rel: PairRelation, path: str, ids: np.ndarray | None = None) -> None:
    """One "i,j" line per unordered pair i < j of the relation, in row order.

    `ids` maps matrix indices to the observation ids written; by default the
    indices themselves. Each matrix row with a pair becomes one write.

    Rows of a class of equal rows share their columns. The first row i0 of a
    class keeps its columns j > i0 and their names until the class's last
    row is written. Every row i, i0 included, writes the kept names from the
    first column past i (a binary search of the columns), each after i's
    own name.
    """
    n = rel.num_observations
    names = [str(v) for v in (range(n) if ids is None else np.asarray(ids).tolist())]
    rep_of = _row_classes(rel.bits)
    last = {r: i for i, r in enumerate(rep_of)}  # each class's last row
    kept: dict[int, tuple[list[int], list[str]]] = {}  # first row -> (its columns past it, their names)
    with open(path, "w") as fh:
        fh.write("i,j\n")
        for i, r in enumerate(rep_of):
            if r == i:
                js = (np.flatnonzero(rel.bits[i, i + 1 :]) + (i + 1)).tolist()
                kept[i] = (js, [names[j] for j in js])
            js, js_names = kept.pop(r) if last[r] == i else kept[r]
            k = bisect.bisect_right(js, i)
            if k < len(js):
                head = names[i] + ","
                fh.write(head + ("\n" + head).join(js_names[k:]) + "\n")


def write_partition_csv(part: Partition, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("observation_id,block_id\n")
        for obs, blk in enumerate(part.block_of.tolist()):
            fh.write(f"{obs},{blk}\n")
