"""Pair relations over observations and partitions into blocks.

A PairRelation is a symmetric boolean |O|x|O| matrix. At desk scale
(|O| up to a few thousand) a byte-per-entry numpy matrix fits easily in
memory and vectorizes every sweep, so we store plain bool rather than packed
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# matrix cells per row block in complement_is_transitive
_BLOCK_CELLS = 1 << 18


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
        """
        n = self.num_observations
        comp = (~self.bits).astype(np.float32)
        rows = max(1, _BLOCK_CELLS // max(n, 1))
        for r0 in range(0, n, rows):
            paths = comp[r0 : r0 + rows] @ comp
            if np.any((paths > 0) & self.bits[r0 : r0 + rows]):
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
    indices themselves. Each matrix row becomes one write.
    """
    n = rel.num_observations
    names = [str(v) for v in (range(n) if ids is None else np.asarray(ids).tolist())]
    with open(path, "w") as fh:
        fh.write("i,j\n")
        for i, row in enumerate(rel.bits):
            js = np.flatnonzero(row[i + 1 :]) + (i + 1)
            if js.size:
                head = names[i] + ","
                fh.write(head + ("\n" + head).join(map(names.__getitem__, js.tolist())) + "\n")


def write_partition_csv(part: Partition, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("observation_id,block_id\n")
        for obs, blk in enumerate(part.block_of.tolist()):
            fh.write(f"{obs},{blk}\n")
