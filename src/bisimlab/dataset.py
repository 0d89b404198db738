"""Transition datasets and their on-disk formats.

Binary container: magic "BSLB", u32 version, u32 |O|, u32 |A|, u32 d_p,
u64 record count, then fixed-width little-endian records
(u32 source, u32 action, u32 successor, f64 aux[d_p]).

Optional sidecar for raw observations: magic "BSLI", u32 version, u64 frame
count, u64 offset table (one entry per frame, relative to payload start),
then concatenated PPM (P6) frames. Frame 2k is the source image of record k,
frame 2k+1 its successor image.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"BSLB"
SIDECAR_MAGIC = b"BSLI"
FORMAT_VERSION = 1


@dataclass
class TransitionDataset:
    """Columnar store of (source, action, successor, aux) records."""

    num_observations: int
    num_actions: int
    sources: np.ndarray  # int [m]
    actions: np.ndarray  # int [m]
    successors: np.ndarray  # int [m]
    aux: np.ndarray  # float [m, d_p]

    def __post_init__(self) -> None:
        self.sources = np.asarray(self.sources, dtype=np.int64).reshape(-1)
        self.actions = np.asarray(self.actions, dtype=np.int64).reshape(-1)
        self.successors = np.asarray(self.successors, dtype=np.int64).reshape(-1)
        self.aux = np.asarray(self.aux, dtype=np.float64)
        if self.aux.ndim == 1:
            self.aux = self.aux.reshape(-1, 1)

    def __len__(self) -> int:
        return self.sources.shape[0]

    @property
    def aux_dim(self) -> int:
        return self.aux.shape[1]

    def validate(self) -> list[str]:
        """Determinism and aux-consistency violations; empty list means valid.

        Errors come in a fixed order: out-of-range columns, then determinism
        violations in record order (each naming the first successor seen for
        its (source, action)), then aux inconsistencies in record order. Aux
        vectors compare with ==, so a record whose aux holds NaN is flagged.
        """
        errors: list[str] = []
        for arr, name, bound in (
            (self.sources, "source", self.num_observations),
            (self.actions, "action", self.num_actions),
            (self.successors, "successor", self.num_observations),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= bound):
                errors.append(f"{name} index out of range")
        first = _first_of_group(self.sources, self.actions)
        bad = np.nonzero(self.successors != self.successors[first])[0]
        rows = zip(self.sources[bad].tolist(), self.actions[bad].tolist(),
                   self.successors[first[bad]].tolist(), self.successors[bad].tolist())
        errors += [f"determinism violation at (source={s}, action={a}): {prev} vs {t}" for s, a, prev, t in rows]
        first = _first_of_group(self.sources)
        bad = np.nonzero(~np.all(self.aux == self.aux[first], axis=1))[0]
        errors += [f"aux inconsistency at source={s}" for s in self.sources[bad].tolist()]
        return errors


def _first_of_group(*keys: np.ndarray) -> np.ndarray:
    """For each record, the index of the first record with the same keys."""
    order = np.lexsort(keys[::-1])  # stable: ties keep record order
    starts = np.zeros(order.shape[0], dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    first = np.empty_like(order)
    first[order] = order[np.maximum.accumulate(np.where(starts, np.arange(order.shape[0]), 0))]
    return first


def save_dataset(ds: TransitionDataset, path: str) -> None:
    m = len(ds)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIIQ", FORMAT_VERSION, ds.num_observations, ds.num_actions, ds.aux_dim, m))
        rec = np.zeros(m, dtype=_record_dtype(ds.aux_dim))
        rec["source"] = ds.sources
        rec["action"] = ds.actions
        rec["successor"] = ds.successors
        rec["aux"] = ds.aux
        fh.write(rec.tobytes())


def load_dataset(path: str) -> TransitionDataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        version, num_obs, num_actions, aux_dim, count = struct.unpack("<IIIIQ", fh.read(24))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        rec = np.frombuffer(fh.read(), dtype=_record_dtype(aux_dim), count=count)
    return TransitionDataset(
        num_observations=num_obs,
        num_actions=num_actions,
        sources=rec["source"].astype(np.int64),
        actions=rec["action"].astype(np.int64),
        successors=rec["successor"].astype(np.int64),
        aux=rec["aux"].reshape(count, aux_dim).astype(np.float64),
    )


def _record_dtype(aux_dim: int) -> np.dtype:
    return np.dtype(
        [("source", "<u4"), ("action", "<u4"), ("successor", "<u4"), ("aux", "<f8", (aux_dim,))]
    )


def ppm_bytes(frame: np.ndarray) -> bytes:
    """Encode a [C, H, W] uint8 frame (C = 1 or 3) as a binary P6 PPM."""
    if frame.dtype != np.uint8:
        raise ValueError("expected uint8 frame")
    c, h, w = frame.shape
    rgb = np.repeat(frame, 3, axis=0) if c == 1 else frame
    header = f"P6\n{w} {h}\n255\n".encode()
    return header + rgb.transpose(1, 2, 0).tobytes()


def save_frame_sidecar(frames: list[bytes], path: str) -> None:
    """Write concatenated PPM frames with an offset index table."""
    with open(path, "wb") as fh:
        fh.write(SIDECAR_MAGIC)
        fh.write(struct.pack("<IQ", FORMAT_VERSION, len(frames)))
        offsets = np.zeros(len(frames), dtype="<u8")
        pos = 0
        for k, blob in enumerate(frames):
            offsets[k] = pos
            pos += len(blob)
        fh.write(offsets.tobytes())
        for blob in frames:
            fh.write(blob)


def parse_ppm(blob: bytes, channels: int = 3) -> np.ndarray:
    """Decode a binary P6 PPM into a [channels, H, W] uint8 array."""
    if not blob.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = blob.split(b"\n", 3)
    w, h = (int(x) for x in parts[1].split())
    rgb = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3).reshape(h, w, 3)
    frame = rgb.transpose(2, 0, 1)
    if channels == 1:
        return frame[:1].copy()  # gray frames are stored with equal channels
    return frame.copy()


def load_frame_sidecar(path: str) -> list[bytes]:
    with open(path, "rb") as fh:
        if fh.read(4) != SIDECAR_MAGIC:
            raise ValueError(f"{path}: bad sidecar magic")
        version, count = struct.unpack("<IQ", fh.read(12))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        offsets = np.frombuffer(fh.read(8 * count), dtype="<u8")
        payload = fh.read()
    out = []
    for k in range(count):
        end = int(offsets[k + 1]) if k + 1 < count else len(payload)
        out.append(payload[int(offsets[k]):end])
    return out
