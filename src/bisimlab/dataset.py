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
# after the magic: version, |O|, |A|, d_p and the record count
_HEADER = struct.Struct("<IIIIQ")
_PAYLOAD_START = len(MAGIC) + _HEADER.size
# after the sidecar magic: version and frame count; the offset table follows
_SIDECAR_HEADER = struct.Struct("<IQ")
_OFFSETS_START = len(SIDECAR_MAGIC) + _SIDECAR_HEADER.size
# _ranks tabulates a span of up to this many slots per value, and sorts
# wider spans (sparse ids), so no table outgrows the records
_TABLE_SLOTS_PER_VALUE = 4


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
        return self.scan()[0]

    def scan(self) -> tuple[list[str], CoObservedIndex | None]:
        """validate's errors and, when there are none, the co-observed index.

        One pass over the records: ids are ranked once (sources and successors
        together, then (source, action) keys), and every per-record question
        is a lookup in a table over ranks. Tables are sized by the records and
        the sources, never by the declared |O|.
        """
        errors: list[str] = []
        for arr, name, bound in (
            (self.sources, "source", self.num_observations),
            (self.actions, "action", self.num_actions),
            (self.successors, "successor", self.num_observations),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= bound):
                errors.append(f"{name} index out of range")
        n = len(self)
        ids, rank = _ranks(np.concatenate([self.sources, self.successors]))
        is_source = np.zeros(ids.shape[0], dtype=bool)
        is_source[rank[:n]] = True
        dense = np.cumsum(is_source) - 1  # id rank -> source index
        src = dense[rank[:n]]
        m = int(is_source.sum())
        actions, act = _ranks(self.actions)
        _, key = _ranks(src * actions.shape[0] + act)
        first = _first_records(key)
        bad = np.flatnonzero(self.successors != self.successors[first])
        rows = zip(self.sources[bad].tolist(), self.actions[bad].tolist(),
                   self.successors[first[bad]].tolist(), self.successors[bad].tolist())
        errors += [f"determinism violation at (source={s}, action={a}): {prev} vs {t}" for s, a, prev, t in rows]
        first = _first_records(src)
        bad = np.flatnonzero(~np.all(self.aux == self.aux[first], axis=1))
        errors += [f"aux inconsistency at source={s}" for s in self.sources[bad].tolist()]
        if errors:
            return errors, None
        # the last record of each source gives its aux, bit for bit (signs of zeros too)
        last = np.zeros(m, dtype=np.int64)
        np.maximum.at(last, src, np.arange(n))
        has_action = np.zeros((m, self.num_actions), dtype=bool)
        has_action[src, self.actions] = True
        # valid, so repeated (source, action) records share a successor
        succ_dense = np.full((m, self.num_actions), -1, dtype=np.int64)
        succ_dense[src, self.actions] = np.where(is_source[rank[n:]], dense[rank[n:]], -1)
        return [], CoObservedIndex(obs_ids=ids[is_source], aux=self.aux[last], has_action=has_action,
                                   succ_dense=succ_dense)


@dataclass
class CoObservedIndex:
    """Sources appearing in a dataset, plus per-action coverage and successors.

    obs_ids maps dense source index -> original observation id, in increasing
    order. has_action[k, a] says source k has a record for action a;
    succ_dense[k, a] is the successor's dense index, or -1 when the successor
    never appears as a source or source k has no record for action a. aux is
    each source's aux vector.
    """

    obs_ids: np.ndarray  # int [m]
    aux: np.ndarray  # float [m, d_p]
    has_action: np.ndarray  # bool [m, |A|]
    succ_dense: np.ndarray  # int [m, |A|], -1 when successor not a source or action missing

    @property
    def num_sources(self) -> int:
        return self.obs_ids.shape[0]


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in increasing order, and each value's rank among them.

    A presence table over the values' span when that span is at most a few
    times their count, otherwise one sort.
    """
    if not values.size:
        return values, values
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if span > _TABLE_SLOTS_PER_VALUE * values.size:
        return np.unique(values, return_inverse=True)
    offset = values - lo
    present = np.zeros(span, dtype=bool)
    present[offset] = True
    return np.flatnonzero(present) + lo, (np.cumsum(present) - 1)[offset]


def _first_records(rank: np.ndarray) -> np.ndarray:
    """For each record, the index of the first record of the same rank."""
    first = np.full(int(rank.max(initial=-1)) + 1, rank.shape[0], dtype=np.int64)
    np.minimum.at(first, rank, np.arange(rank.shape[0]))
    return first[rank]


def save_dataset(ds: TransitionDataset, path: str) -> None:
    m = len(ds)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(FORMAT_VERSION, ds.num_observations, ds.num_actions, ds.aux_dim, m))
        rec = np.zeros(m, dtype=_record_dtype(ds.aux_dim))
        rec["source"] = ds.sources
        rec["action"] = ds.actions
        rec["successor"] = ds.successors
        rec["aux"] = ds.aux
        fh.write(rec.tobytes())


def load_dataset(path: str) -> TransitionDataset:
    """Read a BSLB file; ValueError for a bad magic or version, a short header or
    payload, or bytes after the last record."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < _PAYLOAD_START:
        raise ValueError(f"{path}: short header, {len(raw)} of {_PAYLOAD_START} bytes")
    version, num_obs, num_actions, aux_dim, count = _HEADER.unpack_from(raw, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    dtype = _record_dtype(aux_dim)
    payload, need = len(raw) - _PAYLOAD_START, count * dtype.itemsize
    if payload != need:
        kind = "short payload" if payload < need else "trailing bytes"
        raise ValueError(f"{path}: {kind}, {count} records need {need} bytes, found {payload}")
    rec = np.frombuffer(raw, dtype=dtype, count=count, offset=_PAYLOAD_START)
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
        fh.write(_SIDECAR_HEADER.pack(FORMAT_VERSION, len(frames)))
        offsets = np.zeros(len(frames), dtype="<u8")
        pos = 0
        for k, blob in enumerate(frames):
            offsets[k] = pos
            pos += len(blob)
        fh.write(offsets.tobytes())
        for blob in frames:
            fh.write(blob)


def parse_ppm(blob: bytes, channels: int) -> np.ndarray:
    """Decode a binary P6 PPM into a [channels, H, W] uint8 array (channels 1 or 3);
    ValueError unless it is what ppm_bytes writes: maxval 255, H and W at least 1,
    and H * W * 3 pixel bytes."""
    parts = blob.split(b"\n", 3)
    if len(parts) != 4:
        raise ValueError("truncated PPM header")
    magic, size, maxval, pixels = parts
    w, h = (int(x) for x in size.split())
    if magic != b"P6" or maxval != b"255" or min(w, h) < 1:
        raise ValueError(f"not an 8-bit P6 PPM of positive size: {b' '.join(parts[:3])!r}")
    if len(pixels) != h * w * 3:
        raise ValueError(f"{w}x{h} PPM with {len(pixels)} pixel bytes, not {h * w * 3}")
    frame = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)
    if channels == 1:
        return frame[:1].copy()  # gray frames are stored with equal channels
    return frame.copy()


def load_frame_sidecar(path: str) -> list[bytes]:
    """Read a BSLI file; ValueError for a bad magic or version, a short header or offset
    table, or bytes before the first frame. The last frame runs to the end of the file,
    so bytes after it, like a cut inside it, surface when parse_ppm decodes it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SIDECAR_MAGIC:
        raise ValueError(f"{path}: bad sidecar magic")
    if len(raw) < _OFFSETS_START:
        raise ValueError(f"{path}: short sidecar header, {len(raw)} of {_OFFSETS_START} bytes")
    version, count = _SIDECAR_HEADER.unpack_from(raw, len(SIDECAR_MAGIC))
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if len(raw) - _OFFSETS_START < 8 * count:
        raise ValueError(f"{path}: short offset table for {count} frames")
    offsets = np.frombuffer(raw, dtype="<u8", count=count, offset=_OFFSETS_START).tolist()
    if offsets[:1] not in ([], [0]):
        raise ValueError(f"{path}: {offsets[0]} bytes before the first frame")
    payload = raw[_OFFSETS_START + 8 * count:]
    ends = offsets[1:] + [len(payload)]
    if any(a > b for a, b in zip(offsets, ends)):
        raise ValueError(f"{path}: frame offsets out of order or past the end")
    return [payload[a:b] for a, b in zip(offsets, ends)]
