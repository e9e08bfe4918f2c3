"""Append-only keyed store of quantized embedding records, held as columns.

Sequences honor a retention window, a length cap, and strict exclusion of
anything at or after the query timestamp, so serving never needs a
real-time teacher pass. Records with equal timestamps are returned
later-inserted-first. The on-disk format is little-endian and documented
byte-exactly in FORMATS.md; every record carries a crc32 so single-byte
corruption is caught and reported with the record index.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError, unpack_from
from .quantization import (
    CODEC_IDS, Codec, QuantizedVec, code_matrix, codec_from_id, dequantize_batch,
)

_MAGIC = b"LFSQ"
_VERSION = 1


@dataclass(frozen=True)
class EmbeddingRecord:
    """One record as `SequenceStore.append` takes it; the store keeps columns."""

    key: int
    timestamp: int
    payload: QuantizedVec
    soft_label: float | None = None


@dataclass(frozen=True)
class SequenceFeature:
    """Up to L dequantized entries, most recent first, zero padded."""

    entries: np.ndarray     # (L, d)
    mask: np.ndarray        # (L,) bool
    timestamps: np.ndarray  # (L,) int64, -1 on padding
    length: int


class SequenceStore:
    """Records in insertion order as read-only columns, which `extend`
    concatenates onto: `keys` (u64), `timestamps` (i64), `soft_labels` (f64,
    NaN for a record without one) and the (n, payload_size) uint8 `payloads`
    matrix. Queries read a (key, timestamp, insertion) sort and the codes in
    that order (`quantization.code_matrix`), built on the first query after
    an append; a query decodes only the rows it returns."""

    def __init__(self, dim: int, codec: Codec):
        self.dim = dim
        self.codec = codec
        self.keys, self.timestamps, self.soft_labels, self.payloads = _read_only(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64), np.zeros(0),
            np.zeros((0, codec.payload_size(dim)), dtype=np.uint8))
        self._frozen = False
        self._index = None

    def __len__(self) -> int:
        return len(self.keys)

    def freeze(self) -> None:
        """After freezing the store is immutable and safely shareable."""
        self._frozen = True

    def append(self, rec: EmbeddingRecord) -> None:
        soft = math.nan if rec.soft_label is None else rec.soft_label
        self.extend([rec.key], [rec.timestamp], [soft],
                    np.frombuffer(rec.payload.payload, dtype=np.uint8)[None, :],
                    rec.payload.dim)

    def extend(self, keys, timestamps, soft_labels, payloads, dim: int) -> None:
        """Append one record per row. `payloads` holds the codec bytes of
        `dim`-wide vectors, one row each; a NaN soft label means none."""
        if self._frozen:
            raise ConfigError("store is frozen")
        if dim != self.dim:
            raise FormatError(f"record dim {dim} != store dim {self.dim}")
        payloads = np.asarray(payloads, dtype=np.uint8)
        if payloads.ndim != 2 or payloads.shape[1] != self.payloads.shape[1]:
            raise FormatError("payload length does not match the store codec")
        keys, timestamps = np.asarray(keys), np.asarray(timestamps)
        soft = np.asarray(soft_labels, dtype=np.float64)
        if not len(keys) == len(timestamps) == len(soft) == len(payloads):
            raise DimensionError("record columns differ in length")
        if (keys < 0).any() or (timestamps < 0).any():
            raise FormatError("key and timestamp must be non-negative")
        if ((soft < 0.0) | (soft > 1.0)).any():
            raise FormatError("soft label must lie in [0, 1]")
        self.keys, self.timestamps, self.soft_labels, self.payloads = _read_only(
            np.concatenate([self.keys, keys.astype(np.uint64)]),
            np.concatenate([self.timestamps, timestamps.astype(np.int64)]),
            np.concatenate([self.soft_labels, soft]),
            np.concatenate([self.payloads, payloads]))
        self._index = None

    def _query_index(self):
        """(canonical order, its timestamps, key -> span of that order, code
        rows in that order, their value table or None for fp32)."""
        if self._index is None:
            order = np.lexsort((self.timestamps, self.keys))  # stable: ties by insertion
            keys, starts = np.unique(self.keys[order], return_index=True)
            stops = np.append(starts[1:], len(order))
            spans = dict(zip(keys.tolist(), zip(starts.tolist(), stops.tolist())))
            self._index = (order, self.timestamps[order], spans,
                           *code_matrix(self.codec, self.payloads[order], self.dim))
        return self._index

    def dequantized(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows [start, stop) in insertion order, dequantized now and not kept."""
        return dequantize_batch(self.codec, self.payloads[start:stop], self.dim)

    def build_sequence(self, key: int, t_cur: int, seq_len: int,
                       window: int) -> SequenceFeature:
        """Most recent seq_len records of `key` with timestamp in
        [t_cur - window, t_cur); unknown keys give the empty sequence."""
        if seq_len < 1:
            raise ConfigError("sequence length cap must be >= 1")
        if window <= 0:
            raise ConfigError("retention window must be > 0")
        _, stamps, spans, codes, table = self._query_index()
        start, stop = spans.get(key, (0, 0))
        lo = start + stamps[start:stop].searchsorted(t_cur - window)
        hi = start + stamps[start:stop].searchsorted(t_cur)
        first = max(lo, hi - seq_len)
        n = int(hi - first)
        recent = codes[first:hi]
        if table is not None:  # a flat lookup: one take over the rows' codes
            recent = table.take(recent.ravel()).reshape(recent.shape)
        entries = np.zeros((seq_len, self.dim))
        entries[:n] = recent[::-1]  # equal stamps: later insert first
        times = np.full(seq_len, -1, dtype=np.int64)
        times[:n] = stamps[first:hi][::-1]
        return SequenceFeature(entries, np.arange(seq_len) < n, times, n)

    # -- persistence -------------------------------------------------------

    def persist(self, path) -> None:
        """Canonical order: (key, timestamp, insertion counter)."""
        order = self._query_index()[0]
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            centers = self.codec.codebook or ()
            fh.write(struct.pack("<IIBB", _VERSION, self.dim,
                                 self.codec_id(), len(centers)))
            for c in centers:
                fh.write(struct.pack("<d", c))
            fh.write(struct.pack("<Q", len(order)))
            for key, ts, soft, payload in zip(
                    self.keys[order].tolist(), self.timestamps[order].tolist(),
                    self.soft_labels[order].tolist(), self.payloads[order]):
                fh.write(_record_bytes(key, ts, soft, payload.tobytes()))

    def codec_id(self) -> int:
        return CODEC_IDS[self.codec.kind]

    @classmethod
    def load(cls, path) -> "SequenceStore":
        """Every read is length-checked: a short file raises FormatError
        naming the offset."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise FormatError(f"bad magic {blob[:4]!r} at offset 0")
        (version, dim, codec_id, n_centers), off = unpack_from("<IIBB", blob, 4)
        if version != _VERSION:
            raise FormatError(f"unsupported store version {version}")
        centers, off = unpack_from(f"<{n_centers}d", blob, off)
        codec = codec_from_id(codec_id, centers)
        (count,), off = unpack_from("<Q", blob, off)
        payload_len = codec.payload_size(dim)
        rows = []
        for i in range(count):
            row, off = _parse_record(blob, off, i, payload_len)
            rows.append(row)
        if off != len(blob):
            raise FormatError(f"{len(blob) - off} trailing bytes at offset {off}")
        keys, stamps, soft, payloads = zip(*rows) if rows else ((), (), (), ())
        store = cls(dim, codec)
        store.extend(np.array(keys, dtype=np.uint64), stamps, soft,
                     np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(count, payload_len),
                     dim)
        return store


def _read_only(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    for column in columns:
        column.flags.writeable = False
    return columns


def _record_bytes(key: int, timestamp: int, soft: float, payload: bytes) -> bytes:
    if math.isnan(soft):
        body = struct.pack("<QqB", key, timestamp, 0) + payload
    else:
        body = struct.pack("<QqBd", key, timestamp, 1, soft) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _parse_record(blob: bytes, off: int, index: int, payload_len: int):
    """(key, timestamp, soft label or NaN, payload bytes), next offset."""
    start = off
    (key, ts, flag), off = unpack_from("<QqB", blob, off)
    if flag not in (0, 1):
        raise FormatError(f"record {index}: bad soft-label flag {flag}")
    soft = math.nan
    if flag:
        (soft,), off = unpack_from("<d", blob, off)
    (payload, crc), off = unpack_from(f"<{payload_len}sI", blob, off)
    if zlib.crc32(blob[start : off - 4]) != crc:
        raise FormatError(f"record {index}: crc mismatch (corrupt payload)")
    if ts < 0:
        raise FormatError(f"record {index}: negative timestamp")
    if flag and not 0.0 <= soft <= 1.0:
        raise FormatError(f"record {index}: soft label {soft} outside [0, 1]")
    return (key, ts, soft, payload), off


def centroid_drift(rows_a: np.ndarray, rows_b: np.ndarray) -> float:
    """L2 distance between the mean rows of two (n, d) blocks of dequantized
    embeddings; each mean sums its block in row order."""
    if not len(rows_a) or not len(rows_b):
        raise DataError("centroid of an empty block")
    if rows_a.shape[1] != rows_b.shape[1]:
        raise DimensionError("blocks have different dims")
    return float(np.linalg.norm(rows_a.mean(axis=0) - rows_b.mean(axis=0)))
