"""Bit-exact codecs for stored embeddings.

Four variants: fp32 passthrough, uniform int8, uniform int4
(code = clamp(round(z*8), -8, 7), value = code/8), and int4 with a learned
16-entry scalar codebook fitted by Lloyd's algorithm on the pooled scalars
of all dimensions. Nibble payloads store two codes per byte, low nibble
first; int4 codes are kept offset-by-8 as unsigned nibbles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, FormatError
from .prng import Stream, derive_seed

CODEC_IDS = {"fp32": 0, "int8_uniform": 1, "int4_uniform": 2, "int4_kmeans": 3}
_ID_TO_NAME = {v: k for k, v in CODEC_IDS.items()}


@dataclass(frozen=True)
class Codec:
    kind: str
    codebook: tuple[float, ...] | None = None  # int4_kmeans only, 16 ascending

    def __post_init__(self):
        if self.kind not in CODEC_IDS:
            raise FormatError(f"unknown codec {self.kind!r}")
        if self.kind == "int4_kmeans":
            if self.codebook is None or len(self.codebook) != 16:
                raise FormatError("int4_kmeans needs a 16-entry codebook")
            cb = np.asarray(self.codebook)
            if not np.all(np.diff(cb) > 0):
                raise FormatError("codebook must be strictly ascending")
        elif self.codebook is not None:
            raise FormatError(f"{self.kind} takes no codebook")

    @property
    def bits(self) -> int:
        return {"fp32": 32, "int8_uniform": 8, "int4_uniform": 4, "int4_kmeans": 4}[self.kind]

    def payload_size(self, dim: int) -> int:
        return (dim * self.bits + 7) // 8


@dataclass(frozen=True)
class QuantizedVec:
    codec_id: int
    dim: int
    payload: bytes


def _nibble_rows(codes: np.ndarray) -> np.ndarray:
    """(n, d) signed codes in [-8, 7] -> (n, ceil(d/2)) offset-by-8 nibble
    bytes, low nibble first; an odd d pads with a zero nibble."""
    u = np.zeros((len(codes), codes.shape[1] + codes.shape[1] % 2), dtype=np.uint8)
    u[:, : codes.shape[1]] = codes + 8
    return u[:, 0::2] | (u[:, 1::2] << 4)


def _codes_matrix(codec: Codec, z: np.ndarray) -> np.ndarray:
    """Integer codes for a (n, d) batch; clamps inputs into [-1, 1] first."""
    zc = np.clip(z, -1.0, 1.0)
    if codec.kind == "int8_uniform":
        return np.clip(np.round(zc * 127.0), -128, 127).astype(np.int64)
    if codec.kind == "int4_uniform":
        return np.clip(np.round(zc * 8.0), -8, 7).astype(np.int64)
    if codec.kind == "int4_kmeans":
        return _nearest(zc, codec.codebook)
    raise FormatError(f"no integer codes for codec {codec.kind}")


def _nearest(x: np.ndarray, centers) -> np.ndarray:
    """Index of the nearest center for every element of x, ties to the
    lower index (argmin over |x - c|). One center at a time, so no
    (x.size, len(centers)) temporary is made."""
    best, idx = np.abs(x - centers[0]), np.zeros(np.shape(x), dtype=np.int64)
    dist = np.empty_like(best)
    for k in range(1, len(centers)):
        np.abs(np.subtract(x, centers[k], out=dist), out=dist)
        idx[dist < best] = k
        np.minimum(best, dist, out=best)
    return idx


def payload_matrix(codec: Codec, z: np.ndarray) -> np.ndarray:
    """Payload bytes of every row of an (n, d) batch as an (n, payload_size(d))
    uint8 matrix; row i is quantize(codec, z[i]).payload."""
    z = np.asarray(z, dtype=np.float64)
    _require_finite(z)
    if codec.kind == "fp32":
        return np.clip(z, -1.0, 1.0).astype("<f4").view(np.uint8).reshape(
            len(z), codec.payload_size(z.shape[1]))
    codes = _codes_matrix(codec, z)
    if codec.kind == "int8_uniform":
        return (codes & 0xFF).astype(np.uint8)
    # int4_kmeans indices 0..15 are stored like signed codes, offset by 8
    return _nibble_rows(codes if codec.kind == "int4_uniform" else codes - 8)


def quantize(codec: Codec, z) -> QuantizedVec:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionError("quantize expects a 1-D vector")
    return QuantizedVec(CODEC_IDS[codec.kind], len(z),
                        payload_matrix(codec, z[None, :])[0].tobytes())


def dequantize(codec: Codec, q: QuantizedVec) -> np.ndarray:
    if q.codec_id != CODEC_IDS[codec.kind]:
        raise FormatError("codec id mismatch")
    expected = codec.payload_size(q.dim)
    if len(q.payload) != expected:
        raise FormatError(
            f"truncated payload: {len(q.payload)} bytes, expected {expected}"
        )
    return dequantize_batch(codec, np.frombuffer(q.payload, dtype=np.uint8)[None, :], q.dim)[0]


def code_matrix(codec: Codec, payloads: np.ndarray, dim: int):
    """(codes, table) of an (n, payload_size(dim)) uint8 payload matrix: its
    `<f4` view and None for fp32; else (n, dim) uint8 codes, the payload bytes
    (int8) or its nibbles (int4), and each code's value (signed byte / 127,
    offset-by-8 nibble / 8, or codebook center)."""
    raw = np.ascontiguousarray(payloads, dtype=np.uint8)
    if codec.kind == "fp32":
        return raw.view("<f4"), None
    if codec.kind == "int8_uniform":
        return raw, np.arange(256, dtype=np.uint8).view(np.int8) / 127.0
    nibbles = np.empty((len(raw), 2 * raw.shape[1]), dtype=np.uint8)
    np.bitwise_and(raw, 0x0F, out=nibbles[:, 0::2])
    np.right_shift(raw, 4, out=nibbles[:, 1::2])
    return nibbles[:, :dim], (np.arange(-8, 8) / 8.0 if codec.kind == "int4_uniform"
                              else np.asarray(codec.codebook))


def dequantize_batch(codec: Codec, payloads: np.ndarray, dim: int) -> np.ndarray:
    """Values of an (n, payload_size(dim)) uint8 payload matrix as an (n, dim)
    array; the inverse of payload_matrix."""
    codes, table = code_matrix(codec, payloads, dim)
    return codes.astype(np.float64) if table is None else table[codes]


def reconstruction_mse(codec: Codec, z: np.ndarray) -> float:
    """Mean squared error of quantize->dequantize over an (n, d) batch; rows
    are quantized 256 at a time into one whole-batch error buffer."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    err = np.empty_like(z)
    for start in range(0, len(z), 256):
        rows = slice(start, start + 256)
        approx = dequantize_batch(codec, payload_matrix(codec, z[rows]), z.shape[1])
        np.subtract(z[rows], approx, out=err[rows])
    return float(np.mean(np.square(err, out=err)))


def _require_finite(x: np.ndarray) -> None:
    """DataError naming the first non-finite element of x, if any."""
    bad = ~np.isfinite(x)
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataError(f"non-finite sample {x[at]} at index {at[0] if len(at) == 1 else at}")


def _sorted_nearest(xs: np.ndarray, perm: np.ndarray, centers: np.ndarray,
                    scale: float) -> np.ndarray | None:
    """_nearest(x, centers) from x's stable sort (xs = x[perm], max |x| =
    scale), or None when the centers are too close for this to be exact.

    Let M = max(|x|, |c|). Each computed |x - c| is within eps*M of the
    exact distance. When adjacent sorted centers are more than 4*eps*M
    apart, a sample between sorted centers j and j+1 is therefore strictly
    nearer to them than to any other center, and "j+1 beats j" under
    _nearest's rule (strictly nearer, or as near with the lower original
    index) is false and then true along the sorted samples. One bisection
    per adjacent pair finds the first sample where it is true.
    """
    order = np.argsort(centers, kind="stable")
    cs = centers[order]
    limit = 4 * np.finfo(np.float64).eps * max(scale, float(np.abs(cs).max()))
    if not (np.isfinite(cs).all() and (np.diff(cs) > limit).all()):
        return None
    lower, upper, upper_first = cs[:-1], cs[1:], order[1:] < order[:-1]
    lo, hi = np.zeros(len(lower), dtype=np.int64), np.full(len(lower), len(xs))
    for _ in range(len(xs).bit_length()):
        open_ = lo < hi
        mid = (lo + hi) // 2
        v = xs[np.minimum(mid, len(xs) - 1)]
        d0, d1 = np.abs(v - lower), np.abs(v - upper)
        wins = (d1 < d0) | ((d1 == d0) & upper_first)
        hi = np.where(open_ & wins, mid, hi)
        lo = np.where(open_ & ~wins, mid + 1, lo)
    assign = np.empty(len(xs), dtype=np.uint8)
    assign[perm] = np.repeat(order.astype(np.uint8), np.diff(lo, prepend=0, append=len(xs)))
    return assign


def fit_kmeans_int4(samples, iters: int = 50, seed: int = 0) -> tuple[Codec, list[float]]:
    """Lloyd's algorithm with k-means++ init over the pooled scalar samples.

    Returns the fitted codec (centers sorted ascending) and the SSE per
    iteration, which is non-increasing. Empty clusters are reseeded to the
    sample farthest from its assigned center. Assignments come from one
    sort of the samples (see _sorted_nearest) and equal _nearest's; each
    cluster mean sums its members, a run of that sort, in sample order.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    _require_finite(x)
    perm = np.argsort(x, kind="stable").astype(np.int32)
    # `err` is the scratch buffer (out=) of every sample-sized temporary
    err = np.take(x, perm, mode="clip")  # x sorted, for now
    distinct = len(x) and 1 + np.count_nonzero(err[1:] != err[:-1])
    if distinct < 16:
        raise DataError(f"k-means needs >= 16 distinct samples, got {distinct}")

    stream = Stream(derive_seed(seed, "kmeanspp"))
    centers = np.empty(16)
    centers[0] = x[stream.randint(len(x))]
    d2 = (x - centers[0]) ** 2
    for k in range(1, 16):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at chosen centers; pick an unused distinct value
            centers[k] = np.setdiff1d(x, centers[:k])[0]
        else:
            cumulative = np.cumsum(d2, out=err)  # the next center is drawn with weight d2
            centers[k] = x[np.searchsorted(cumulative, stream.uniform() * cumulative[-1], "right")]
        np.minimum(d2, np.square(np.subtract(x, centers[k], out=err), out=err), out=d2)
    xs, scale = np.take(x, perm, out=d2, mode="clip"), float(max(-x.min(), x.max()))
    del d2

    def nearest(centers):
        """(each sample's center, each one's (start, stop) run of the sort or None)"""
        assign = _sorted_nearest(xs, perm, centers, scale)
        if assign is None:
            return _nearest(x, centers).astype(np.uint8), None
        counts, order = np.bincount(assign, minlength=16), np.argsort(centers, kind="stable")
        stops = np.cumsum(counts[order])[np.argsort(order)]  # runs follow the sorted centers
        return assign, np.column_stack([stops - counts, stops])

    def squared_errors(centers, assign):
        np.take(centers, assign, out=err, mode="clip")  # in range: no bounds buffer
        return np.square(np.subtract(x, err, out=err), out=err)

    sse_history: list[float] = []
    for _ in range(iters):
        assign, runs = nearest(centers)
        sse_history.append(float(squared_errors(centers, assign).sum()))
        new_centers = centers.copy()
        for k in range(16):
            members = np.sort(perm[slice(*runs[k])]) if runs is not None else np.flatnonzero(
                assign == k)
            if len(members):
                new_centers[k] = np.take(x, members, mode="clip").mean()
            else:
                far = int(err.argmax())
                new_centers[k] = x[far]
                err[far] = 0.0
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    sse_history.append(float(squared_errors(centers, nearest(centers)[0]).sum()))
    order = np.argsort(centers, kind="mergesort")
    centers = centers[order]
    # strictly-ascending invariant: collapse of duplicate centers cannot
    # happen with >= 16 distinct samples and final Lloyd means, but guard it
    if not np.all(np.diff(centers) > 0):
        centers = np.unique(centers)
        fill = np.setdiff1d(x, centers)
        centers = np.sort(np.concatenate([centers, fill[: 16 - len(centers)]]))
    return Codec("int4_kmeans", tuple(float(c) for c in centers)), sse_history


def codec_from_id(codec_id: int, codebook=None) -> Codec:
    if codec_id not in _ID_TO_NAME:
        raise FormatError(f"unknown codec id {codec_id}")
    name = _ID_TO_NAME[codec_id]
    if name == "int4_kmeans":
        return Codec(name, tuple(codebook))
    return Codec(name)
