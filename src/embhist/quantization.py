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


def _unnibble_rows(raw: np.ndarray, dim: int) -> np.ndarray:
    """(n, k) nibble bytes -> (n, dim) signed int8 codes; inverse of _nibble_rows."""
    codes = np.empty((len(raw), 2 * raw.shape[1]), dtype=np.int8)
    codes[:, 0::2] = raw & 0x0F
    codes[:, 1::2] = raw >> 4
    return codes[:, :dim] - 8


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
    for k in range(1, len(centers)):
        dist = np.abs(x - centers[k])
        idx[dist < best] = k
        best = np.minimum(best, dist)
    return idx


def payload_matrix(codec: Codec, z: np.ndarray) -> np.ndarray:
    """Payload bytes of every row of an (n, d) batch as an (n, payload_size(d))
    uint8 matrix; row i is quantize(codec, z[i]).payload."""
    z = np.asarray(z, dtype=np.float64)
    _require_finite(z)
    if codec.kind == "fp32":
        return np.clip(z, -1.0, 1.0).astype("<f4").view(np.uint8).reshape(len(z), -1)
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


def _decode_codes(codec: Codec, codes: np.ndarray) -> np.ndarray:
    """Values of integer codes: signed for the uniform codecs, codebook
    indices 0..15 for int4_kmeans."""
    if codec.kind == "int8_uniform":
        return codes / 127.0
    if codec.kind == "int4_uniform":
        return codes / 8.0
    return np.asarray(codec.codebook)[codes]


def dequantize(codec: Codec, q: QuantizedVec) -> np.ndarray:
    if q.codec_id != CODEC_IDS[codec.kind]:
        raise FormatError("codec id mismatch")
    expected = codec.payload_size(q.dim)
    if len(q.payload) != expected:
        raise FormatError(
            f"truncated payload: {len(q.payload)} bytes, expected {expected}"
        )
    return dequantize_batch(codec, np.frombuffer(q.payload, dtype=np.uint8)[None, :], q.dim)[0]


def dequantize_batch(codec: Codec, payloads: np.ndarray, dim: int) -> np.ndarray:
    """Values of an (n, payload_size(dim)) uint8 payload matrix as an (n, dim)
    array; the inverse of payload_matrix."""
    raw = np.ascontiguousarray(payloads, dtype=np.uint8)
    if codec.kind == "fp32":
        return raw.view("<f4").astype(np.float64)
    if codec.kind == "int8_uniform":
        return _decode_codes(codec, raw.view(np.int8))
    codes = _unnibble_rows(raw, dim)
    return _decode_codes(codec, codes if codec.kind == "int4_uniform" else codes + 8)


def reconstruction_mse(codec: Codec, z: np.ndarray) -> float:
    """Mean squared error of quantize->dequantize over an (n, d) batch."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    approx = dequantize_batch(codec, payload_matrix(codec, z), z.shape[1])
    return float(np.mean((z - approx) ** 2))


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
    assign = np.empty(len(xs), dtype=np.int64)
    assign[perm] = np.repeat(order, np.diff(lo, prepend=0, append=len(xs)))
    return assign


def fit_kmeans_int4(samples, iters: int = 50, seed: int = 0) -> tuple[Codec, list[float]]:
    """Lloyd's algorithm with k-means++ init over the pooled scalar samples.

    Returns the fitted codec (centers sorted ascending) and the SSE per
    iteration, which is non-increasing. Empty clusters are reseeded to the
    sample farthest from its assigned center. Assignments come from one
    sort of the samples (see _sorted_nearest) and equal _nearest's; each
    cluster mean sums its members in sample order.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    _require_finite(x)
    uniq = np.unique(x)
    if len(uniq) < 16:
        raise DataError(f"k-means needs >= 16 distinct samples, got {len(uniq)}")

    stream = Stream(derive_seed(seed, "kmeanspp"))
    centers = np.empty(16)
    centers[0] = x[stream.randint(len(x))]
    d2 = (x - centers[0]) ** 2
    for k in range(1, 16):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at chosen centers; pick an unused distinct value
            unused = np.setdiff1d(uniq, centers[:k])
            centers[k] = unused[0]
        else:
            centers[k] = x[stream.choice_weighted(d2)]
        d2 = np.minimum(d2, (x - centers[k]) ** 2)

    perm = np.argsort(x, kind="stable")
    xs, scale = x[perm], float(max(-uniq[0], uniq[-1]))

    def nearest(centers):
        assign = _sorted_nearest(xs, perm, centers, scale)
        return _nearest(x, centers) if assign is None else assign

    sse_history: list[float] = []
    for _ in range(iters):
        assign = nearest(centers)
        err = (x - centers[assign]) ** 2
        sse_history.append(float(err.sum()))
        grouped = x[np.argsort(assign.astype(np.uint8), kind="stable")]
        edges = np.concatenate([[0], np.cumsum(np.bincount(assign, minlength=16))])
        new_centers = centers.copy()
        for k in range(16):
            members = grouped[edges[k]:edges[k + 1]]
            if len(members):
                new_centers[k] = members.mean()
            else:
                far = int(err.argmax())
                new_centers[k] = x[far]
                err[far] = 0.0
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    assign = nearest(centers)
    sse_history.append(float(((x - centers[assign]) ** 2).sum()))
    order = np.argsort(centers, kind="mergesort")
    centers = centers[order]
    # strictly-ascending invariant: collapse of duplicate centers cannot
    # happen with >= 16 distinct samples and final Lloyd means, but guard it
    if not np.all(np.diff(centers) > 0):
        centers = np.unique(centers)
        fill = np.setdiff1d(uniq, centers)
        centers = np.sort(np.concatenate([centers, fill[: 16 - len(centers)]]))
    return Codec("int4_kmeans", tuple(float(c) for c in centers)), sse_history


def codec_from_id(codec_id: int, codebook=None) -> Codec:
    if codec_id not in _ID_TO_NAME:
        raise FormatError(f"unknown codec id {codec_id}")
    name = _ID_TO_NAME[codec_id]
    if name == "int4_kmeans":
        return Codec(name, tuple(codebook))
    return Codec(name)
