"""Deterministic, platform-independent random streams (splitmix64).

Every stochastic choice in the package (parameter init, world sampling,
k-means seeding) flows through streams derived here, so a (seed, name)
pair fully pins the result on any platform.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, output)."""
    state = (state + _GOLDEN) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _M64
    return h


def derive_seed(*parts: int | str) -> int:
    """Fold ints/strings into a 64-bit stream seed, order-sensitive."""
    state = 0x8000000000000000
    for part in parts:
        if isinstance(part, str):
            value = _fnv1a64(part.encode("utf-8"))
        else:
            value = int(part) & _M64
        state, out = splitmix64(state ^ value)
        state ^= out
    _, out = splitmix64(state)
    return out


def uniform_array(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n uniforms in [0, 1) from the counter-based splitmix64 stream.

    Counter-based: element i depends only on (seed, start + i), so slices
    of the same stream are reproducible regardless of batching. An array
    of seeds gives one stream per seed along a new last axis.
    """
    counters = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = np.asarray(seed & _M64, dtype=np.uint64)[..., None] + counters * np.uint64(_GOLDEN)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)  # in place: one state-sized temporary at a time
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    # 53-bit mantissa -> exact double in [0, 1), written over the state
    return np.multiply(z, 1.0 / (1 << 53), out=z.view(np.float64))


class Stream:
    """Sequential view over the counter-based stream."""

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self._pos = 0

    def uniforms(self, n: int) -> np.ndarray:
        out = uniform_array(self.seed, n, start=self._pos)
        self._pos += n
        return out

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def randint(self, bound: int) -> int:
        """Integer in [0, bound) via rejection-free scaling (bound << 2**53)."""
        return int(self.uniform() * bound)
