"""Deterministic, replayable random number generation.

All randomness in this package flows through a SplitMix64 generator so that
runs can be replayed bit-for-bit from a 64-bit seed, including by
reimplementations in other languages.  The algorithm, in full:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64        (golden gamma)
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output  <- z XOR (z >> 31)

Doubles are produced as ``(output >> 11) * 2**-53`` and lie in [0, 1).
Derived seeds are produced by hashing a text label with FNV-1a 64
and passing ``root XOR hash`` through the mix function above.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(root: int, label: str) -> int:
    """Derive an independent child seed from a root seed and a text label.

    ``derive_seed(root, label) = mix64(root XOR fnv1a64(label))``.  Used to
    give every benchmark run, image, and solver its own reproducible stream.
    """
    return _mix64((root & _MASK64) ^ fnv1a64(label.encode("utf-8")))


class SplitMix64:
    """Counter-based SplitMix64 generator; child streams come from :func:`derive_seed`."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_double(self) -> float:
        """Uniform double in [0, 1) with 53 random mantissa bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_index(self, bound: int) -> int:
        """Uniform integer in [0, bound) as floor(u * bound), clamped."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return min(int(self.next_double() * bound), bound - 1)

    def doubles(self, count: int) -> np.ndarray:
        """The next ``count`` doubles, as ``count`` calls of :meth:`next_double`.

        Computed in wrapping uint64 arithmetic; the values and the final
        state are the same bits as the scalar calls.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


class CategoricalSampler:
    """Draw indices with fixed probabilities via cumulative weights.

    Takes a :class:`pdasgd.core.Distribution`, which has validated the
    weights.  The cumulative-weight array is precomputed once; each draw
    consumes one uniform double and binary-searches for the first
    cumulative weight strictly greater than it (O(log n) per draw).
    Zero-weight categories are never drawn.
    """

    def __init__(self, weights):
        self._cum = np.cumsum(weights.weights)
        self.n = weights.n

    def draw(self, rng: SplitMix64) -> int:
        u = rng.next_double()
        return min(int(np.searchsorted(self._cum, u, side="right")), self.n - 1)

    def draws(self, rng: SplitMix64, count: int) -> np.ndarray:
        """``count`` draws in one search; the same indices as ``count`` :meth:`draw` calls."""
        idx = np.searchsorted(self._cum, rng.doubles(count), side="right")
        return np.minimum(idx, self.n - 1)
