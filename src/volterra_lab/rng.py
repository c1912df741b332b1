"""Deterministic sampling for trials and initial data.

Randomness is built on splitmix64 so every draw is reproducible bit for bit
from a 64-bit seed, independent of numpy version or platform.  The state
advances by the additive constant 0x9E3779B97F4A7C15 and each output runs the
finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

on the new state.  Doubles take the top 53 bits over 2**53.  Site variables
are drawn log-uniformly as 10**(2r - 1) with r uniform in [0, 1), which lands
in [0.1, 10).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SplitMix64",
    "substream_seed",
    "random_state",
    "uniform_matrix",
    "skew_matrix",
]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Tiny deterministic generator; one instance per independent trial."""

    def __init__(self, seed: int):
        self._x = seed & _MASK

    def next_u64(self) -> int:
        self._x = (self._x + _GAMMA) & _MASK
        return _finalize(self._x)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_signed(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0


def substream_seed(seed: int, *indices: int) -> int:
    """Fold trial indices into a seed so substreams do not overlap.

    Each index perturbs the state by a multiple of the splitmix constant and
    is then scrambled by the output finalizer, which is a bijection on 64-bit
    words, so distinct index tuples give decorrelated streams.
    """
    x = seed & _MASK
    for ix in indices:
        x = _finalize((x + _GAMMA * (int(ix) + 1)) & _MASK)
    return x


def random_state(n: int, stream: SplitMix64) -> np.ndarray:
    """Log-uniform site variables in [0.1, 10), one per site."""
    if n < 1:
        raise ValueError("need at least one site")
    return np.array([10.0 ** (2.0 * stream.uniform() - 1.0) for _ in range(n)])


def uniform_matrix(dim: int, stream: SplitMix64) -> np.ndarray:
    """Dense matrix with entries uniform in [-1, 1), filled row-major."""
    return np.array(
        [[stream.uniform_signed() for _ in range(dim)] for _ in range(dim)]
    )


def skew_matrix(dim: int, stream: SplitMix64) -> np.ndarray:
    m = uniform_matrix(dim, stream)
    return 0.5 * (m - m.T)
