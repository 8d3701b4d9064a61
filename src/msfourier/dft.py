"""Prime selection, prime-length forward DFT, and top-bin ranking.

Sample vectors always have prime length p; numpy's FFT handles prime
lengths in O(p log p). A block of sample vectors stacked as rows is
transformed in one call, which costs far less per row than one call per
vector at the short lengths the peeling loop uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BinRanking", "next_prime_at_least", "dft_forward", "top_bins"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime_at_least(x: float) -> int:
    """Smallest prime >= ceil(x)."""
    if x > 2**62:
        raise ValueError(f"{x} out of supported range")
    n = max(2, math.ceil(x))
    while not _is_prime(n):
        n += 1
    return n


def dft_forward(v) -> np.ndarray:
    """F[..., m] = sum_l v[..., l] exp(-2 pi i m l / p) for m = 0..p-1.

    Transforms along the last axis: each row of a (rows, p) block gets
    the 1-D transform of that row, bit for bit (the tests check this).
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ValueError("input must have a nonempty last axis")
    return np.fft.fft(v)


@dataclass(frozen=True)
class BinRanking:
    """Top DFT bins by descending magnitude, ties to the lower bin index."""

    order: np.ndarray
    spectrum: np.ndarray


def top_bins(F, count: int) -> BinRanking:
    """Rank the ``count`` largest-magnitude bins of a DFT vector."""
    F = np.asarray(F, dtype=np.complex128)
    if count > len(F):
        raise ValueError(f"count {count} exceeds vector length {len(F)}")
    # Stable sort on negated magnitudes keeps equal-magnitude bins in index order.
    order = np.argsort(-np.abs(F), kind="stable")[:count]
    return BinRanking(order=order.astype(np.int64), spectrum=F)
