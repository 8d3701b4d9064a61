"""Brute-force references for tests: direct DFT, dense tiny-scale spectra,
and mode-set comparison metrics."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectrum import SparseSpectrum

__all__ = ["ComparisonReport", "direct_dft", "dense_spectrum", "compare"]

_DENSE_CAP = 10**6


@functools.lru_cache(maxsize=8)
def _dft_matrix(p: int) -> np.ndarray:
    grid = np.arange(p)
    return np.exp((-2j * np.pi / p) * np.outer(grid, grid))


def direct_dft(v) -> np.ndarray:
    """Literal O(p^2) summation of the DFT definition."""
    v = np.asarray(v, dtype=np.complex128)
    return _dft_matrix(len(v)) @ v


def dense_spectrum(truth: SparseSpectrum, N: int, d: int) -> np.ndarray:
    """Coefficient grid from an exhaustive transform of the full N^d grid.

    Output index along each axis is the frequency reduced mod N (standard
    FFT layout); entry at w mod N equals the coefficient of w within 1e-9.
    Guarded to N^d <= 1e6.
    """
    if truth.bandwidth != N or truth.dim != d:
        raise ValueError("spectrum geometry does not match (N, d)")
    if N**d > _DENSE_CAP:
        raise ValueError(f"dense grid size N^d = {N**d} exceeds cap {_DENSE_CAP}")
    axis = np.arange(N, dtype=np.float64) / N
    grid = np.zeros((N,) * d, dtype=np.complex128)
    for mode in truth.modes:
        factors = [np.exp(2j * np.pi * w * axis) for w in mode.freq]
        grid += mode.coeff * functools.reduce(np.multiply.outer, factors)
    return np.fft.fftn(grid) / N**d


@dataclass(frozen=True)
class ComparisonReport:
    exact_freq_rate: float
    l1_coeff_error: float
    missed: int
    spurious: int


def compare(truth: SparseSpectrum, found: SparseSpectrum) -> ComparisonReport:
    """Match by exact frequency equality; l1 error over the union support."""
    if (truth.bandwidth, truth.dim) != (found.bandwidth, found.dim):
        raise ValueError("spectra have different (N, d)")
    t = dict(zip(map(tuple, truth.freqs.tolist()), truth.coeffs.tolist()))
    f = dict(zip(map(tuple, found.freqs.tolist()), found.coeffs.tolist()))
    matched = t.keys() & f.keys()
    l1 = sum(abs(t[w] - f[w]) for w in matched)
    l1 += sum(abs(a) for w, a in t.items() if w not in matched)
    l1 += sum(abs(a) for w, a in f.items() if w not in matched)
    rate = len(matched) / len(t) if t else 1.0
    return ComparisonReport(
        exact_freq_rate=rate,
        l1_coeff_error=float(l1),
        missed=len(t) - len(matched),
        spurious=len(f) - len(matched),
    )
