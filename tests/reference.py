"""Brute-force references the tests compare the package against: a direct
O(p^2) DFT, a dense transform of a tiny spectrum, the point form of the
block unwrapping, a one-row-per-draw random spectrum, shift phases in
rational arithmetic and shift weights from one exact-phase exponential each."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from msfourier.estimator import _frac_product
from msfourier.spectrum import SparseSpectrum
from msfourier.unwrap import UnwrapMap

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


def unwrap_point(t, umap: UnwrapMap) -> np.ndarray:
    """Map a reduced-domain point to the full domain (entries not reduced mod 1)."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (umap.reduced_dim,):
        raise ValueError(f"point has shape {t.shape}, expected ({umap.reduced_dim},)")
    return (t[:, None] * umap.powers()[None, :].astype(np.float64)).ravel()


def random_spectrum_per_row(N: int, d: int, s: int, seed: int) -> SparseSpectrum:
    """``cli.random_spectrum`` drawing one frequency row at a time."""
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    coeffs = np.exp(2j * np.pi * rng.random(s))
    freqs: dict[tuple[int, ...], None] = {}
    while len(freqs) < s:
        freqs.setdefault(tuple(rng.integers(-(N // 2), (N + 1) // 2, size=d).tolist()))
    return SparseSpectrum.from_arrays(list(freqs), coeffs, N, d)


def _exact_frac_product(a: float, b: float) -> float:
    exact = Fraction(a) * Fraction(b)
    return float(exact - math.floor(exact + Fraction(1, 2)))


# (a b) mod 1 in [-1/2, 1/2) of float64 arrays a and b (broadcast), computed
# exactly in rationals and rounded once to float64.
frac_product = np.vectorize(_exact_frac_product, otypes=[np.float64])


def shift_weights(coeffs: np.ndarray, freqs_t: np.ndarray, eps: float) -> np.ndarray:
    """coeffs * exp(2 pi i w eps) for every row w of ``freqs_t``, with the
    phase w eps reduced mod 1 from its exact value, not its rounded one.

    ``freqs_t`` is float64 with the modes along its last axis: the (d', n)
    transpose of the unwrapped frequencies gives one row of weights per
    shift axis, a single column ``freqs[:, k]`` gives that axis's weights.
    """
    return coeffs * np.exp(2j * np.pi * _frac_product(freqs_t, eps))
