"""Core types for sparse multidimensional spectra.

A signal is a finite sum of complex exponentials

    f(x) = sum_j a_j * exp(2*pi*i * w_j . x),   x in [0,1)^d,

with integer frequency vectors w_j in [-N/2, N/2)^d. A ``SparseSpectrum``
holds the s modes as an (s, d) frequency array and an (s,) coefficient
array; a ``FourierMode`` is one (w_j, a_j) pair, for iteration.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComparisonReport",
    "FourierMode",
    "SparseSpectrum",
    "compare",
    "evaluate_spectrum",
    "read_signal_file",
    "write_signal_file",
]


def _is_int(value) -> bool:
    """A Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _key64(value) -> int:
    """An integer seed or stream tag as a 64-bit key, mod 2^64; a float raises TypeError."""
    return operator.index(value) % 2**64


def _is_real(value) -> bool:
    """A real number (Python, numpy or any ``numbers.Real``) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _row_keys(freqs: np.ndarray) -> np.ndarray:
    """One void scalar per row of a C-order (n, d) int64 array: numpy's set routines
    then treat whole rows as single values, far faster than ``axis=0``."""
    return freqs.view(np.dtype((np.void, 8 * freqs.shape[1])))[:, 0]


@dataclass(frozen=True)
class FourierMode:
    """One (frequency vector, coefficient) pair of a sparse spectrum."""

    freq: tuple[int, ...]
    coeff: complex

    def __post_init__(self):
        raw = tuple(self.freq)
        try:
            freq = tuple(map(int, raw))
        except (ValueError, OverflowError):  # int(nan), int(inf)
            freq = None
        if freq != raw:
            raise ValueError(f"frequency entries must be integers, got {raw}")
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "coeff", complex(self.coeff))
        if not (math.isfinite(self.coeff.real) and math.isfinite(self.coeff.imag)):
            raise ValueError(f"coefficient must be finite, got {self.coeff}")


@dataclass(frozen=True, eq=False, init=False)
class SparseSpectrum:
    """A set of Fourier modes with bandwidth and dimension metadata.

    ``freqs`` is the read-only (n, dim) int64 array of frequency vectors and
    ``coeffs`` the read-only (n,) complex128 array of their coefficients.
    Every frequency entry must lie in [-bandwidth/2, bandwidth/2) and no two
    modes may share a frequency vector. Equality compares values in order.
    """

    freqs: np.ndarray
    coeffs: np.ndarray
    bandwidth: int
    dim: int

    def __init__(self, modes: Iterable[FourierMode], bandwidth: int, dim: int):
        modes = tuple(modes)
        self._store([m.freq for m in modes], [m.coeff for m in modes], bandwidth, dim)

    @classmethod
    def from_arrays(cls, freqs, coeffs, bandwidth: int, dim: int) -> SparseSpectrum:
        """The spectrum of copies of an (n, dim) frequency and an (n,) coefficient array."""
        spec = cls.__new__(cls)
        spec._store(freqs, coeffs, bandwidth, dim)
        return spec

    def _store(self, freqs, coeffs, bandwidth: int, dim: int) -> None:
        for name, value in (("bandwidth", bandwidth), ("dim", dim)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if bandwidth < 1:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        raw = np.asarray(freqs)
        N = int(bandwidth)  # a Python int: a numpy one would wrap past int64 unseen
        lo, hi = max(-(N // 2), -(2**63)), min((N + 1) // 2, 2**63)
        if not (np.all(raw >= lo) and np.all(raw < hi)):
            raise ValueError(f"frequency entries must lie in [{lo}, {hi}), bandwidth and int64")
        freqs = raw.astype(np.int64, order="C")
        if not np.array_equal(freqs, raw):
            raise ValueError("frequency entries must be integers")
        coeffs = np.array(coeffs, dtype=np.complex128)
        if not freqs.size:
            freqs = freqs.reshape(0, dim)
        if coeffs.ndim != 1 or freqs.shape != (len(coeffs), dim):
            raise ValueError(
                f"frequencies of shape {freqs.shape} and coefficients of shape "
                f"{coeffs.shape} do not form (n, {dim}) and (n,)"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        rows, counts = np.unique(_row_keys(freqs), return_counts=True)
        if np.any(counts > 1):
            dup = np.frombuffer(rows[counts.argmax()].tobytes(), np.int64)
            raise ValueError(f"duplicate frequency vector {tuple(dup.tolist())}")
        freqs.flags.writeable = coeffs.flags.writeable = False
        self.__dict__.update(freqs=freqs, coeffs=coeffs, bandwidth=bandwidth, dim=dim)

    @functools.cached_property
    def modes(self) -> tuple[FourierMode, ...]:
        """The modes as FourierMode pairs, built on first access."""
        return tuple(map(FourierMode, map(tuple, self.freqs.tolist()), self.coeffs.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseSpectrum):
            return NotImplemented
        return (self.bandwidth, self.dim) == (other.bandwidth, other.dim) and (
            np.array_equal(self.freqs, other.freqs) and np.array_equal(self.coeffs, other.coeffs)
        )

    def __len__(self) -> int:
        return len(self.coeffs)


def evaluate_spectrum(spec: SparseSpectrum, x) -> complex:
    """Evaluate ``sum_j a_j exp(2 pi i w_j . x)`` at a point x in [0,1)^d."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({spec.dim},)")
    phases = spec.freqs.astype(np.float64) @ x
    return complex(np.sum(spec.coeffs * np.exp(2j * np.pi * phases)))


def write_signal_file(spec: SparseSpectrum, path) -> None:
    """Write a spectrum in the signal-spec text format.

    Header line ``N d s`` followed by s lines ``re im w_1 ... w_d``.
    """
    with open(path, "w") as fh:
        fh.write(f"{spec.bandwidth} {spec.dim} {len(spec)}\n")
        for freq, coeff in zip(spec.freqs.tolist(), spec.coeffs.tolist()):
            ws = " ".join(map(str, freq))
            fh.write(f"{coeff.real!r} {coeff.imag!r} {ws}\n")


def read_signal_file(path) -> SparseSpectrum:
    """Parse a signal-spec text file written by :func:`write_signal_file`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed header {header!r}, expected 'N d s'")
        bandwidth, dim, count = (int(tok) for tok in header)
        freqs, coeffs = [], []
        for line_no, line in enumerate(fh, start=2):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2 + dim:
                raise ValueError(f"line {line_no}: expected {2 + dim} fields, got {len(tokens)}")
            coeffs.append(complex(float(tokens[0]), float(tokens[1])))
            freqs.append([int(tok) for tok in tokens[2:]])
    if len(coeffs) != count:
        raise ValueError(f"header declares {count} modes, file holds {len(coeffs)}")
    return SparseSpectrum.from_arrays(freqs, coeffs, bandwidth, dim)


@dataclass(frozen=True)
class ComparisonReport:
    exact_freq_rate: float
    l1_coeff_error: float
    missed: int
    spurious: int


def compare(truth: SparseSpectrum, found: SparseSpectrum) -> ComparisonReport:
    """Match by exact frequency equality; l1 error over the union support,
    the exactly rounded sum (``math.fsum``) of |a - b| and unmatched |a|."""
    if (truth.bandwidth, truth.dim) != (found.bandwidth, found.dim):
        raise ValueError("spectra have different (N, d)")
    _, ti, fi = np.intersect1d(
        _row_keys(truth.freqs), _row_keys(found.freqs), assume_unique=True, return_indices=True
    )
    t, f = truth.coeffs, found.coeffs
    terms = np.concatenate([t[ti] - f[fi], np.delete(t, ti), np.delete(f, fi)])
    # hypot is Python's abs() of a complex; np.abs can differ in the last bit.
    l1 = math.fsum(np.hypot(terms.real, terms.imag).tolist())
    return ComparisonReport(
        exact_freq_rate=len(ti) / len(truth) if len(truth) else 1.0,
        l1_coeff_error=l1,
        missed=len(truth) - len(ti),
        spurious=len(found) - len(ti),
    )
