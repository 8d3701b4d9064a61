"""Multiscale noise-robust sparse Fourier recovery.

Recovers the s energetic integer frequency vectors (and their complex
coefficients) of a high-dimensional signal from noisy point samples, in
time and samples scaling like s * d * log N rather than N^d.

The package namespace holds what a user of ``recover`` and ``compare``
needs; the building blocks live in the submodules ``estimator``,
``sampler`` and ``unwrap``, and the FFT is numpy's.
"""

from .recovery import RecoveryConfig, RecoveryResult, recover
from .sampler import NoiseModel
from .spectrum import (
    ComparisonReport,
    FourierMode,
    SparseSpectrum,
    compare,
    evaluate_spectrum,
    read_signal_file,
    write_signal_file,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "FourierMode",
    "NoiseModel",
    "RecoveryConfig",
    "RecoveryResult",
    "SparseSpectrum",
    "compare",
    "evaluate_spectrum",
    "read_signal_file",
    "recover",
    "write_signal_file",
]
