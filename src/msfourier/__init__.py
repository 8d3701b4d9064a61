"""Multiscale noise-robust sparse Fourier recovery.

Recovers the s energetic integer frequency vectors (and their complex
coefficients) of a high-dimensional signal from noisy point samples, in
time and samples scaling like s * d * log N rather than N^d.
"""

from .dft import BinRanking, dft_forward, next_prime_at_least, top_bins
from .estimator import (
    CandidateState,
    RecoverySchedule,
    accept_candidate,
    collision_test,
    estimate_coefficient,
    finalize_entry,
    initial_entry,
    make_schedule,
    reconstruct_entry,
    refine_entry,
)
from .oracle import ComparisonReport, compare, dense_spectrum, direct_dft
from .recovery import RecoveryConfig, RecoveryResult, recover
from .sampler import NoiseModel, SamplePlan, gather_samples
from .spectrum import (
    FourierMode,
    SparseSpectrum,
    centered_mod,
    evaluate_spectrum,
    read_signal_file,
    write_signal_file,
)
from .unwrap import UnwrapMap, effective_bandwidth, rewrap_freq, unwrap_freq, unwrap_point

__version__ = "0.1.0"

__all__ = [
    "BinRanking",
    "CandidateState",
    "ComparisonReport",
    "FourierMode",
    "NoiseModel",
    "RecoveryConfig",
    "RecoveryResult",
    "RecoverySchedule",
    "SamplePlan",
    "SparseSpectrum",
    "UnwrapMap",
    "accept_candidate",
    "centered_mod",
    "collision_test",
    "compare",
    "dense_spectrum",
    "dft_forward",
    "direct_dft",
    "effective_bandwidth",
    "estimate_coefficient",
    "evaluate_spectrum",
    "finalize_entry",
    "gather_samples",
    "initial_entry",
    "make_schedule",
    "next_prime_at_least",
    "read_signal_file",
    "reconstruct_entry",
    "recover",
    "refine_entry",
    "rewrap_freq",
    "top_bins",
    "unwrap_freq",
    "unwrap_point",
    "write_signal_file",
]
