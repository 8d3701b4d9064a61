"""Noisy point sampling of the composed signal along projection axes.

One sample vector holds p equispaced evaluations along coordinate axis
k~ of the reduced domain, optionally shifted by eps along axis k:

    values[l] = f(g(t_l)) + n_l - q(t_l),   t_l = (l/p) e_k~ (+ eps e_k),

where q subtracts the modes recovered so far. Because t_l has at most two
nonzero coordinates, f(g(t_l)) collapses to a sum over the unwrapped
frequencies' k~ residues mod p (the exponent identity of the unwrap map):
a histogram of the residues, weighted by the coefficients, followed by one
inverse FFT of length p.

Noise draws use counter-based Philox streams keyed exactly by the two
64-bit words (seed mod 2^64, stream tag mod 2^64), so one run is exactly
reproducible while re-sampling a point in a later iteration (fresh tag)
sees fresh noise. Each thread keeps one Philox generator and re-keys it
per vector (key set, counter and buffer reset), which draws the same
numbers as a freshly built generator at a fraction of the cost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .dft import _is_prime
from .spectrum import SparseSpectrum
from .unwrap import UnwrapMap, unwrap_freq_matrix

__all__ = [
    "NoiseModel",
    "SamplePlan",
    "noise_vector",
    "gather_samples",
    "gather_unwrapped",
]

_MASK64 = 2**64 - 1


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian noise: total variance sigma^2 per sample.

    kind "complex-circular" splits sigma^2 evenly over real and imaginary
    parts; "real-only" puts variance sigma^2 on the real part alone.
    """

    sigma: float
    seed: int = 0
    kind: str = "complex-circular"

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.kind not in ("complex-circular", "real-only"):
            raise ValueError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class SamplePlan:
    """Geometry of one length-p sample vector (axes are 1-based).

    ``stream`` tags the noise stream; callers gathering repeatedly must use
    distinct tags to draw independent noise per vector.
    """

    p: int
    axis: int
    shift_axis: int | None = None
    shift_size: float | None = None
    stream: int = 0

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"sample length must be prime, got {self.p}")
        if self.axis < 1:
            raise ValueError(f"axis must be >= 1, got {self.axis}")
        if (self.shift_axis is None) != (self.shift_size is None):
            raise ValueError("shift_axis and shift_size must be given together")
        if self.shift_axis is not None:
            if self.shift_axis < 1:
                raise ValueError(f"shift_axis must be >= 1, got {self.shift_axis}")
            if self.shift_size <= 0:
                raise ValueError(f"shift_size must be > 0, got {self.shift_size}")


_local = threading.local()


def _normals(seed: int, stream: int, count: int) -> np.ndarray:
    """The first ``count`` normals of Generator(Philox(key=[seed, stream]))."""
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng.standard_normal(count)


def noise_vector(noise: NoiseModel, stream: int, p: int) -> np.ndarray:
    """p noise draws for one sample vector, deterministic in (seed, stream).

    Draw 2l and 2l+1 of the underlying normal stream feed position l, so a
    prefix of the vector never depends on p.
    """
    if noise.sigma == 0:
        return np.zeros(p, dtype=np.complex128)
    draws = _normals(noise.seed, stream, 2 * p)
    if noise.kind == "complex-circular":
        scale = noise.sigma / np.sqrt(2.0)
        return scale * (draws[0::2] + 1j * draws[1::2])
    return noise.sigma * draws[0::2] + 0j


def _synthesize(freqs: np.ndarray, coeffs: np.ndarray, plan: SamplePlan) -> np.ndarray:
    """values[l] = sum_j w_j exp(2 pi i r_j l / p), r_j = freqs[j, axis] mod p.

    Modes sharing a residue add up in one bin, so the sum is the unscaled
    inverse DFT of the weighted residue histogram.
    """
    residues = freqs[:, plan.axis - 1] % plan.p
    weights = coeffs
    if plan.shift_axis is not None:
        phase = freqs[:, plan.shift_axis - 1].astype(np.float64) * plan.shift_size
        weights = weights * np.exp(2j * np.pi * phase)
    # bincount takes real weights only.
    hist = np.bincount(residues, weights.real, plan.p) + 1j * np.bincount(
        residues, weights.imag, plan.p
    )
    return plan.p * np.fft.ifft(hist)


def gather_unwrapped(
    freqs: np.ndarray, coeffs: np.ndarray, plan: SamplePlan, noise: NoiseModel
) -> np.ndarray:
    """Sample vector from pre-unwrapped modes: (n, d') int64 rows + coefficients.

    Residual subtraction is expressed by appending residual modes with
    negated coefficients to ``freqs``/``coeffs``.
    """
    values = _synthesize(freqs, coeffs, plan)
    if noise.sigma:
        values = values + noise_vector(noise, plan.stream, plan.p)
    return values


def gather_samples(
    spec: SparseSpectrum,
    umap: UnwrapMap,
    plan: SamplePlan,
    noise: NoiseModel,
    residual: SparseSpectrum | None = None,
) -> np.ndarray:
    """values[l] = f(g(t_l)) + n_l - q(t_l) for the ground truth ``spec``.

    ``spec`` lives in the full d-dimensional domain; ``residual`` modes (the
    function q) live in the reduced d'-dimensional domain.
    """
    if spec.dim != umap.dim or spec.bandwidth != umap.bandwidth:
        raise ValueError(
            f"spectrum geometry ({spec.bandwidth}, {spec.dim}) does not match map "
            f"({umap.bandwidth}, {umap.dim})"
        )
    if plan.axis > umap.reduced_dim or (
        plan.shift_axis is not None and plan.shift_axis > umap.reduced_dim
    ):
        raise ValueError(f"plan axes exceed reduced dimension {umap.reduced_dim}")
    freqs = unwrap_freq_matrix(spec.freq_array(), umap)
    coeffs = spec.coeff_array()
    if residual is not None and len(residual):
        if residual.dim != umap.reduced_dim:
            raise ValueError(
                f"residual dimension {residual.dim} != reduced dimension {umap.reduced_dim}"
            )
        freqs = np.vstack([freqs, residual.freq_array()])
        coeffs = np.concatenate([coeffs, -residual.coeff_array()])
    return gather_unwrapped(freqs, coeffs, plan, noise)
