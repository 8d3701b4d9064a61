"""Noisy point sampling of the composed signal along projection axes.

One sample vector holds p equispaced evaluations along coordinate axis
k~ of the reduced domain, optionally shifted by eps along axis k:

    values[l] = f(g(t_l)) + n_l - q(t_l),   t_l = (l/p) e_k~ (+ eps e_k),

where q subtracts the modes recovered so far. Because t_l has at most two
nonzero coordinates, f(g(t_l)) collapses to a sum over the unwrapped
frequencies' k~ residues mod p (the exponent identity of the unwrap map):
a histogram of the residues, weighted by the coefficients times the shift
phases exp(2 pi i w_k eps), followed by one inverse FFT of length p.

The residues depend only on the line (axis k~ and p) and the shift phases
only on the shift (axis k and eps), so they are built apart from the
vectors: ``line_index`` once per line and ``shift_weights`` once per shift
size, for all d' shift axes at once. Every vector of that line then costs
one ``bincount`` over the interleaved real and imaginary parts and one
inverse FFT.

Noise draws use counter-based Philox streams keyed exactly by the two
64-bit words (seed mod 2^64, stream tag mod 2^64), so one run is exactly
reproducible while re-sampling a point in a later iteration (fresh tag)
sees fresh noise. Each thread keeps one Philox generator and re-keys it
per vector (key set, counter and buffer reset), which draws the same
numbers as a freshly built generator at a fraction of the cost.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dft import _is_prime
from .spectrum import SparseSpectrum
from .unwrap import UnwrapMap, unwrap_freq

__all__ = [
    "NoiseModel",
    "SamplePlan",
    "noise_vector",
    "line_index",
    "shift_weights",
    "gather_samples",
    "gather_unwrapped",
]

_MASK64 = 2**64 - 1

# Every plan is validated, but a run builds thousands of plans over a few
# distinct lengths, so the primality test is remembered per length.
_prime_length = functools.lru_cache(maxsize=256)(_is_prime)


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
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
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
        if not isinstance(self.p, (int, np.integer)) or not _prime_length(self.p):
            raise ValueError(f"sample length must be a prime int, got {self.p!r}")
        if self.axis < 1:
            raise ValueError(f"axis must be >= 1, got {self.axis}")
        if (self.shift_axis is None) != (self.shift_size is None):
            raise ValueError("shift_axis and shift_size must be given together")
        if self.shift_axis is not None:
            if self.shift_axis < 1:
                raise ValueError(f"shift_axis must be >= 1, got {self.shift_axis}")
            if not (math.isfinite(self.shift_size) and self.shift_size > 0):
                raise ValueError(f"shift_size must be finite and > 0, got {self.shift_size}")


_local = threading.local()


def _normals(seed: int, stream: int, count: int) -> np.ndarray:
    """The first ``count`` normals of Generator(Philox(key=[seed, stream]))."""
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox())
        # The setter copies every field, so one dict serves every re-keying:
        # only the key changes; counter 0 and an empty buffer stay as built.
        _local.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.zeros(2, dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    state = _local.state
    key = state["state"]["key"]
    key[0] = seed & _MASK64
    key[1] = stream & _MASK64
    rng.bit_generator.state = state
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
        # (draw 2l, draw 2l+1) is the memory layout of one complex128.
        return noise.sigma / np.sqrt(2.0) * draws.view(np.complex128)
    return noise.sigma * draws[0::2] + 0j


def line_index(freqs: np.ndarray, axis: int, p: int) -> np.ndarray:
    """Histogram index of the line along ``axis`` (1-based) for length p.

    Row j is (2 r_j, 2 r_j + 1) with r_j = freqs[j, axis] mod p: the bins of
    the real and imaginary part of residue r_j in an interleaved histogram.
    """
    residues = freqs[:, axis - 1] % p
    return 2 * residues[:, None] + np.array([0, 1], dtype=np.int64)


def shift_weights(coeffs: np.ndarray, freqs_t: np.ndarray, eps: float) -> np.ndarray:
    """coeffs * exp(2 pi i w eps) for every row w of ``freqs_t``.

    ``freqs_t`` is float64 with the modes along its last axis: the (d', n)
    transpose of the unwrapped frequencies gives one row of weights per
    shift axis, a single column ``freqs[:, k]`` gives that axis's weights.
    """
    return coeffs * np.exp(2j * np.pi * (freqs_t * eps))


def _synthesize(index: np.ndarray, weights: np.ndarray, plan: SamplePlan) -> np.ndarray:
    """values[l] = sum_j w_j exp(2 pi i r_j l / p) for the line ``index``.

    Modes sharing a residue add up in one bin, so the sum is the unscaled
    inverse DFT of the weighted residue histogram. One ``bincount`` over
    the (re, im) pairs of the weights fills the real and imaginary bins of
    each residue, in the order two separate bincounts would.
    """
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    if weights.shape != (len(index),):
        raise ValueError(f"weights of shape {weights.shape} do not match {len(index)} modes")
    hist = np.bincount(index.ravel(), weights.view(np.float64), 2 * plan.p)
    if hist.size != 2 * plan.p:
        raise ValueError(f"line index holds residues past p={plan.p}")
    return plan.p * np.fft.ifft(hist.view(np.complex128))


def gather_unwrapped(
    index: np.ndarray, weights: np.ndarray, plan: SamplePlan, noise: NoiseModel
) -> np.ndarray:
    """Sample vector from pre-unwrapped modes: a line index and their weights.

    ``index`` is ``line_index(freqs, plan.axis, plan.p)`` of the (n, d')
    unwrapped frequencies; ``weights`` are the coefficients, or for a
    shifted plan ``shift_weights`` at its shift axis and size. Residual
    subtraction is expressed by appending residual modes with negated
    coefficients.
    """
    values = _synthesize(index, weights, plan)
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
    freqs = unwrap_freq(spec.freqs, umap)
    coeffs = spec.coeffs
    if residual is not None and len(residual):
        if residual.dim != umap.reduced_dim:
            raise ValueError(
                f"residual dimension {residual.dim} != reduced dimension {umap.reduced_dim}"
            )
        freqs = np.vstack([freqs, residual.freqs])
        coeffs = np.concatenate([coeffs, -residual.coeffs])
    weights = coeffs
    if plan.shift_axis is not None:
        column = freqs[:, plan.shift_axis - 1].astype(np.float64)
        weights = shift_weights(coeffs, column, plan.shift_size)
    return gather_unwrapped(line_index(freqs, plan.axis, plan.p), weights, plan, noise)
