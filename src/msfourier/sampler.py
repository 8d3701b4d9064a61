"""Noisy point sampling of the composed signal along projection axes.

One sample vector holds p equispaced evaluations of a signal in the
reduced d'-dimensional domain along coordinate axis k~, optionally shifted
by eps along axis k, plus noise:

    values[l] = sum_j a_j exp(2 pi i (w_j[k~] l / p + w_j[k] eps)) + n_l.

The modes (w_j, a_j) are the unwrapped frequencies of the composed signal
f(g(t)) and their coefficients (see ``unwrap``): the truth's alone, as
``recovery.recover`` peels what it finds off the vectors' DFT. Because the
sample points have at most two nonzero coordinates, the sum collapses to a
histogram of the residues w_j[k~] mod p, weighted by a_j exp(2 pi i w_j[k]
eps), followed by one inverse FFT of length p.

The residues depend only on the line (axis k~ and p) and the shift phases
only on the shift (axis k and eps), so they are built apart from the
vectors: ``line_index`` once per line, and the weights once per mode and
shift size, for all d' shift axes at once. ``shift_weights`` computes each
weight directly: it reduces the phase w eps modulo 1 from the exact
product of float64 w and eps (``estimator._frac_product``), since at the
largest shifts |w eps| can pass 2^53, where the rounded product has no
fractional bit left, and takes one complex exponential per weight.

The weights ``recovery.recover`` uses come from per-shift digit tables
instead, wherever a table is no larger than the weights it yields. An
unwrapped entry w in [lo, hi] is lo plus an offset of D 8-bit digits,
w = lo + sum_j v_j 2^(8 j), so exp(2 pi i w eps) is the product of the D
table entries exp(2 pi i (v_j 2^(8 j) + [j = 0] lo) eps), each phase
reduced exactly as ``shift_weights`` reduces its own (``_shift_tables``).
A row's flat table positions (``_digit_index``) depend on the row alone,
so they are built once, and a weight costs D lookups and D complex
products (``_table_weights``); the tests hold it within (D + 2) 2^-52 |a|
of the exact weight. ``recovery.recover`` builds the tables of a shift
ladder's levels together when it first climbs the ladder, and draws a
shift level's d' vectors in one call, so ``gather_unwrapped`` costs one
``bincount`` over the interleaved real and imaginary parts of a block of
weight rows, one inverse FFT over the block, and one noise draw.

Noise draws use counter-based Philox streams keyed exactly by the two
64-bit words (seed mod 2^64, stream tag mod 2^64) of ``spectrum._key64``,
which reduces a Python or numpy integer alike, so a numpy integer keys as
the Python int does. A call draws all its samples from one stream, so one
run is exactly reproducible while re-sampling a point in a later iteration
(fresh tag) sees fresh noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import _frac_product
from .spectrum import _is_int, _is_real, _key64

__all__ = [
    "NoiseModel",
    "SamplePlan",
    "noise_vector",
    "line_index",
    "shift_weights",
    "gather_unwrapped",
]

# The noise kinds a NoiseModel accepts; the first is the default.
NOISE_KINDS = ("complex-circular", "real-only")


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian noise: total variance sigma^2 per sample.

    kind "complex-circular" splits sigma^2 evenly over real and imaginary
    parts; "real-only" puts variance sigma^2 on the real part alone.
    """

    sigma: float
    seed: int = 0
    kind: str = NOISE_KINDS[0]

    def __post_init__(self):
        if not (_is_real(self.sigma) and math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class SamplePlan:
    """The number p of samples one call draws and the tag of its noise stream.

    A call drawing r vectors draws them of length p/r, with one noise draw of
    p on the stream. Callers gathering repeatedly must use distinct stream
    tags to draw independent noise per call. Both are Python or numpy
    integers, not bools.
    """

    p: int
    stream: int = 0

    def __post_init__(self):
        if not _is_int(self.p) or self.p < 1:
            raise ValueError(f"sample length must be an int >= 1, got {self.p!r}")
        if not _is_int(self.stream):
            raise ValueError(f"stream must be an integer, got {self.stream!r}")


def noise_vector(noise: NoiseModel, stream: int, p: int) -> np.ndarray:
    """p noise draws for one gather call, deterministic in (seed, stream).

    Draw 2l and 2l+1 of the underlying normal stream feed position l, so a
    prefix of the vector never depends on p.
    """
    if noise.sigma == 0:
        return np.zeros(p, dtype=np.complex128)
    key = np.array([_key64(noise.seed), _key64(stream)], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key)).standard_normal(2 * p)
    if noise.kind == "complex-circular":
        # (draw 2l, draw 2l+1) is the memory layout of one complex128.
        return noise.sigma / np.sqrt(2.0) * draws.view(np.complex128)
    return noise.sigma * draws[0::2] + 0j


def line_index(freqs: np.ndarray, axis: int, p: int) -> np.ndarray:
    """Histogram index of the line along ``axis`` (1-based) for length p.

    Row j is (2 r_j, 2 r_j + 1) with r_j = freqs[j, axis] mod p: the bins of
    the real and imaginary part of residue r_j in an interleaved histogram.
    """
    if not 1 <= axis <= freqs.shape[1] or p < 1:
        raise ValueError(f"need axis in 1..{freqs.shape[1]} and p >= 1, got axis={axis}, p={p}")
    residues = freqs[:, axis - 1] % p
    return 2 * residues[:, None] + np.array([0, 1], dtype=np.int64)


def shift_weights(coeffs: np.ndarray, freqs_t: np.ndarray, eps: float) -> np.ndarray:
    """coeffs * exp(2 pi i w eps) for every row w of ``freqs_t``, with the
    phase w eps reduced mod 1 from its exact value, not its rounded one.

    ``freqs_t`` is float64 with the modes along its last axis: the (d', n)
    transpose of the unwrapped frequencies gives one row of weights per
    shift axis, a single column ``freqs[:, k]`` gives that axis's weights.
    """
    return coeffs * np.exp(2j * np.pi * _frac_product(freqs_t, eps))


def _digit_count(eff_bandwidth: int) -> int:
    """The number D of 8-bit digits that hold every offset w - lo of an
    unwrapped entry: the offsets are below N' - 1."""
    return -(-(eff_bandwidth - 1).bit_length() // 8)


def _digit_index(freqs: np.ndarray, lo: int, digits: int) -> np.ndarray:
    """Flat table positions of the offsets ``freqs - lo``: entry j of the
    leading axis of the (digits, *freqs.shape) result holds 256 j plus digit
    j of each offset. Every entry of ``freqs`` lies in [lo, lo + 2^(8 digits))."""
    offsets = np.asarray(freqs, dtype=np.int64) - lo
    j = np.arange(digits).reshape((-1,) + (1,) * offsets.ndim)
    return ((offsets >> 8 * j) & 255) + 256 * j


def _shift_tables(shifts: np.ndarray, lo: int, digits: int) -> np.ndarray:
    """The digit tables of a ladder, one row per shift eps: exp(2 pi i v
    2^(8 j) eps) at position 256 j + v, with lo folded into digit 0, exp(2
    pi i (lo + v) eps). Each phase is reduced mod 1 from its exact value:
    the products v 2^(8 j) and lo + v are float64 integers below 2^56."""
    steps = np.ldexp(np.arange(256.0), 8 * np.arange(digits)[:, None])
    steps[0] += lo
    phases = _frac_product(steps, np.reshape(shifts, (-1, 1, 1)))
    return np.exp(2j * np.pi * phases).reshape(len(phases), -1)


def _table_weights(coeffs: np.ndarray, index: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``shift_weights`` of the rows whose ``_digit_index`` is ``index``, at
    the shift of ``table``, a row of ``_shift_tables``: coeffs times the
    product of each entry's digit lookups, with the modes along the last axis."""
    weights = table[index[0]]
    for positions in index[1:]:
        weights *= table[positions]
    weights *= coeffs
    return weights


def _synthesize(index: np.ndarray, weights: np.ndarray, plan: SamplePlan) -> np.ndarray:
    """values[l] = sum_j w_j exp(2 pi i r_j l / p) for the line ``index``.

    ``weights`` is one weight vector of n entries, giving one vector of length
    p = plan.p, or an (r, n) block, giving r vectors of length p = plan.p / r.
    Modes sharing a residue add up in one bin, so the sum is the unscaled
    inverse DFT of the weighted residue histogram. One ``bincount`` over the
    (re, im) pairs of the weights, with row k's bins offset by 2 p k, fills
    the real and imaginary bins of each residue of each row, in the order two
    separate bincounts per row would.
    """
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    rows = len(weights) if weights.ndim == 2 else 1
    if weights.shape[-1:] != (len(index),) or weights.ndim > 2 or not rows or plan.p % rows:
        raise ValueError(
            f"weights of shape {weights.shape} do not match {len(index)} modes and p={plan.p}"
        )
    p = plan.p // rows
    # A bin outside row 0's [0, 2p) would land in another row's bins unseen.
    if index.size and (index.min() < 0 or index.max() >= 2 * p):
        raise ValueError(f"line index holds residues past p={p}")
    bins = index.reshape(1, -1) + 2 * p * np.arange(rows)[:, None]
    hist = np.bincount(bins.ravel(), weights.view(np.float64).ravel(), 2 * plan.p)
    return p * np.fft.ifft(hist.view(np.complex128).reshape(weights.shape[:-1] + (p,)))


def gather_unwrapped(
    index: np.ndarray, weights: np.ndarray, plan: SamplePlan, noise: NoiseModel
) -> np.ndarray:
    """Sample vectors from pre-unwrapped modes: a line index and their weights.

    ``index`` is ``line_index(freqs, axis, p)`` of the (n, d') unwrapped
    frequencies along the sampled axis; ``weights`` are the coefficients, or
    for a shifted vector ``shift_weights`` at its shift axis and size. The
    modes are the signal's own: ``recovery.recover`` passes the truth's
    alone. A weight vector gives one vector of length p = plan.p; an (r, n)
    block of weight rows gives an (r, p) block with p = plan.p / r. Its
    noise is ``noise_vector(noise, plan.stream, plan.p)`` in row order, so
    row 0 gets the noise of a one-row call on the stream.
    """
    values = _synthesize(index, weights, plan)
    if noise.sigma:
        values += noise_vector(noise, plan.stream, plan.p).reshape(values.shape)
    return values
