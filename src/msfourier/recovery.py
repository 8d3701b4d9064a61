"""End-to-end sparse recovery: outer peeling loop over projection axes.

Each outer iteration projects the residual signal onto one reduced-domain
axis k~, ranks the s* largest DFT bins of a prime-length sample vector,
then refines a d'-entry frequency estimate per bin through the multiscale
shift ladder while collision tests vote on the bin's integrity. Accepted
modes are subtracted from all later samples; the loop ends when s modes
are found or the iteration budget runs out (the all-axes-collision case
this library does not attempt to untangle).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dft import dft_forward, top_bins
from .estimator import (
    accept_candidate,
    bin_phase,
    collision_test,
    estimate_coefficient,
    finalize_entry,
    make_schedule,
    reconstruct_entry,
)
from .sampler import NoiseModel, SamplePlan, gather_unwrapped
from .spectrum import FourierMode, SparseSpectrum
from .unwrap import (
    UnwrapMap,
    _image_range,
    effective_bandwidth,
    rewrap_freq,
    unwrap_freq_matrix,
)

__all__ = ["RecoveryConfig", "RecoveryResult", "recover"]

# Shift phases are computed as float64(w') * eps, so an unwrapped entry w'
# must stay an exact float64 integer. Above this effective bandwidth N' the
# recovered frequencies are wrong although the run reports convergence.
_MAX_EXACT_BANDWIDTH = 2**53


@dataclass(frozen=True)
class RecoveryConfig:
    """Run parameters; defaults follow the standard benchmark setup."""

    N: int
    d: int
    d1: int
    s: int
    sigma: float = 0.0
    a_min: float = 1.0
    c1: float = 2.0
    c_sigma: float = 6.0
    eta: float = 0.25
    beta: float = 2.5
    seed: int = 0
    max_outer_iterations: int | None = None  # None -> 10 * d'

    def __post_init__(self):
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 2, got {self.N}")
        if self.d < 1 or self.d % self.d1 != 0:
            raise ValueError(f"d1={self.d1} must divide d={self.d}")
        if self.s < 1:
            raise ValueError(f"sparsity must be >= 1, got {self.s}")
        if self.c1 < 1:
            raise ValueError(f"c1 must be >= 1, got {self.c1}")
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.max_outer_iterations is not None and self.max_outer_iterations < 1:
            raise ValueError(
                f"max_outer_iterations must be None or >= 1, got {self.max_outer_iterations}"
            )
        try:
            width = effective_bandwidth(self.N, self.d1)
        except OverflowError as exc:
            raise ValueError(str(exc)) from exc
        if width > _MAX_EXACT_BANDWIDTH:
            raise ValueError(
                f"effective bandwidth {width} for N={self.N}, d1={self.d1} exceeds 2^53; "
                "frequencies past it cannot be recovered exactly, use a smaller d1"
            )


@dataclass
class RecoveryResult:
    modes: SparseSpectrum
    samples_used: int
    outer_iterations: int
    converged: bool
    sample_seconds: float = field(default=0.0, compare=False)


def recover(
    config: RecoveryConfig, truth: SparseSpectrum, noise: NoiseModel | None = None
) -> RecoveryResult:
    """Recover the modes of ``truth`` from noisy point samples.

    ``truth`` is the sampling oracle: the algorithm only sees point values
    f(g(t)) + noise. When ``noise`` is None a complex-circular model with
    the config's sigma and seed is used.
    """
    if truth.dim != config.d or truth.bandwidth != config.N:
        raise ValueError(
            f"truth geometry ({truth.bandwidth}, {truth.dim}) does not match config "
            f"({config.N}, {config.d})"
        )
    if noise is None:
        noise = NoiseModel(sigma=config.sigma, seed=config.seed)

    umap = UnwrapMap(bandwidth=config.N, dim=config.d, block=config.d1)
    d_red = umap.reduced_dim
    lo, hi = _image_range(umap)
    max_outer = config.max_outer_iterations
    if max_outer is None:
        max_outer = 10 * d_red

    freqs_truth = unwrap_freq_matrix(truth.freq_array(), umap)
    coeffs_truth = truth.coeff_array()

    # unwrapped frequency -> (coefficient, rewrapped frequency)
    found: dict[tuple[int, ...], tuple[complex, np.ndarray]] = {}
    samples_used = 0
    sample_seconds = 0.0
    stream = 0
    i = 0

    def gather(plan: SamplePlan) -> np.ndarray:
        nonlocal sample_seconds, samples_used
        t0 = time.perf_counter()
        values = gather_unwrapped(freqs_all, coeffs_all, plan, noise)
        sample_seconds += time.perf_counter() - t0
        samples_used += plan.p
        return values

    while len(found) < config.s and i < max_outer:
        s_star = config.s - len(found)
        sched = make_schedule(
            s_star, config.sigma, config.a_min, config.c1, config.c_sigma,
            config.beta, umap.eff_bandwidth,
        )
        p, M = sched.p, sched.M
        k_tilde = (i % d_red) + 1

        # Residual subtraction: found modes enter with negated coefficients.
        if found:
            freqs_all = np.vstack(
                [freqs_truth, np.array(list(found.keys()), dtype=np.int64)]
            )
            coeffs_all = np.concatenate(
                [coeffs_truth, -np.array([c for c, _ in found.values()], dtype=np.complex128)]
            )
        else:
            freqs_all, coeffs_all = freqs_truth, coeffs_truth

        r0 = gather(SamplePlan(p=p, axis=k_tilde, stream=stream))
        stream += 1
        F0 = dft_forward(r0)
        bins = top_bins(F0, s_star).order
        Fu = F0[bins]

        # Each shift level gathers its d' vectors one by one into a block and
        # transforms the block with one FFT. An empty bin fails every
        # collision test, so its M+1 votes (eta < 1) reject it; its phases
        # read 0 and its entries are discarded.
        votes = np.zeros(s_star, dtype=np.int64)
        phases = np.empty((M + 1, d_red, s_star), dtype=np.float64)
        block = np.empty((d_red, p), dtype=np.complex128)
        for alpha, eps in enumerate(sched.shifts.tolist()):
            for k in range(1, d_red + 1):
                block[k - 1] = gather(
                    SamplePlan(p=p, axis=k_tilde, shift_axis=k, shift_size=eps, stream=stream)
                )
                stream += 1
            shifted = dft_forward(block)[:, bins]
            votes += ~np.all(collision_test(Fu, shifted, sched.tau), axis=0)
            phases[alpha] = bin_phase(shifted, Fu)
        final = finalize_entry(reconstruct_entry(sched.shifts, phases))
        # An entry outside [lo, hi] is not an unwrapped frequency: junk.
        keep = accept_candidate(votes, M, config.eta)
        keep &= np.all((final >= lo) & (final <= hi), axis=0)
        kept = np.flatnonzero(keep)
        freqs = rewrap_freq(final[:, kept].T, umap)

        # (-|coeff|, unwrapped key, coeff, rewrapped frequency) per candidate
        accepted = []
        for idx, freq in zip(kept.tolist(), freqs):
            coeff = estimate_coefficient(complex(Fu[idx]), p)
            accepted.append((-abs(coeff), tuple(final[:, idx].tolist()), coeff, freq))

        # Conflicting candidates: the larger-magnitude coefficient wins. Full
        # ties keep bin order (complex coefficients are not orderable).
        accepted.sort(key=lambda cand: cand[:2])
        for _, key, coeff, freq in accepted:
            if key not in found:
                found[key] = (coeff, freq)
        i += 1

    modes = tuple(
        FourierMode(freq=tuple(freq.tolist()), coeff=coeff) for coeff, freq in found.values()
    )
    return RecoveryResult(
        modes=SparseSpectrum(modes=modes, bandwidth=config.N, dim=config.d),
        samples_used=samples_used,
        outer_iterations=i,
        converged=len(found) == config.s,
        sample_seconds=sample_seconds,
    )

