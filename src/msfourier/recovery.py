"""End-to-end sparse recovery: outer peeling loop over projection axes.

Each outer iteration projects the residual signal onto one reduced-domain
axis k~, ranks the s* largest DFT bins of a prime-length sample vector,
then refines a d'-entry frequency estimate per bin through the multiscale
shift ladder: at each level one shifted/unshifted bin ratio gives both the
entry's phase and the bin's collision vote (``estimator.shift_ratio``).
Each iteration's plan, p, tau and the shift ladder, follows the remaining
sparsity s* (``RecoveryConfig.schedule``): the ladder follows p, and at
sigma > 0 a longer p admits a faster-growing ladder with fewer levels.
A shift level draws its d' vectors in one call, as a (d', p) block, and
transforms the block at the s* ranked bins alone: by one full FFT while s*
is large, and by one (d', p) @ (p, s*) product with the pruned DFT's matrix
(Sorensen and Burrus, IEEE TSP 1993) where the cost rule of
``_product_wins`` finds it cheaper; the unshifted vector always takes the
full FFT, as ranking reads every bin. The samples come from the truth
alone: the residual is their DFT with the modes found so far peeled off
the bins where they land, the bin-domain update of Hassanieh, Indyk,
Katabi and Price (STOC 2012). The loop ends when s modes are found or the
iteration budget runs out (the all-axes-collision case this library does
not attempt to untangle).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft as dft_forward  # the name perfbench/layers.py wraps

from .estimator import (
    _ladder,
    estimate_coefficient,
    make_schedule,
    reconstruct_entry,
    shift_ratio,
)
from .sampler import (
    NoiseModel,
    SamplePlan,
    _digit_count,
    _digit_index,
    _shift_tables,
    _table_weights,
    gather_unwrapped,
    line_index,
)
from .spectrum import SparseSpectrum, _cube_holds, _is_int, _is_real
from .unwrap import UnwrapMap, rewrap_freq, unwrap_freq

__all__ = ["RecoveryConfig", "RecoveryResult", "recover"]

# Shift weights and entry estimates hold an unwrapped entry w' as a float64,
# so w' must stay an exact float64 integer. Above this effective bandwidth N'
# the recovered frequencies are wrong although the run reports convergence.
_MAX_EXACT_BANDWIDTH = 2**53

# The cost rule of the shifted blocks' DFT at the s* ranked bins. Per shift
# level, the full FFT of the (d', p) block costs about F d' p and the product
# with the (p, s*) matrix W about G d' p s*; W costs about B p s* to build,
# once per outer iteration. Over its M+1 levels the product is cheaper when
#     s* (1 + (B/G) / (d' (M+1))) < F/G.
# Measured on a Sapphire Rapids Xeon at one BLAS thread (numpy 2.4's
# pocketfft against OpenBLAS 0.3.31's zgemm, p from 41 to 2053): a level's
# product matches its FFT at s* of 130-160 for d' >= 20 and 80-110 for
# d' = 4, and building W costs 6-7 ns per entry against 0.15-0.2 ns per
# multiply-add of the product.
_FFT_OVER_PRODUCT = 128  # F/G
_BUILD_OVER_PRODUCT = 40  # B/G
# Most entries W may hold, 16 MiB: the rule keeps s* below 128, so this
# binds only at p past 8,192, where a noise floor sets p and W would grow
# with it to many times the (d', p) block.
_MAX_PRODUCT_ENTRIES = 2**20


def _product_wins(p: int, s_star: int, rows: int, levels: int) -> bool:
    """Whether ``levels`` (rows, p) blocks take the ranked-bin product, not
    the full FFT: the cost rule above, with W no larger than its cap."""
    return (
        s_star * (1 + _BUILD_OVER_PRODUCT / (rows * levels)) < _FFT_OVER_PRODUCT
        and p * s_star <= _MAX_PRODUCT_ENTRIES
    )


def _ranked_dft(p: int, bins: np.ndarray) -> np.ndarray:
    """The (p, len(bins)) matrix W with ``block @ W`` the DFT of each row of
    ``block`` at ``bins``: W[l, j] = exp(-2 pi i l bins[j] / p), each phase
    read from one table of p roots at the exact index (l bins[j]) mod p."""
    roots = np.exp(-2j * np.pi * np.arange(p) / p)
    return roots[np.multiply.outer(np.arange(p), bins) % p]


def _column_peel(weights: np.ndarray, cols: np.ndarray, count: int) -> np.ndarray:
    """The (rows, count) matrix that peels the (rows, n) ``weights`` of modes
    landing at columns ``cols`` < count: minus each column's landed sum."""
    peel = np.zeros((len(weights), count), dtype=np.complex128)
    np.subtract.at(peel, (slice(None), cols), weights)
    return peel


def top_bins(F, count: int) -> np.ndarray:
    """Indices of the ``count`` largest-magnitude bins of a DFT vector.

    Bins come in descending magnitude, ties to the lower bin index, as int64.
    """
    F = np.asarray(F, dtype=np.complex128)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > len(F):
        raise ValueError(f"count {count} exceeds vector length {len(F)}")
    # Stable sort on negated magnitudes keeps equal-magnitude bins in index order.
    return np.argsort(-np.abs(F), kind="stable")[:count].astype(np.int64)


@dataclass(frozen=True)
class RecoveryConfig:
    """Run parameters; defaults follow the standard benchmark setup. The
    config builds the run's unwrap geometry ``umap`` and gives each outer
    iteration's plan (p, tau, shift ladder)."""

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
    umap: UnwrapMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("s", "seed", "max_outer_iterations"):
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name == "max_outer_iterations")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (_is_real(self.eta) and 0 < self.eta < 1):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta!r}")
        if self.max_outer_iterations is not None and self.max_outer_iterations < 1:
            raise ValueError(
                f"max_outer_iterations must be None or >= 1, got {self.max_outer_iterations}"
            )
        # UnwrapMap refuses a non-integer, odd or < 2 N, a bad d or d1 and N' past int64.
        umap = UnwrapMap(bandwidth=self.N, dim=self.d, block=self.d1)
        if umap.eff_bandwidth > _MAX_EXACT_BANDWIDTH:
            raise ValueError(
                f"effective bandwidth {umap.eff_bandwidth} for N={self.N}, d1={self.d1} "
                "exceeds 2^53; frequencies past it cannot be recovered exactly, use a smaller d1"
            )
        object.__setattr__(self, "umap", umap)
        # No signal has more modes than the N^d cube holds.
        if not _cube_holds(self.N, self.d, self.s):
            raise ValueError(f"s={self.s} exceeds the {self.N}^{self.d} frequency cube")
        # Checks s, sigma, a_min, c1, c_sigma and beta, and the largest p (p
        # only falls with s*), then the level cap that beta sets every ladder.
        self.schedule(self.s)

    def schedule(self, s_star: int) -> tuple[int, float, np.ndarray]:
        """(p, tau, shifts) of an outer iteration with sparsity budget
        ``s_star``: shifts is p's ladder (``estimator._ladder``), read-only."""
        p, tau = make_schedule(s_star, self.sigma, self.a_min, self.c1, self.c_sigma, self.beta)
        n_eff = self.umap.eff_bandwidth
        return p, tau, _ladder(n_eff, p, self.sigma, self.a_min, self.c_sigma, self.beta)


@dataclass
class RecoveryResult:
    """``recover``'s output: the found ``modes`` in found order, ``samples_used``,
    ``outer_iterations``, ``converged`` (s modes found) and ``sample_seconds``,
    the time spent building each ladder's digit tables, weighing the truth from
    them at each shift level and sampling (not compared by ``==``)."""

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
    f(g(t)) + noise, and peels what it finds off their DFT. When ``noise``
    is None a complex-circular model with the config's sigma and seed is used.
    """
    if truth.dim != config.d or truth.bandwidth != config.N:
        raise ValueError(
            f"truth geometry ({truth.bandwidth}, {truth.dim}) does not match config "
            f"({config.N}, {config.d})"
        )
    if noise is None:
        noise = NoiseModel(sigma=config.sigma, seed=config.seed)

    umap = config.umap
    d_red = umap.reduced_dim
    max_outer = config.max_outer_iterations or 10 * d_red

    # The oracle holds the truth's unwrapped rows alone and weighs them at a
    # shift level from the level's digit table as it draws the level; a row's
    # (digits, d', n) table positions are split once.
    freqs = unwrap_freq(truth.freqs, umap)
    digits = _digit_count(umap.eff_bandwidth)
    truth_rows = _digit_index(freqs.T, umap.lo, digits)
    found = np.empty((0, d_red), dtype=np.int64)
    found_coeffs = np.empty(0, dtype=np.complex128)
    found_keys = set()
    sample_seconds = 0.0
    samples_used = 0
    stream = 0
    i = 0

    def draw(alpha=None):
        """Counted, timed sample vectors of length p on this iteration's line,
        with one noise draw on the next stream tag: the unshifted one, or level
        alpha's (d', p) block, weighed here; tags advance by the vector count."""
        nonlocal samples_used, sample_seconds, stream
        t0 = time.perf_counter()
        row_weights = truth.coeffs
        if alpha is not None:
            row_weights = _table_weights(truth.coeffs, truth_rows, level_tables[alpha])
        rows = len(row_weights) if row_weights.ndim == 2 else 1
        plan = SamplePlan(p=rows * p, stream=stream)
        values = gather_unwrapped(index, row_weights, plan, noise)
        sample_seconds += time.perf_counter() - t0
        stream += rows
        samples_used += plan.p
        return values

    while len(found) < config.s and i < max_outer:
        s_star = config.s - len(found)
        p, tau, ladder = config.schedule(s_star)
        k_tilde = (i % d_red) + 1
        if i == 0 or not np.array_equal(ladder, shifts):
            shifts = ladder
            t0 = time.perf_counter()
            level_tables = _shift_tables(shifts, umap.lo, digits)
            sample_seconds += time.perf_counter() - t0
        M = len(shifts) - 1

        # Every vector of this iteration lies on the line along k~. A found
        # mode (w, a) adds exactly p a exp(2 pi i w[k] eps) to bin w[k~] mod p
        # of the vector shifted by eps along axis k (p a unshifted), so the
        # found modes are peeled there: from every bin before the ranking,
        # then from each level's block where they land in a ranked bin.
        index = line_index(freqs, k_tilde, p)
        residues = found[:, k_tilde - 1] % p
        F0 = dft_forward(draw())
        np.subtract.at(F0, residues, p * found_coeffs)
        bins = top_bins(F0, s_star)
        Fu = F0[bins]
        column = np.full(p, -1)
        column[bins] = np.arange(s_star)
        cols = column[residues]
        landed = cols >= 0
        landed_rows = _digit_index(found[landed].T, umap.lo, digits)
        cols = cols[landed]
        peeled = p * found_coeffs[landed]

        # Each shift level weighs the truth and draws its d' vectors in one
        # call, as a (d', p) block, and transforms the block at the ranked
        # bins alone: as block @ W where _product_wins, else by one FFT read
        # at the bins. The found modes that land in a ranked bin are peeled
        # at its column, summed by np.subtract.at before the transform, not
        # after it: right after OpenBLAS's zgemm, np.subtract.at ran 18x
        # slower on the same Xeon (1,440 against 78 us after the FFT, 40
        # landed modes on a (200, 64) product). A bin failing the collision
        # test on any axis gets the level's vote. An empty bin fails every
        # level, so its M+1 votes (eta < 1) reject it; its phases read 0.
        W = _ranked_dft(p, bins) if _product_wins(p, s_star, d_red, M + 1) else None
        votes = np.zeros(s_star, dtype=np.int64)
        phases = np.empty((M + 1, d_red, s_star), dtype=np.float64)
        for alpha in range(M + 1):
            landed_weights = _table_weights(peeled, landed_rows, level_tables[alpha])
            Fs = _column_peel(landed_weights, cols, s_star)
            Fs += dft_forward(draw(alpha))[:, bins] if W is None else draw(alpha) @ W
            passed, phases[alpha] = shift_ratio(Fu, Fs, tau)
            votes += ~passed.all(axis=0)
        final = np.rint(reconstruct_entry(shifts, phases)).astype(np.int64)
        # An entry outside [lo, hi] is not an unwrapped frequency: junk. A
        # single mode in bin m has w'[k~] = m mod p; an entry that does not
        # comes from several modes merged in one bin.
        keep = votes <= config.eta * (M + 1)
        keep &= np.all((final >= umap.lo) & (final <= umap.hi), axis=0)
        keep &= final[k_tilde - 1] % p == bins

        kept = np.flatnonzero(keep)
        coeffs = np.array([estimate_coefficient(c, p) for c in Fu[kept].tolist()], complex)
        cands = final[:, kept].T
        # A candidate, in top_bins' rank, is a new mode when neither a found
        # row nor a better-ranked candidate holds its row.
        new = []
        for j, key in enumerate(map(tuple, cands.tolist())):
            if key not in found_keys:
                found_keys.add(key)
                new.append(j)
        found = np.concatenate([found, cands[new]])
        found_coeffs = np.concatenate([found_coeffs, coeffs[new]])
        i += 1

    # Every found row lies in [lo, hi], so every one rewraps.
    modes = SparseSpectrum.from_arrays(rewrap_freq(found, umap), found_coeffs, config.N, config.d)
    return RecoveryResult(
        modes=modes,
        samples_used=samples_used,
        outer_iterations=i,
        converged=len(found) == config.s,
        sample_seconds=sample_seconds,
    )

