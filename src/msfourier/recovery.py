"""End-to-end sparse recovery: outer peeling loop over projection axes.

Each outer iteration projects the residual signal onto one reduced-domain
axis k~, ranks the s* largest DFT bins of a prime-length sample vector,
then refines a d'-entry frequency estimate per bin through the multiscale
shift ladder: at each level one shifted/unshifted bin ratio gives both the
entry's phase and the bin's collision vote (``estimator.shift_ratio``).
Each iteration's plan, p, tau and the shift ladder, follows the remaining
sparsity s* (``RecoveryConfig.schedule``): the ladder follows p, and at
sigma > 0 a longer p admits a faster-growing ladder with fewer levels.
A shift level draws its d' vectors in one call and one FFT. The samples
come from the truth alone: the residual is their DFT with the modes found
so far peeled off the bins where they land, the bin-domain update of
Hassanieh, Indyk, Katabi and Price (STOC 2012). The loop ends when s modes
are found or the iteration budget runs out (the all-axes-collision case
this library does not attempt to untangle).
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
    shift_weights,
)
from .spectrum import SparseSpectrum, _cube_holds, _is_int, _is_real, _row_keys
from .unwrap import UnwrapMap, rewrap_freq, unwrap_freq

__all__ = ["RecoveryConfig", "RecoveryResult", "recover"]

# Shift weights and entry estimates hold an unwrapped entry w' as a float64,
# so w' must stay an exact float64 integer. Above this effective bandwidth N'
# the recovered frequencies are wrong although the run reports convergence.
_MAX_EXACT_BANDWIDTH = 2**53


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
    the time spent sampling and weighing the truth, building each ladder's
    digit tables included (not compared by ``==``)."""

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

    # The oracle holds the truth's unwrapped rows alone; each ladder's first
    # iteration fills their weights (level, shift axis, row) at its shifts.
    # A level's weights come from its digit table where the table is no
    # larger than the d' n_truth weights it yields, else from shift_weights.
    freqs = unwrap_freq(truth.freqs, umap)
    digits = _digit_count(umap.eff_bandwidth)
    use_tables = 256 * digits <= freqs.size

    def weighable(rows):
        """(n, d') unwrapped rows as ``weigh`` reads them: the (digits, d', n)
        table positions of their entries, or their (d', n) float64 transpose."""
        if use_tables:
            return _digit_index(rows.T, umap.lo, digits)
        return np.ascontiguousarray(rows.T, dtype=np.float64)

    def weigh(coeffs, rows, alpha):
        """The (d', n) shift weights of ``weighable`` rows at level alpha."""
        if use_tables:
            return _table_weights(coeffs, rows, level_tables[alpha])
        return shift_weights(coeffs, rows, shifts[alpha])

    truth_rows = weighable(freqs)
    found = np.empty((0, d_red), dtype=np.int64)
    found_coeffs = np.empty(0, dtype=np.complex128)
    sample_seconds = 0.0
    samples_used = 0
    stream = 0
    i = 0

    def draw(row_weights):
        """Counted, timed sample vectors of length p on this iteration's line:
        one for a weight vector, r for an (r, n) block, with one noise draw on
        the next stream tag; the tag advances by r, so tags stay distinct."""
        nonlocal samples_used, sample_seconds, stream
        rows = len(row_weights) if row_weights.ndim == 2 else 1
        plan = SamplePlan(p=rows * p, stream=stream)
        t0 = time.perf_counter()
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
            weights = None  # free the last ladder's weights before the next fill
            weights = np.empty((len(shifts), d_red, len(freqs)), dtype=np.complex128)
            if use_tables:
                level_tables = _shift_tables(shifts, umap.lo, digits)
            for alpha in range(len(shifts)):
                weights[alpha] = weigh(truth.coeffs, truth_rows, alpha)
            sample_seconds += time.perf_counter() - t0
        M = len(shifts) - 1

        # Every vector of this iteration lies on the line along k~. A found
        # mode (w, a) adds exactly p a exp(2 pi i w[k] eps) to bin w[k~] mod p
        # of the vector shifted by eps along axis k (p a unshifted), so the
        # found modes are peeled there: from every bin before the ranking,
        # then from each level's block where they land in a ranked bin.
        index = line_index(freqs, k_tilde, p)
        residues = found[:, k_tilde - 1] % p
        F0 = dft_forward(draw(truth.coeffs))
        np.subtract.at(F0, residues, p * found_coeffs)
        bins = top_bins(F0, s_star)
        Fu = F0[bins]
        ranked = np.zeros(p, dtype=bool)
        ranked[bins] = True
        landed = ranked[residues]
        landed_rows, residues = weighable(found[landed]), residues[landed]
        peeled = p * found_coeffs[landed]

        # Each shift level draws its d' vectors in one call, as a (d', p)
        # block from the truth's weights at that level, and transforms the
        # block with one FFT. A bin failing the collision test on any axis
        # gets the level's vote. An empty bin fails every level, so its M+1
        # votes (eta < 1) reject it; its phases read 0.
        votes = np.zeros(s_star, dtype=np.int64)
        phases = np.empty((M + 1, d_red, s_star), dtype=np.float64)
        for alpha in range(M + 1):
            Fs = dft_forward(draw(weights[alpha]))
            np.subtract.at(Fs, (slice(None), residues), weigh(peeled, landed_rows, alpha))
            passed, phases[alpha] = shift_ratio(Fu, Fs[:, bins], tau)
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
        # Each key's first row among the found rows followed by the candidates,
        # in top_bins' rank, wins: the candidate rows that win are the new modes.
        n_found = len(found)
        _, first = np.unique(_row_keys(np.concatenate([found, cands])), return_index=True)
        new = np.sort(first[first >= n_found]) - n_found
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

