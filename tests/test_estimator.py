import math

import numpy as np
import pytest
from reference import frac_product

from msfourier import FourierMode, NoiseModel, SparseSpectrum
from msfourier.dft import dft_forward
from msfourier.estimator import (
    MAX_SHIFT_LEVELS,
    NOISELESS_MAX_BETA,
    _frac_product,
    accept_candidate,
    bin_phase,
    collision_test,
    estimate_coefficient,
    finalize_entry,
    frac_centered,
    make_schedule,
    reconstruct_entry,
)
from msfourier.sampler import SamplePlan, gather_unwrapped, line_index, shift_weights
from msfourier.unwrap import UnwrapMap, unwrap_freq


class TestSchedule:
    def test_benchmark_scale_values(self):
        sched = make_schedule(256, 0.512, 1.0, 2.0, 6.0, 2.5, 3368421)
        assert sched.p == 521  # max{512, 73.2} -> first prime >= 512
        assert sched.M == 17
        assert sched.tau == pytest.approx(6 * 0.512 / math.sqrt(521))
        assert sched.eps0 == pytest.approx(1 / (2 * 3368421))
        assert sched.delta == pytest.approx(1 / 7)  # 1/(2*2.5+2)
        assert len(sched.shifts) == sched.M + 1
        assert np.all(np.diff(sched.shifts) > 0)
        np.testing.assert_allclose(sched.shifts, sched.eps0 * 2.5 ** np.arange(18))

    def test_noiseless_schedule(self):
        sched = make_schedule(4, 0.0, 1.0, 2.0, 6.0, 2.5, 3368421)
        assert sched.p == 11  # first prime >= 2*4
        assert sched.tau == 1e-9  # floor replaces the exact zero

    def test_noise_floor_dominates(self):
        # c1 s* = 32 < 73.2 -> p from the noise term
        sched = make_schedule(16, 0.512, 1.0, 2.0, 6.0, 2.5, 3368421)
        assert sched.p == 79

    def test_validation(self):
        with pytest.raises(ValueError):
            make_schedule(0, 0.1, 1.0, 2.0, 6.0, 2.5, 99)
        with pytest.raises(ValueError):
            make_schedule(4, 0.1, 1.0, 2.0, 6.0, 1.0, 99)  # beta must exceed 1
        with pytest.raises(ValueError):
            make_schedule(4, -0.1, 1.0, 2.0, 6.0, 2.5, 99)
        with pytest.raises(ValueError):
            make_schedule(4, 0.1, 0.0, 2.0, 6.0, 2.5, 99)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="beta"):
                make_schedule(4, 0.1, 1.0, 2.0, 6.0, beta, 99)
        with pytest.raises(ValueError, match="sigma"):
            make_schedule(4, float("nan"), 1.0, 2.0, 6.0, 2.5, 99)
        for c1 in (float("nan"), 0.1):
            with pytest.raises(ValueError, match="c1"):
                make_schedule(4, 0.1, 1.0, c1, 6.0, 2.5, 99)
        for c_sigma in (float("nan"), -1.0, 0.0):
            with pytest.raises(ValueError, match="c_sigma"):
                make_schedule(4, 0.1, 1.0, 2.0, c_sigma, 2.5, 99)

    def test_ladder_depends_only_on_bandwidth_and_beta(self):
        # recover computes each residual row's shift weights once per run,
        # so every outer iteration's schedule must carry the same ladder:
        # one for sigma > 0 and one, floored at growth 2^24, for sigma = 0
        for n_eff in (3368421, 215578947368421, 4311578947368421):  # N=20, d1=5, 11, 12
            noisy = make_schedule(256, 0.512, 1.0, 2.0, 6.0, 2.5, n_eff)
            noiseless = make_schedule(256, 0.0, 1.0, 2.0, 6.0, 2.5, n_eff)
            assert noiseless.beta == NOISELESS_MAX_BETA
            for s_star in (1, 7, 255, 1024):
                sched = make_schedule(s_star, 0.0, 1.0, 2.0, 6.0, 2.5, n_eff)
                assert sched.shifts.tobytes() == noiseless.shifts.tobytes()
                assert (sched.M, sched.beta) == (noiseless.M, noiseless.beta)
                for sigma in (0.001, 0.512, 2.0):
                    sched = make_schedule(s_star, sigma, 1.0, 2.0, 6.0, 2.5, n_eff)
                    assert sched.shifts.tobytes() == noisy.shifts.tobytes()
                    assert (sched.M, sched.beta) == (noisy.M, 2.5)

    def test_noiseless_ladder_sized_by_float64_error(self):
        # at sigma = 0 the growth is at least 2^24 at every N', so the ladder
        # has one level below N' = 2^24, two below 2^48 and three up to the
        # 2^53 cap; a wider configured beta is kept as it is
        table = {  # N': (beta, M) at a configured 2.5, then at 2^30
            2**24 - 1: ((2**24, 1), (2**30, 1)),
            2**24: ((2**24, 2), (2**30, 1)),
            2**24 + 1: ((2**24, 2), (2**30, 1)),
            2**46: ((2**24, 2), (2**30, 2)),
            2**48 + 1: ((2**24, 3), (2**30, 2)),
            2**53: ((2**24, 3), (2**30, 2)),
        }
        for n_eff, pinned in table.items():
            for configured, (beta, M) in zip((2.5, 2.0**30), pinned):
                sched = make_schedule(8, 0.0, 1.0, 2.0, 6.0, configured, n_eff)
                assert (sched.beta, sched.M) == (beta, M), n_eff
                assert sched.delta == 1 / (2 * beta + 2)
                np.testing.assert_array_equal(
                    sched.shifts, sched.eps0 * float(beta) ** np.arange(M + 1)
                )

    def test_overlong_ladder_refused(self):
        # beta near 1 asks for M = floor(log_beta N') + 1 levels: 15,038 at
        # beta=1.001 and ~1.5e10 (a 120 GB ladder) at 1 + 1e-9; both are
        # refused before any array is built
        for beta in (1.001, 1 + 1e-9):
            with pytest.raises(ValueError, match="shift levels"):
                make_schedule(8, 0.0, 1.0, 2.0, 6.0, beta, 3368421)
        # at sigma = 0 the configured beta is checked before it is widened;
        # at sigma > 0 it is the ladder's own
        n_eff = 3368421
        at_cap = n_eff ** (1 / (MAX_SHIFT_LEVELS - 0.5))  # log_beta N' = cap - 1/2
        assert make_schedule(8, 0.1, 1.0, 2.0, 6.0, at_cap, n_eff).M == MAX_SHIFT_LEVELS
        past_cap = n_eff ** (1 / (MAX_SHIFT_LEVELS + 0.5))
        with pytest.raises(ValueError, match="shift levels"):
            make_schedule(8, 0.0, 1.0, 2.0, 6.0, past_cap, n_eff)


class TestCollisionTest:
    def test_unit_modulus_ratio_passes(self):
        assert collision_test(5 + 0j, 5j, 0.01)

    def test_half_ratio_fails(self):
        assert not collision_test(5 + 0j, 2.5 + 0j, 0.01)

    def test_empty_bin_fails(self):
        assert not collision_test(0j, 1 + 0j, 0.5)

    def test_collided_bins_generically_fail(self):
        # two colliding modes: the shifted magnitude |a1 e^{i t1} + a2 e^{i t2}|
        # almost never matches |a1 + a2|
        rng = np.random.default_rng(9)
        failures = 0
        trials = 1000
        for _ in range(trials):
            a1, a2 = np.exp(2j * np.pi * rng.random(2))
            t1, t2 = 2 * np.pi * rng.random(2)
            unshifted = a1 + a2
            shifted = a1 * np.exp(1j * t1) + a2 * np.exp(1j * t2)
            if not collision_test(unshifted, shifted, 1e-6):
                failures += 1
        assert failures >= 0.99 * trials


def first_level_entry(F_shifted, F_unshifted, eps0):
    """Coarse entry Arg(shifted/unshifted) / (2 pi eps0): a one-shift ladder."""
    return reconstruct_entry([eps0], [bin_phase(F_shifted, F_unshifted)])


# A first level at shift 2^-40 reads a starting estimate w_prev back exactly
# (scaling by a power of two is exact in binary), so a two-level ladder
# applies one correction level at any larger shift eps to w_prev.
EPS_START = 2.0**-40


def refined(w_prev, b, eps):
    """One correction level at shift eps applied to w_prev."""
    return reconstruct_entry([EPS_START, eps], [w_prev * EPS_START, b])


class TestEntryEstimation:
    def test_first_level_entry_examples(self):
        eps0 = 1 / 200
        assert first_level_entry(np.exp(2j * np.pi * 7 * eps0), 1 + 0j, eps0) == pytest.approx(7.0)
        assert first_level_entry(1 + 0j, 1 + 0j, eps0) == 0.0
        assert first_level_entry(np.exp(2j * np.pi * -50 * eps0), 1 + 0j, eps0) == pytest.approx(
            -50.0
        )
        # branch [-pi, pi): the -N'/2 edge maps to -100, not +100
        assert first_level_entry(np.exp(2j * np.pi * -100 * eps0), 1 + 0j, eps0) == pytest.approx(
            -100.0
        )

    def test_dead_bin_is_never_accepted(self):
        # an empty unshifted bin has no phase, fails every collision test,
        # and so collects M+1 votes, which no eta < 1 accepts
        assert bin_phase(1 + 0j, 0j) == 0.0
        assert not collision_test(0j, 1 + 0j, 0.5)
        # below DEAD_BIN a bin counts as empty even where the ratio is finite
        assert bin_phase(1e-310j, 1e-310 + 0j) == 0.0
        assert not collision_test(1e-310 + 0j, 1e-310j, 0.5)
        M = 17
        assert not accept_candidate(M + 1, M, 0.25)
        assert not accept_candidate(M + 1, M, 0.99)

    def test_refine_exact_phase_is_fixed_point(self):
        w = 137.0
        eps = 1 / 32
        b = frac_centered(eps * w)
        assert refined(w, b, eps) == pytest.approx(w)

    def test_refine_recovers_small_offset(self):
        eps = 1 / 32
        b = frac_centered(eps * 103)
        assert refined(100.0, b, eps) == pytest.approx(103.0)

    def test_refine_is_linear_in_phase_noise(self):
        eps = 1 / 32
        b = frac_centered(eps * 103 + 0.01)
        assert refined(100.0, b, eps) == pytest.approx(103.0 + 0.01 / eps)

    def test_reconstruct_single_level(self):
        n_eff = 201
        eps0 = 1 / (2 * n_eff)
        for w in (-100, -1, 0, 57, 100):
            assert reconstruct_entry([eps0], [eps0 * w]) == pytest.approx(float(w))

    def test_reconstruct_exact_ladder(self):
        n_eff = 30000
        beta, w = 2.5, 12345
        eps0 = 1 / (2 * n_eff)
        M = math.floor(math.log(n_eff, beta)) + 1
        shifts = eps0 * beta ** np.arange(M + 1)
        phases = frac_centered(shifts * w)
        assert abs(reconstruct_entry(shifts, phases) - w) < 0.5

    def test_reconstruct_matches_folded_refinement(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            levels = rng.integers(2, 12)
            shifts = np.sort(rng.uniform(1e-6, 1.0, size=levels))
            shifts = np.unique(shifts)
            phases = rng.uniform(-0.5, 0.5, size=len(shifts))
            w = first_level_entry(np.exp(2j * np.pi * phases[0]), 1 + 0j, shifts[0])
            for eps, b in zip(shifts[1:], phases[1:]):
                w = refined(w, b, eps)
            assert reconstruct_entry(shifts, phases) == pytest.approx(w, abs=1e-9)

    def test_reconstruct_bound_under_phase_noise(self):
        # smaller sibling of the acceptance-suite reconstruction-bound check
        rng = np.random.default_rng(11)
        sched = make_schedule(4, 0.0, 1.0, 2.0, 6.0, 2.5, 3368421)
        bound = sched.delta / sched.eps0 * sched.beta ** -sched.M
        half = 3368421 // 2
        for _ in range(100):
            w = int(rng.integers(-half, half + 1))
            noise = rng.uniform(-sched.delta, sched.delta, size=sched.M + 1)
            phases = frac_centered(sched.shifts * w + noise)
            est = reconstruct_entry(sched.shifts, phases)
            assert abs(est - w) <= bound
            assert abs(est - w) < 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            reconstruct_entry([0.1, 0.05], [0.0, 0.0])  # not increasing
        with pytest.raises(ValueError):
            reconstruct_entry([0.1, 0.2], [0.0])
        with pytest.raises(ValueError):
            reconstruct_entry([0.0, 0.1], [0.0, 0.0])  # shifts must be positive


class TestFracProduct:
    @staticmethod
    def cycles_apart(x, y):
        gap = np.abs(x - y)
        return np.minimum(gap, 1 - gap)

    def test_matches_rational_reference(self):
        # integers up to 2^52 against shifts from 2^-54 to 2^20, where the
        # rounded product alone can be off by up to half a cycle
        rng = np.random.default_rng(21)
        a = np.round(rng.uniform(-1, 1, 2000) * 2.0 ** rng.uniform(0, 52, 2000))
        b = rng.uniform(0.5, 1, 2000) * 2.0 ** rng.uniform(-54, 20, 2000)
        got = _frac_product(a, b)
        assert np.all((got >= -0.5) & (got < 0.5))
        assert np.all(self.cycles_apart(got, frac_product(a, b)) <= 2.0**-53)
        assert np.max(self.cycles_apart(frac_centered(a * b), frac_product(a, b))) > 0.1

    def test_across_real_ladders(self):
        # every shift of the noisy and the noiseless ladder at N' near 2^52,
        # with entries spanning the unwrapped range [-N'/2, N'/2]
        n_eff = UnwrapMap(bandwidth=20, dim=12, block=12).eff_bandwidth
        rng = np.random.default_rng(22)
        w = np.concatenate([[-(n_eff // 2), n_eff // 2, 0, 1],
                            rng.integers(-(n_eff // 2), n_eff // 2, 200)]).astype(np.float64)
        for sigma in (0.0, 0.512):
            for eps in make_schedule(8, sigma, 1.0, 2.0, 6.0, 2.5, n_eff).shifts:
                got = _frac_product(w, eps)
                assert np.all(self.cycles_apart(got, frac_product(w, eps)) <= 2.0**-53)
                # the product is symmetric, as reconstruct_entry calls it
                np.testing.assert_array_equal(_frac_product(eps, w), got)

    def test_reconstruct_near_exact_bandwidth(self):
        # on either ladder at N' near 2^52, phases within delta/2 of their
        # exact values round back to the entry, the edges of the unwrapped
        # range included; with eps * w rounded, some land one or two off
        n_eff = UnwrapMap(bandwidth=20, dim=12, block=12).eff_bandwidth
        rng = np.random.default_rng(23)
        w = np.concatenate([[-(n_eff // 2), n_eff // 2 - 1],
                            rng.integers(-(n_eff // 2), n_eff // 2, 300)])
        for sigma in (0.0, 0.512):
            sched = make_schedule(8, sigma, 1.0, 2.0, 6.0, 2.5, n_eff)
            noise = rng.uniform(-sched.delta / 2, sched.delta / 2, (sched.M + 1, len(w)))
            exact = frac_product(w.astype(np.float64), sched.shifts[:, None])
            phases = frac_centered(exact + noise)
            est = finalize_entry(reconstruct_entry(sched.shifts, phases))
            np.testing.assert_array_equal(est, w)


def test_finalize_entry():
    assert finalize_entry(12344.7) == 12345
    assert finalize_entry(-0.4) == 0
    assert finalize_entry(2.5) == 3  # ties away from zero
    assert finalize_entry(-2.5) == -3


def test_accept_candidate():
    assert accept_candidate(0, 5, 0.25)
    assert not accept_candidate(5, 17, 0.25)  # 5 > 0.25 * 18
    assert accept_candidate(4, 17, 0.25)  # 4 <= 4.5
    with pytest.raises(ValueError):
        accept_candidate(20, 17, 0.25)


class TestCoefficientEstimate:
    def test_trivial(self):
        assert estimate_coefficient(5 + 0j, 5) == 1 + 0j

    def test_noiseless_mode(self):
        p, a = 11, 0.3 - 0.4j
        v = a * np.exp(2j * np.pi * 41 * np.arange(p) / p)
        F = dft_forward(v)
        assert abs(estimate_coefficient(F[41 % p], p) - a) <= 1e-9

    def test_noisy_error_scale(self):
        # mean coefficient error over streams stays within 3 sigma/sqrt(p)
        p, sigma, a = 521, 0.5, 1.0 + 0j
        spec = SparseSpectrum(modes=(FourierMode((3, 1), a),), bandwidth=8, dim=2)
        umap = UnwrapMap(bandwidth=8, dim=2, block=1)
        noise = NoiseModel(sigma=sigma, seed=21)
        index = line_index(unwrap_freq(spec.freqs, umap), 1, p)
        errors = []
        for stream in range(300):
            vals = gather_unwrapped(index, spec.coeffs, SamplePlan(p=p, stream=stream), noise)
            est = estimate_coefficient(dft_forward(vals)[3 % p], p)
            errors.append(abs(est - a))
        assert np.mean(errors) <= 3 * sigma / math.sqrt(p)


def test_noise_error_scaling_for_entries():
    # median |w_hat - w| scales like sigma / sqrt(p) within a factor of 2
    spec = SparseSpectrum(modes=(FourierMode((3, 1), 1.0),), bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    eps0 = 1 / (2 * umap.eff_bandwidth)
    w_true = 3.0
    freqs = unwrap_freq(spec.freqs, umap)
    # line and shift both along axis 1
    weights = shift_weights(spec.coeffs, freqs[:, 0].astype(np.float64), eps0)

    def median_error(p, sigma, n=300):
        noise = NoiseModel(sigma=sigma, seed=31)
        index = line_index(freqs, 1, p)
        errs = []
        for stream in range(n):
            base = gather_unwrapped(index, spec.coeffs, SamplePlan(p=p, stream=2 * stream), noise)
            shifted = gather_unwrapped(
                index, weights, SamplePlan(p=p, stream=2 * stream + 1), noise
            )
            m = 3 % p
            est = first_level_entry(dft_forward(shifted)[m], dft_forward(base)[m], eps0)
            errs.append(abs(est - w_true))
        return float(np.median(errs))

    base = median_error(31, 0.125)
    assert 2.0 <= median_error(31, 0.5) / base <= 8.0  # 4x sigma -> ~4x error
    assert 0.25 <= median_error(127, 0.125) / base <= 1.0  # ~4x p -> ~x/2 error


def test_lee_norm_bound():
    # || Arg(g + n) - Arg(g) ||_{2 pi Z} <= (pi/2) |n/g| whenever |g| >= |n|
    rng = np.random.default_rng(12)
    n_pairs = 10**5
    g = rng.standard_normal(n_pairs) + 1j * rng.standard_normal(n_pairs)
    ratio = rng.uniform(0, 1, size=n_pairs) * np.exp(2j * np.pi * rng.random(n_pairs))
    nu = g * ratio  # |nu| <= |g| by construction
    diff = np.angle(g + nu) - np.angle(g)
    lee = np.abs(diff - 2 * np.pi * np.round(diff / (2 * np.pi)))
    assert np.all(lee <= (np.pi / 2) * np.abs(ratio) + 1e-12)


class TestStackedCases:
    """Each estimator function, fed its scalar cases as one stacked array,
    returns the scalar results elementwise (recover calls them on blocks)."""

    def test_collision_test(self):
        cases = [(5 + 0j, 5j, 0.01), (5 + 0j, 2.5 + 0j, 0.01), (0j, 1 + 0j, 0.5)]
        unshifted, shifted, tau = (np.array(col) for col in zip(*cases))
        expected = [collision_test(*case) for case in cases]
        np.testing.assert_array_equal(collision_test(unshifted, shifted, tau), expected)
        # (d', s*) shifted bins against (s*,) unshifted bins
        block = np.stack([shifted, 1j * shifted])
        np.testing.assert_array_equal(collision_test(unshifted, block, tau), [expected] * 2)

    def test_bin_phase(self):
        eps0 = 1 / 200
        shifted = np.exp(2j * np.pi * eps0 * np.array([7, 0, -50, -100, 3]))
        unshifted = np.array([1, 1, 1, 1, 0], dtype=np.complex128)
        expected = [bin_phase(a, b) for a, b in zip(shifted, unshifted)]
        np.testing.assert_array_equal(bin_phase(shifted, unshifted), expected)
        np.testing.assert_array_equal(
            bin_phase(np.stack([shifted, shifted]), unshifted), [expected] * 2
        )

    def test_reconstruct_entry(self):
        rng = np.random.default_rng(11)
        sched = make_schedule(4, 0.0, 1.0, 2.0, 6.0, 2.5, 3368421)
        half = 3368421 // 2
        w = rng.integers(-half, half + 1, size=(3, 40))
        noise = rng.uniform(-sched.delta, sched.delta, size=(sched.M + 1, 3, 40))
        phases = frac_centered(sched.shifts[:, None, None] * w + noise)
        est = reconstruct_entry(sched.shifts, phases)
        assert est.shape == (3, 40)
        expected = [
            [reconstruct_entry(sched.shifts, phases[:, k, j]) for j in range(40)]
            for k in range(3)
        ]
        np.testing.assert_array_equal(est, expected)
        np.testing.assert_array_equal(finalize_entry(est), w)

    def test_finalize_entry(self):
        cases = [12344.7, -0.4, 2.5, -2.5]
        out = finalize_entry(np.array(cases))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [finalize_entry(x) for x in cases])

    def test_accept_candidate(self):
        votes = np.array([0, 4, 5, 18])
        expected = [accept_candidate(v, 17, 0.25) for v in votes]
        np.testing.assert_array_equal(accept_candidate(votes, 17, 0.25), expected)
        with pytest.raises(ValueError):
            accept_candidate(np.array([0, 20]), 17, 0.25)

    def test_estimate_coefficient(self):
        p = 11
        F = dft_forward(0.3 * np.exp(2j * np.pi * 41 * np.arange(p) / p))
        np.testing.assert_array_equal(
            estimate_coefficient(F, p), [estimate_coefficient(f, p) for f in F]
        )
