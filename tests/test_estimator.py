import math

import numpy as np
import pytest
from reference import frac_product

from msfourier import FourierMode, NoiseModel, SparseSpectrum
from msfourier.dft import dft_forward
from msfourier.estimator import (
    DEAD_BIN,
    MAX_SHIFT_LEVELS,
    NOISELESS_MAX_BETA,
    _frac_product,
    _ladder,
    estimate_coefficient,
    frac_centered,
    make_schedule,
    reconstruct_entry,
    shift_ratio,
)
from msfourier.sampler import SamplePlan, gather_unwrapped, line_index, shift_weights
from msfourier.unwrap import UnwrapMap, unwrap_freq


class TestSchedule:
    def test_benchmark_scale_values(self):
        p, tau = make_schedule(256, 0.512, 1.0, 2.0, 6.0, 2.5)
        assert p == 521  # max{512, 73.2} -> first prime >= 512
        assert tau == pytest.approx(6 * 0.512 / math.sqrt(521))
        # at the noise floor's p = 79 the ladder grows by beta exactly:
        # g* = 2.56 needs M = 17 levels, and N'^(1/17) = 2.42 is below 2.5
        assert make_schedule(1, 0.512, 1.0, 2.0, 6.0, 2.5)[0] == 79
        shifts = _ladder(3368421, 79, 0.512, 1.0, 6.0, 2.5)
        assert len(shifts) == 18  # M = floor(log_2.5 N') + 1 = 17
        assert shifts[0] == 1 / (2 * 3368421)
        assert np.all(np.diff(shifts) > 0)
        want = 1.0 / (2 * 3368421) * 2.5 ** np.arange(18, dtype=np.float64)
        assert shifts.tobytes() == want.tobytes()

    def test_noiseless_schedule(self):
        p, tau = make_schedule(4, 0.0, 1.0, 2.0, 6.0, 2.5)
        assert p == 11  # first prime >= 2*4
        assert tau == 1e-9  # floor replaces the exact zero

    def test_noise_floor_dominates(self):
        # c1 s* = 32 < 73.2 -> p from the noise term
        assert make_schedule(16, 0.512, 1.0, 2.0, 6.0, 2.5)[0] == 79

    def test_validation(self):
        with pytest.raises(ValueError):
            make_schedule(0, 0.1, 1.0, 2.0, 6.0, 2.5)
        with pytest.raises(ValueError):
            make_schedule(4, 0.1, 1.0, 2.0, 6.0, 1.0)  # beta must exceed 1
        with pytest.raises(ValueError):
            make_schedule(4, -0.1, 1.0, 2.0, 6.0, 2.5)
        with pytest.raises(ValueError):
            make_schedule(4, 0.1, 0.0, 2.0, 6.0, 2.5)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="beta"):
                make_schedule(4, 0.1, 1.0, 2.0, 6.0, beta)
        with pytest.raises(ValueError, match="sigma"):
            make_schedule(4, float("nan"), 1.0, 2.0, 6.0, 2.5)
        for c1 in (float("nan"), 0.1):
            with pytest.raises(ValueError, match="c1"):
                make_schedule(4, 0.1, 1.0, c1, 6.0, 2.5)
        for c_sigma in (float("nan"), -1.0, 0.0):
            with pytest.raises(ValueError, match="c_sigma"):
                make_schedule(4, 0.1, 1.0, 2.0, c_sigma, 2.5)

    def test_noiseless_ladder_sized_by_float64_error(self):
        # at sigma = 0 the growth is at least 2^24 at every N', so the ladder
        # has one level up to N' = 2^24, two up to 2^48 and three up to the
        # 2^53 cap; a wider beta is kept as it is. N' = N R + 1 is odd, so
        # no config reaches 2^24 itself. At p = 0 (no SNR to spare) every
        # sigma > 0 grows by beta
        table = {  # N': (growth, M) at beta = 2.5, then at 2^30
            2**24 - 1: ((2**24, 1), (2**30, 1)),
            2**24: ((2**24, 1), (2**30, 1)),
            2**24 + 1: ((2**24, 2), (2**30, 1)),
            2**46: ((2**24, 2), (2**30, 2)),
            2**48 + 1: ((2**24, 3), (2**30, 2)),
            2**53: ((2**24, 3), (2**30, 2)),
            3368421: ((2**24, 1), (2**30, 1)),  # N=20 at d1=5, 11 and 12
            215578947368421: ((2**24, 2), (2**30, 2)),
            4311578947368421: ((2**24, 3), (2**30, 2)),
        }
        for n_eff, pinned in table.items():
            for beta, (growth, M) in zip((2.5, 2.0**30), pinned):
                for p in (0, 11, 10**6 + 3):
                    shifts = _ladder(n_eff, p, 0.0, 1.0, 6.0, beta)
                    assert len(shifts) == M + 1, n_eff
                    want = 1.0 / (2 * n_eff) * float(growth) ** np.arange(M + 1)
                    assert shifts.tobytes() == want.tobytes()
                levels = math.floor(math.log(n_eff, beta)) + 2
                want = 1.0 / (2 * n_eff) * beta ** np.arange(levels, dtype=np.float64)
                for sigma in (0.001, 0.512, 2.0):
                    assert _ladder(n_eff, 0, sigma, 1.0, 6.0, beta).tobytes() == want.tobytes()
        # the growth at 2^30 stays 2^30, not N'^(1/M)
        assert _ladder(2**46, 11, 0.0, 1.0, 6.0, 2.0**30)[1] == 2.0**30 / 2**47

    def test_overlong_ladder_refused(self):
        # beta near 1 bounds the ladder by floor(log_beta N') + 1 levels:
        # 15,038 at beta=1.001 and ~1.5e10 (a 120 GB ladder) at 1 + 1e-9; both
        # are refused before any array is built, at every p and sigma
        for beta in (1.001, 1 + 1e-9):
            for p, sigma in ((11, 0.0), (0, 0.1), (10**6 + 3, 0.1)):
                with pytest.raises(ValueError, match="shift levels"):
                    _ladder(3368421, p, sigma, 1.0, 6.0, beta)
        # at sigma = 0 the bound is counted at beta, below the 2^24 growth
        n_eff = 3368421
        at_cap = n_eff ** (1 / (MAX_SHIFT_LEVELS - 0.5))  # log_beta N' = cap - 1/2
        assert len(_ladder(n_eff, 0, 0.1, 1.0, 6.0, at_cap)) == MAX_SHIFT_LEVELS + 1
        past_cap = n_eff ** (1 / (MAX_SHIFT_LEVELS + 0.5))
        with pytest.raises(ValueError, match="shift levels"):
            _ladder(n_eff, 11, 0.0, 1.0, 6.0, past_cap)

    def test_ladders_are_read_only(self):
        for sigma in (0.0, 0.512):
            shifts = _ladder(3368421, 521, sigma, 1.0, 6.0, 2.5)
            with pytest.raises(ValueError, match="read-only"):
                shifts[0] = 1.0

    def test_fitted_ladder_is_the_shortest_p_admits(self):
        # p admits growth up to g* = (sqrt(1 + 4r) - 1)/2 with
        # r = pi a_min sqrt(p) / (c_sigma sigma); the ladder has the fewest
        # levels M whose growth N'^(1/M) stays within g*, and grows by beta
        # itself once M reaches its 17 levels at beta
        n_eff, sigma = 3368421, 0.512
        fitted = _ladder(n_eff, 521, sigma, 1.0, 6.0, 2.5)
        assert len(fitted) == 12  # g* = 4.36 at the headline's first p
        np.testing.assert_allclose(fitted, fitted[0] * n_eff ** (np.arange(12) / 11), rtol=1e-12)
        assert fitted[0] == 1 / (2 * n_eff)
        at_beta = 1.0 / (2 * n_eff) * 2.5 ** np.arange(18, dtype=np.float64)
        seen = set()
        for p in range(79, 3000, 2):
            fitted = _ladder(n_eff, p, sigma, 1.0, 6.0, 2.5)
            M = len(fitted) - 1
            seen.add(M)
            if M == 17:
                assert fitted.tobytes() == at_beta.tobytes(), p
                continue
            r = math.pi * math.sqrt(p) / (6.0 * sigma)
            top = (math.sqrt(1 + 4 * r) - 1) / 2
            growth = fitted[1] / fitted[0]
            assert 2.5 < growth <= top * (1 + 1e-12), p
            assert n_eff ** (1 / (M - 1)) > top, p  # one level fewer grows too fast
        assert seen == set(range(8, 18))
        # sigma = 0 keeps the noiseless ladder at any p
        noiseless = _ladder(n_eff, 11, 0.0, 1.0, 6.0, 2.5)
        assert _ladder(n_eff, 10**6 + 3, 0.0, 1.0, 6.0, 2.5).tobytes() == noiseless.tobytes()

    def test_fitted_ladder_growth_stays_within_float64_bound(self):
        # near N' = 2^52 a tiny sigma admits growth past 2^24, which float64
        # phases do not survive: the growth stops at 2^24, three levels as at
        # sigma = 0, not the two N'^(1/2) ~ 2^26 would give
        n_eff = 4311578947368421
        fitted = _ladder(n_eff, 521, 1e-15, 1.0, 6.0, 2.5)
        assert len(fitted) == 4
        assert fitted[1] / fitted[0] <= NOISELESS_MAX_BETA
        # a sigma whose noise c_sigma sigma underflows to 0 is noiseless
        noiseless = _ladder(n_eff, 521, 0.0, 1.0, 6.0, 2.5)
        assert _ladder(n_eff, 521, 5e-324, 1.0, 0.4, 2.5).tobytes() == noiseless.tobytes()


class TestCollisionTest:
    """The collision verdict of shift_ratio, and the phase it reads beside it."""

    def test_unit_modulus_ratio_passes(self):
        passed, phase = shift_ratio(5 + 0j, 5j, 0.01)
        assert passed and phase == 0.25

    def test_half_ratio_fails(self):
        passed, phase = shift_ratio(5 + 0j, 2.5 + 0j, 0.01)
        assert not passed and phase == 0.0

    def test_empty_bin_fails(self):
        assert shift_ratio(0j, 1 + 0j, 0.5) == (False, 0.0)
        # below DEAD_BIN a bin counts as empty even where the ratio is finite
        assert shift_ratio(1e-310 + 0j, 1e-310j, 0.5) == (False, 0.0)

    def test_argument_of_pi_reads_minus_half(self):
        # the branch is [-pi, pi): +pi and -pi both read -1/2
        for shifted in (-1 + 0j, complex(-1, -0.0)):
            passed, phase = shift_ratio(1 + 0j, shifted, 0.01)
            assert passed and phase == -0.5

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
            if not shift_ratio(unshifted, shifted, 1e-6)[0]:
                failures += 1
        assert failures >= 0.99 * trials


def first_level_entry(F_shifted, F_unshifted, eps0):
    """Coarse entry Arg(shifted/unshifted) / (2 pi eps0): a one-shift ladder."""
    return reconstruct_entry([eps0], [shift_ratio(F_unshifted, F_shifted, 0.0)[1]])


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
        # an empty unshifted bin, or one below DEAD_BIN, fails at every level
        # with phase 0, even against shifted bins of its own magnitude, so it
        # collects M+1 votes, which no eta < 1 accepts (RecoveryConfig
        # refuses eta >= 1)
        rng = np.random.default_rng(24)
        M, d_red = 17, 3
        for dead in (0j, 1e-310 + 0j, DEAD_BIN / 2 * 1j):
            turns = np.exp(2j * np.pi * rng.random((M + 1, d_red)))
            for shifted in (turns, abs(dead) * turns):
                votes = 0
                for level in shifted:
                    passed, phase = shift_ratio(dead, level, 0.5)
                    assert not phase.any()
                    votes += ~passed.all()
                assert votes == M + 1

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
        # smaller sibling of the acceptance-suite reconstruction-bound check,
        # on the noiseless ladder (one level, growth N')
        rng = np.random.default_rng(11)
        shifts = _ladder(3368421, 11, 0.0, 1.0, 6.0, 2.5)
        beta, M = shifts[1] / shifts[0], len(shifts) - 1
        delta = 1 / (2 * beta + 2)
        bound = delta / shifts[0] * beta**-M
        half = 3368421 // 2
        for _ in range(100):
            w = int(rng.integers(-half, half + 1))
            noise = rng.uniform(-delta, delta, size=M + 1)
            phases = frac_centered(shifts * w + noise)
            est = reconstruct_entry(shifts, phases)
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
            for eps in _ladder(n_eff, 0, sigma, 1.0, 6.0, 2.5):
                got = _frac_product(w, eps)
                assert np.all(self.cycles_apart(got, frac_product(w, eps)) <= 2.0**-53)
                # the product is symmetric, as reconstruct_entry calls it
                np.testing.assert_array_equal(_frac_product(eps, w), got)

    def test_reconstruct_near_exact_bandwidth(self):
        # on either ladder at N' near 2^52, phases within 0.99 delta of their
        # exact values round back to the entry, the edges of the unwrapped
        # range included; with eps * w rounded, or the running estimate held
        # as one float64 (rounded by up to 1/4 there), some land one or two off
        n_eff = UnwrapMap(bandwidth=20, dim=12, block=12).eff_bandwidth
        rng = np.random.default_rng(23)
        w = np.concatenate([[-(n_eff // 2), n_eff // 2 - 1],
                            rng.integers(-(n_eff // 2), n_eff // 2, 2000)])
        for sigma in (0.0, 0.512):
            shifts = _ladder(n_eff, 0, sigma, 1.0, 6.0, 2.5)
            edge = 0.99 / (2 * shifts[1] / shifts[0] + 2)
            noise = rng.uniform(-edge, edge, (len(shifts), len(w)))
            exact = frac_product(w.astype(np.float64), shifts[:, None])
            phases = frac_centered(exact + noise)
            est = np.rint(reconstruct_entry(shifts, phases)).astype(np.int64)
            np.testing.assert_array_equal(est, w)


def test_votes_count_failing_levels():
    # recover adds a bin's vote at each level where it fails on any axis and
    # keeps a candidate with at most eta (M+1) votes: at M = 17 and eta =
    # 0.25, 4 failing levels are accepted (4 <= 4.5) and 5 are not
    M, eta = 17, 0.25
    fails = np.array([0, 4, 5, 18])
    unshifted = np.full(4, 2 + 0j)
    votes = np.zeros(4, dtype=np.int64)
    for alpha in range(M + 1):
        # (d', s*) = (2, 4): on axis 1 bin j's modulus halves at its first fails[j] levels
        shifted = np.stack([np.full(4, 2j), np.where(alpha < fails, 1 + 0j, 2 + 0j)])
        passed, _ = shift_ratio(unshifted, shifted, 0.01)
        votes += ~passed.all(axis=0)
    np.testing.assert_array_equal(votes, fails)
    np.testing.assert_array_equal(votes <= eta * (M + 1), [True, True, False, False])


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

    def test_shift_ratio(self):
        turns = np.exp(2j * np.pi * np.array([7, 0, -50, -100, 3]) / 200)
        cases = [(5 + 0j, 5j, 0.01), (5 + 0j, 2.5 + 0j, 0.01), (0j, 1 + 0j, 0.5),
                 (1e-310 + 0j, 1e-310j, 0.5), (1 + 0j, -1 + 0j, 0.01)]
        cases += [(1 + 0j, z, 1e-9) for z in turns] + [(0j, turns[-1], 1e-9)]
        unshifted, shifted, tau = (np.array(col) for col in zip(*cases))

        def elementwise(shifted):
            return [np.array(col) for col in zip(*map(shift_ratio, unshifted, shifted, tau))]

        passed, phase = shift_ratio(unshifted, shifted, tau)
        assert passed.dtype == bool
        np.testing.assert_array_equal([passed, phase], elementwise(shifted))
        # (d', s*) shifted bins against (s*,) unshifted bins
        block = np.stack([shifted, 1j * shifted])
        passed, phase = shift_ratio(unshifted, block, tau)
        for axis in range(2):
            np.testing.assert_array_equal([passed[axis], phase[axis]], elementwise(block[axis]))

    def test_reconstruct_entry(self):
        rng = np.random.default_rng(11)
        shifts = _ladder(3368421, 11, 0.0, 1.0, 6.0, 2.5)
        delta = 1 / (2 * shifts[1] / shifts[0] + 2)
        half = 3368421 // 2
        w = rng.integers(-half, half + 1, size=(3, 40))
        noise = rng.uniform(-delta, delta, size=(len(shifts), 3, 40))
        phases = frac_centered(shifts[:, None, None] * w + noise)
        est = reconstruct_entry(shifts, phases)
        assert est.shape == (3, 40)
        expected = [
            [reconstruct_entry(shifts, phases[:, k, j]) for j in range(40)]
            for k in range(3)
        ]
        np.testing.assert_array_equal(est, expected)
        np.testing.assert_array_equal(np.rint(est), w)

    def test_estimate_coefficient(self):
        p = 11
        F = dft_forward(0.3 * np.exp(2j * np.pi * 41 * np.arange(p) / p))
        np.testing.assert_array_equal(
            estimate_coefficient(F, p), [estimate_coefficient(f, p) for f in F]
        )
