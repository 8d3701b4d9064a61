import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from conftest import separable_instance

from msfourier import (
    FourierMode,
    NoiseModel,
    RecoveryConfig,
    SparseSpectrum,
    compare,
    recover,
    recovery,
)
from msfourier.cli import cmd_recover, random_spectrum
from msfourier.dft import dft_forward
from msfourier.estimator import MAX_SAMPLE_LENGTH, make_schedule
from msfourier.sampler import SamplePlan, gather_unwrapped, line_index
from msfourier.unwrap import UnwrapMap, unwrap_freq


def test_single_mode_exact():
    truth = SparseSpectrum(
        modes=(FourierMode((1, 2, 3, 4), 0.5 - 0.25j),), bandwidth=20, dim=4
    )
    res = recover(RecoveryConfig(N=20, d=4, d1=2, s=1), truth)
    assert res.converged and res.outer_iterations == 1
    assert res.modes.modes[0].freq == (1, 2, 3, 4)
    assert abs(res.modes.modes[0].coeff - (0.5 - 0.25j)) <= 1e-9


def test_scaled_down_heavy_noise_recovery():
    # d=20, d1=5, N=20, s=16, sigma=0.512: frequencies recovered exactly
    # on all of 10 seeded trials
    for seed in range(10):
        truth = random_spectrum(20, 20, 16, seed=100 + seed)
        cfg = RecoveryConfig(N=20, d=20, d1=5, s=16, sigma=0.512, seed=seed)
        res = recover(cfg, truth, NoiseModel(sigma=0.512, seed=seed))
        report = compare(truth, res.modes)
        assert res.converged and report.exact_freq_rate == 1.0


def test_sample_count_formula():
    # one outer iteration consumes p (1 + d'(M+1)): at p=11, d'=2 and the
    # noiseless M=1 of N'=9, 11 * (1 + 2*2) = 55
    modes = tuple(
        FourierMode(freq, 1.0) for freq in ((-4, 0), (-2, 1), (0, 2), (2, 3), (3, -1))
    )
    truth = SparseSpectrum(modes=modes, bandwidth=8, dim=2)
    cfg = RecoveryConfig(N=8, d=2, d1=1, s=5)
    sched = cfg.schedule(5)
    assert (sched.p, sched.M) == (11, 1)
    res = recover(cfg, truth)
    assert res.converged and res.outer_iterations == 1
    assert res.samples_used == sched.p * (1 + 2 * (sched.M + 1)) == 55


def test_sample_count_doubles_with_d():
    # same modes embedded in d=20 and d=40: per-iteration cost doubles up to
    # the one shared unshifted vector
    def truth_for(d):
        modes = tuple(FourierMode((w,) + (0,) * (d - 1), 1.0) for w in (1, 2, 3, 4))
        return SparseSpectrum(modes=modes, bandwidth=20, dim=d)

    r20 = recover(RecoveryConfig(N=20, d=20, d1=5, s=4), truth_for(20))
    r40 = recover(RecoveryConfig(N=20, d=40, d1=5, s=4), truth_for(40))
    assert r20.outer_iterations == r40.outer_iterations == 1
    assert 2 * r20.samples_used - r40.samples_used == 11  # p, the shared vector


def test_axis_rotation_resolves_projection_collision():
    # both modes share the first coordinate: axis 1 never separates them,
    # axis 2 does on the second outer iteration
    truth = SparseSpectrum(
        modes=(FourierMode((1, -4), 1.0), FourierMode((1, 2), 1.0j)), bandwidth=8, dim=2
    )
    res = recover(RecoveryConfig(N=8, d=2, d1=1, s=2), truth)
    assert res.converged and res.outer_iterations == 2
    assert compare(truth, res.modes).exact_freq_rate == 1.0


def test_nonconvergence_on_all_axes_collision():
    # equal first coordinates and second coordinates congruent mod 5: no
    # projection at p=5 separates the pair, so the loop hits its budget
    truth = SparseSpectrum(
        modes=(FourierMode((1, -4), 1.0), FourierMode((1, 1), 1.0)), bandwidth=8, dim=2
    )
    res = recover(RecoveryConfig(N=8, d=2, d1=1, s=2), truth)
    assert not res.converged
    assert res.outer_iterations == 20  # 10 * d'
    assert len(res.modes) == 0


def test_max_outer_override():
    truth = SparseSpectrum(
        modes=(FourierMode((1, -4), 1.0), FourierMode((1, 1), 1.0)), bandwidth=8, dim=2
    )
    res = recover(
        RecoveryConfig(N=8, d=2, d1=1, s=2, max_outer_iterations=3), truth
    )
    assert not res.converged and res.outer_iterations == 3


@pytest.mark.parametrize("cap", [0, -3])
def test_max_outer_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="max_outer_iterations"):
        RecoveryConfig(N=8, d=2, d1=1, s=2, max_outer_iterations=cap)


# A seeded noisy run's recorded result: frequencies in order with their
# coefficients (samples_used and outer_iterations are in the test).
PINNED_MODES = [
    ((-1, -9, -7, -1, -9, 7, -2, -8, -5, -2), 0.3206908367593549 - 0.9801689248082712j),
    ((0, 3, 9, -5, 5, 0, 5, 9, 4, 9), 1.019229530135326 + 0.1469242076129221j),
    ((-8, -10, -3, -2, -10, 5, -4, -1, -6, -8), -0.38997616796269 + 0.9197437481215012j),
    ((3, -8, -1, 3, 2, 9, -5, -6, 0, -7), -0.7990412471897747 + 0.5879657217366974j),
    ((8, -1, 4, -5, -5, -10, 1, -5, 8, -3), -0.5189581816817931 + 0.8310748259034647j),
    ((7, 8, -10, 7, -9, 5, -5, -5, -6, 1), -0.5079196787465069 - 0.837160885798961j),
    ((0, 8, 4, 6, -6, -7, 2, -4, 8, 6), 0.9118073342742226 - 0.338902729354621j),
    ((-1, 0, -1, 6, -6, -10, 3, 4, 3, 5), 0.8770100221426586 - 0.4005979929262747j),
    ((-2, -5, -9, 1, 8, 2, -5, 7, -6, 0), -0.011348382192631927 - 0.9438256646655923j),
    ((-7, -2, -10, 1, 0, 3, -8, -3, -6, 0), 0.8127745915979045 + 0.4659585230456078j),
    ((3, 1, 0, -3, 1, -3, -5, 3, 6, 5), -0.9000711433968585 + 0.5666530274948749j),
    ((-7, -1, 9, 1, -1, -6, 5, 0, 2, 0), 1.0299682566853674 + 0.20819834668171733j),
    ((-9, 7, 5, 6, 7, 4, -7, -9, -2, -10), -0.5070574183556407 + 0.890573035459741j),
    ((7, 5, -6, -4, 4, -8, -10, 8, -5, 0), 1.0111511785428906 - 0.10051095710781088j),
    ((-5, 3, -4, -2, 6, -2, -9, 0, 8, 0), 0.10793922923938733 - 0.9764841081441622j),
    ((-7, -9, -3, 9, 3, -1, 9, -6, -4, 0), -0.7117806381591515 + 0.6702724096380386j),
]


def test_pinned_noisy_recovery():
    # a seeded noisy run over three outer iterations reproduces its recorded
    # result exactly, coefficients up to round-off
    truth = random_spectrum(20, 10, 16, 3)
    res = recover(RecoveryConfig(N=20, d=10, d1=5, s=16, sigma=0.512, seed=7), truth)
    assert res.converged
    assert (res.samples_used, res.outer_iterations) == (8769, 3)
    assert [m.freq for m in res.modes.modes] == [w for w, _ in PINNED_MODES]
    for mode, (_, coeff) in zip(res.modes.modes, PINNED_MODES):
        assert abs(mode.coeff - coeff) <= 1e-12


# A noiseless run's recorded result. Every coefficient has magnitude 1 up
# to round-off, so the order in which an outer iteration lists its new
# modes, top_bins' rank, rests on the last bits of |F0| and on bin index.
PINNED_NOISELESS_MODES = [
    ((-1, 1, -2, 0), 0.3662989319662818 + 0.9304972286043423j),
    ((-2, 3, 3, -4), -0.153984380910769 + 0.9880732819156318j),
    ((-1, 3, -1, -1), -0.13842780885620304 - 0.990372526747017j),
    ((-4, -4, 1, -2), -0.6301476898936953 + 0.7764752983332048j),
    ((0, -4, -3, -3), 0.22954174575026765 - 0.9732988168892015j),
    ((1, -4, 2, 3), 0.7065088675714214 - 0.7077041896463151j),
    ((1, 2, 1, 0), -0.647418248886139 - 0.7621349034188143j),
    ((-2, -2, 3, -4), -0.9997046373546247 + 0.024303046139489467j),
    ((-1, -3, 3, -2), -0.9968235109073149 + 0.07964225073674057j),
    ((0, -3, 1, 3), -0.9049576846559181 + 0.42550157341918193j),
    ((0, -1, 2, -1), 0.8117769250070497 - 0.5839676566609651j),
    ((3, -1, -4, -4), -0.6057079267630393 - 0.7956870662870047j),
    ((2, 3, 3, 2), 0.3552354510013083 - 0.9347768580532452j),
    ((-4, -3, -2, 0), 0.9843910607116441 - 0.17599499876702246j),
    ((-4, -3, 2, -3), 0.702758749970832 - 0.7114282390652158j),
    ((-3, -1, -2, 3), 0.8932908735364655 - 0.44947904874027034j),
]


def test_pinned_noiseless_tie_order():
    truth = random_spectrum(8, 4, 16, 100)
    cfg = RecoveryConfig(N=8, d=4, d1=2, s=16, max_outer_iterations=40)
    res = recover(cfg, truth, NoiseModel(0, 0))
    assert res.converged
    assert (res.samples_used, res.outer_iterations) == (265, 3)
    assert res.modes.freqs.tolist() == [list(w) for w, _ in PINNED_NOISELESS_MODES]
    for coeff, (_, pinned) in zip(res.modes.coeffs.tolist(), PINNED_NOISELESS_MODES):
        assert abs(coeff - pinned) <= 1e-12


def test_peeling_soundness():
    # after convergence, re-subtracting the found modes leaves no energy
    truth = separable_instance(8, 2, 4, seed=900)
    cfg = RecoveryConfig(N=8, d=2, d1=1, s=4)
    res = recover(cfg, truth)
    assert res.converged
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    # the found modes enter with negated coefficients, as in recover
    freqs = np.vstack([unwrap_freq(truth.freqs, umap), unwrap_freq(res.modes.freqs, umap)])
    coeffs = np.concatenate([truth.coeffs, -res.modes.coeffs])
    p = 11
    for axis in (1, 2):
        vals = gather_unwrapped(
            line_index(freqs, axis, p), coeffs, SamplePlan(p=p), NoiseModel(sigma=0.0)
        )
        assert np.max(np.abs(dft_forward(vals))) <= 1e-6 * p


def test_no_duplicate_frequencies():
    for seed in range(5):
        truth = separable_instance(8, 2, 4, seed=1000 + seed)
        res = recover(RecoveryConfig(N=8, d=2, d1=1, s=4), truth)
        freqs = [m.freq for m in res.modes.modes]
        assert len(freqs) == len(set(freqs))


def test_deterministic_replay():
    truth = random_spectrum(20, 20, 8, seed=55)
    cfg = RecoveryConfig(N=20, d=20, d1=5, s=8, sigma=0.256, seed=99)
    first = recover(cfg, truth)
    second = recover(cfg, truth)
    assert first == second  # timing field excluded from comparison
    assert first.samples_used == second.samples_used
    # a numpy integer seed, negative ones too, keys the noise the Python int keys
    for seed in (5, -5):
        assert recover(replace(cfg, seed=np.int64(seed)), truth) == recover(
            replace(cfg, seed=seed), truth
        )


def test_recover_runs_the_estimator_functions(monkeypatch):
    # the estimator functions the tests check are the ones the peeling loop
    # calls: counting wrappers see every call and change no result
    truth = random_spectrum(20, 20, 8, seed=55)
    cfg = RecoveryConfig(N=20, d=20, d1=5, s=8, sigma=0.256, seed=99)
    plain = recover(cfg, truth)
    calls = {}
    for name in ("shift_ratio", "reconstruct_entry", "finalize_entry"):
        def counted(*args, _fn=getattr(recovery, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(recovery, name, counted)
    res = recover(cfg, truth)
    assert res == plain and res.converged
    outer = res.outer_iterations
    assert calls["reconstruct_entry"] == calls["finalize_entry"] == outer
    # one collision verdict and phase per shift level
    assert calls["shift_ratio"] == (cfg.schedule(cfg.s).M + 1) * outer


def test_geometry_validation():
    truth = SparseSpectrum(modes=(FourierMode((1, 1), 1.0),), bandwidth=8, dim=2)
    with pytest.raises(ValueError):
        recover(RecoveryConfig(N=20, d=2, d1=1, s=1), truth)
    with pytest.raises(ValueError):
        RecoveryConfig(N=8, d=3, d1=2, s=1)
    with pytest.raises(ValueError):
        RecoveryConfig(N=7, d=2, d1=1, s=1)
    for eta in (1.0, 1.5):  # at eta >= 1 a dead bin's M+1 votes would pass
        with pytest.raises(ValueError, match="eta"):
            RecoveryConfig(N=8, d=2, d1=1, s=1, eta=eta)
    for d1 in (0, -1):  # refused before d % d1 is taken
        with pytest.raises(ValueError, match="d1"):
            RecoveryConfig(N=8, d=2, d1=d1, s=1)
    # a float is refused up front, not left to fail inside recover
    for name, value in [("N", 20.0), ("d", 4.0), ("d1", 2.0), ("s", 2.0), ("s", 1.5)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            RecoveryConfig(**{"N": 20, "d": 4, "d1": 2, "s": 2, name: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("sigma", float("nan"), "sigma"),
        ("sigma", float("inf"), "sigma"),
        ("sigma", -0.1, "sigma"),
        ("a_min", 0.0, "a_min"),
        ("a_min", -1.0, "a_min"),
        ("a_min", float("nan"), "a_min"),
        ("beta", 1.0, "beta"),
        ("beta", 0.5, "beta"),
        ("beta", float("nan"), "beta"),
        ("beta", float("inf"), "beta"),
        ("beta", 1.001, "shift levels"),
        ("beta", 1 + 1e-9, "shift levels"),
        ("c1", float("nan"), "c1"),
        ("c1", float("inf"), "c1"),
        ("c_sigma", float("nan"), "c_sigma"),
        ("c_sigma", float("inf"), "c_sigma"),
        ("c_sigma", -1.0, "c_sigma"),
        ("c_sigma", 0.0, "c_sigma"),
        ("sigma", "x", "sigma"),
        ("sigma", np.True_, "sigma"),
        ("a_min", float("inf"), "a_min"),
        ("a_min", "1", "a_min"),
        ("beta", "2", "beta"),
        ("c1", None, "c1"),
        ("c_sigma", True, "c_sigma"),
        ("eta", "0.5", "eta"),
        ("seed", 1.5, "seed must be an integer"),
        ("max_outer_iterations", 2.5, "max_outer_iterations must be an integer"),
        ("max_outer_iterations", True, "max_outer_iterations must be an integer"),
    ],
)
def test_noise_and_schedule_inputs_refused(field, value, message):
    # refused when the config is built, before recover draws a sample
    with pytest.raises(ValueError, match=message):
        RecoveryConfig(N=20, d=10, d1=5, s=8, **{field: value})


def test_sparsity_past_the_frequency_cube_refused():
    # no signal has more than N^d modes; the bound holds for numpy integers
    # and costs nothing at a huge d
    assert RecoveryConfig(N=8, d=2, d1=1, s=64).s == 64
    for s in (65, np.int64(65)):
        with pytest.raises(ValueError, match="8\\^2 frequency cube"):
            RecoveryConfig(N=8, d=2, d1=1, s=s)
    assert RecoveryConfig(N=20, d=10**9, d1=1, s=8).s == 8


def test_sample_seconds_within_the_recover_call(monkeypatch):
    # the sample timer covers every gather once: each gather is slowed by a
    # sleep, so the gathers outweigh the rest of the call and counting any
    # of them twice would put sample_seconds past the call's wall time
    truth = random_spectrum(20, 10, 16, 3)
    cfg = RecoveryConfig(N=20, d=10, d1=5, s=16, sigma=0.512, seed=7)
    slept = []

    def slowed(index, weights, plan, noise, _fn=recovery.gather_unwrapped):
        time.sleep(0.002)
        slept.append(0.002)
        return _fn(index, weights, plan, noise)

    monkeypatch.setattr(recovery, "gather_unwrapped", slowed)
    t0 = time.perf_counter()
    res = recover(cfg, truth)
    wall = time.perf_counter() - t0
    assert 0 < sum(slept) <= res.sample_seconds <= wall
    slept.clear()
    outcome = cmd_recover(truth, cfg)
    assert outcome.runtime_ms >= 0 and outcome.sample_ms >= 1e3 * sum(slept) > 0


def test_config_owns_geometry_and_schedule():
    # replace() rebuilds the unwrap geometry and the schedules; the geometry
    # takes no part in equality or hashing, and numpy integers are accepted
    cfg = RecoveryConfig(N=20, d=10, d1=1, s=8, sigma=0.1)
    wider = replace(cfg, d1=5)
    assert wider.umap == UnwrapMap(bandwidth=20, dim=10, block=5)
    assert wider.schedule(8).M == make_schedule(8, 0.1, 1.0, 2.0, 6.0, 2.5, 3368421).M
    assert wider.schedule(8).M != cfg.schedule(8).M
    direct = RecoveryConfig(N=np.int64(20), d=10, d1=np.int64(5), s=8, sigma=0.1)
    assert direct == wider and hash(direct) == hash(wider)
    assert direct.umap == wider.umap and direct.umap is not wider.umap
    assert direct != cfg


@pytest.mark.parametrize("s_star", [1, 2, 7, 16, 300])
def test_config_schedule_is_make_schedule(s_star):
    cfg = RecoveryConfig(N=20, d=10, d1=5, s=16, sigma=0.512, c1=3.0, c_sigma=5.0, beta=2.0)
    got = cfg.schedule(s_star)
    want = make_schedule(
        s_star, cfg.sigma, cfg.a_min, cfg.c1, cfg.c_sigma, cfg.beta, cfg.umap.eff_bandwidth
    )
    for name in ("p", "tau", "M", "eps0", "beta", "delta"):
        assert getattr(got, name) == getattr(want, name)
    assert np.array_equal(got.shifts, want.shifts)


def test_runaway_sample_length_refused():
    # beta=1e3 at sigma=0.512 asks for p ~ 9.6e11 points, beta=1e100 for a
    # noise floor past float range, and c1 s* one point past the cap: each is
    # refused when the config is built, before recover draws a sample
    for beta in (1e3, 1e100):
        with pytest.raises(ValueError, match="sample length"):
            RecoveryConfig(N=20, d=10, d1=5, s=8, sigma=0.512, beta=beta)
    with pytest.raises(ValueError, match="sample length"):
        RecoveryConfig(N=20, d=10, d1=5, s=MAX_SAMPLE_LENGTH + 1, c1=1.0)
    RecoveryConfig(N=20, d=10, d1=5, s=MAX_SAMPLE_LENGTH, c1=1.0)


def test_gather_calls_match_sample_accounting(monkeypatch):
    # one gather_unwrapped call per sample vector, each with its own plan:
    # the plans' lengths add up to samples_used, and every outer iteration
    # gathers one unshifted and (M+1) d' shifted vectors
    truth = random_spectrum(20, 10, 16, 3)
    cfg = RecoveryConfig(N=20, d=10, d1=5, s=16, sigma=0.512, seed=7)
    lengths = []

    def counted(index, weights, plan, noise, _fn=recovery.gather_unwrapped):
        lengths.append(plan.p)
        return _fn(index, weights, plan, noise)

    monkeypatch.setattr(recovery, "gather_unwrapped", counted)
    res = recover(cfg, truth)
    assert res.converged and res.outer_iterations > 1
    assert sum(lengths) == res.samples_used
    umap = UnwrapMap(bandwidth=20, dim=10, block=5)
    sched = make_schedule(
        cfg.s, cfg.sigma, cfg.a_min, cfg.c1, cfg.c_sigma, cfg.beta, umap.eff_bandwidth
    )
    per_iteration = (sched.M + 1) * umap.reduced_dim + 1
    assert len(lengths) == res.outer_iterations * per_iteration


def test_shift_weights_once_per_row_and_level(monkeypatch):
    # the shift ladder is the same in every outer iteration, so each residual
    # row (truth rows and found rows) is weighed once per level per recovery
    truth = random_spectrum(20, 10, 16, 3)
    cfg = RecoveryConfig(N=20, d=10, d1=5, s=16, sigma=0.512, seed=7)
    rows = []

    def counted(coeffs, freqs_t, eps, _fn=recovery.shift_weights):
        assert freqs_t.shape[-1] == len(coeffs)
        rows.append(len(coeffs))
        return _fn(coeffs, freqs_t, eps)

    monkeypatch.setattr(recovery, "shift_weights", counted)
    res = recover(cfg, truth)
    assert res.converged and res.outer_iterations > 1
    umap = UnwrapMap(bandwidth=20, dim=10, block=5)
    sched = make_schedule(
        cfg.s, cfg.sigma, cfg.a_min, cfg.c1, cfg.c_sigma, cfg.beta, umap.eff_bandwidth
    )
    assert sum(rows) == (sched.M + 1) * (len(truth) + len(res.modes))


def test_bandwidth_limit_for_exact_recovery():
    # N'(20, 13) ~ 8.6e16 > 2^53: float64 shift phases cannot resolve the
    # unwrapped entries; run anyway, recovery reports convergence with none
    # of the 8 frequencies right
    with pytest.raises(ValueError, match="2\\^53"):
        RecoveryConfig(N=20, d=13, d1=13, s=8, seed=1)
    # N'(20, 12) ~ 4.3e15 < 2^53 is accepted and exact
    truth = random_spectrum(20, 12, 8, 501)
    res = recover(RecoveryConfig(N=20, d=12, d1=12, s=8, seed=1), truth)
    assert res.converged
    assert compare(truth, res.modes).exact_freq_rate == 1.0


# d1 per N for the noiseless guard: N' from 5 to about 2^48, with a d1 on
# either side of 2^24, where the sigma = 0 ladder goes from one level to two,
# and N=8 with d1=16 (N' ~ 2^48.2) at three
NOISELESS_GUARD_D1 = {
    4: (1, 5, 11, 12, 13, 21, 22, 23),
    8: (1, 4, 7, 8, 9, 14, 15, 16),
    20: (1, 3, 5, 6, 10, 11),
}


def test_noiseless_config_never_converges_wrong():
    # converged => exact for config sigma = 0 over a fixed seeded grid; a true
    # sigma of 1e-3 fails every collision test at tau's floor, so those runs
    # end at the cap of 2 d' outer iterations without converging
    noiseless = converged = 0
    for N, d_red, true_sigma, seed in product((4, 8, 20), (1, 2, 4), (0.0, 1e-3), range(3)):
        for d1 in NOISELESS_GUARD_D1[N]:
            d = d_red * d1
            truth = random_spectrum(N, d, min(8, N**d // 2), 2000 + seed)
            cfg = RecoveryConfig(N=N, d=d, d1=d1, s=len(truth), seed=seed,
                                 max_outer_iterations=2 * d_red)
            res = recover(cfg, truth, NoiseModel(true_sigma, seed))
            if res.converged:
                assert compare(truth, res.modes).exact_freq_rate == 1.0, (N, d, d1, seed)
            noiseless += true_sigma == 0
            converged += res.converged
    # not vacuous: most noiseless runs converge within the cap
    assert converged >= 0.75 * noiseless


def test_noiseless_samples_scale_as_ds():
    # the sigma = 0 ladder has at most three levels at every N', so a
    # headline-size noiseless run draws Theta(d s) samples: about 1.3 s d at
    # d1=5 (one level), 1.0 s d at d1=10 (two) and 1.1 s d at d1=12 (three)
    for (d, d1), seed in product(((100, 5), (100, 10), (96, 12)), range(4)):
        truth = random_spectrum(20, d, 256, seed)
        res = recover(RecoveryConfig(N=20, d=d, d1=d1, s=256, seed=seed), truth)
        assert res.converged and compare(truth, res.modes).exact_freq_rate == 1.0
        assert res.samples_used <= 1.6 * 256 * d, (d1, seed, res.samples_used)


def test_near_exact_bandwidth_never_converges_wrong():
    # N' near 2^52 (N=20, d1=12 and N=4, d1=26): rounded shift phases w' eps
    # are off by up to half a cycle there, and 17 of these 240 runs would
    # converge with a wrong frequency; exact phases leave none
    converged = runs = 0
    for (N, d, d1), sigma, seed in product(((20, 24, 12), (4, 52, 26)), (0.0, 0.5), range(60)):
        truth = random_spectrum(N, d, 16, seed)
        res = recover(RecoveryConfig(N=N, d=d, d1=d1, s=16, sigma=sigma, seed=seed), truth)
        if res.converged:
            assert compare(truth, res.modes).exact_freq_rate == 1.0, (N, d1, sigma, seed)
        converged += res.converged
        runs += 1
    assert converged >= 0.95 * runs


def test_single_axis_noisy_never_converges_wrong():
    # d' = 1 at sigma = 0.5: two modes that share the only axis's residue
    # land in one bin, and noise can let that bin pass its collision tests;
    # the bin-residue check refuses it (without it, 4 of these 50 seeds
    # converge with a wrong frequency)
    for seed in range(50):
        truth = random_spectrum(20, 10, 16, seed)
        res = recover(RecoveryConfig(N=20, d=10, d1=10, s=16, sigma=0.5, seed=seed), truth)
        if res.converged:
            assert compare(truth, res.modes).exact_freq_rate == 1.0, seed
