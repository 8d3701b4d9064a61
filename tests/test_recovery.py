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
from msfourier.cli import random_spectrum
from msfourier.dft import dft_forward
from msfourier.sampler import SamplePlan, gather_samples
from msfourier.unwrap import UnwrapMap, unwrap_freq_matrix


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
    # one outer iteration at p=11, d'=2, M=3 consumes 11 * (1 + 2*4) = 99
    modes = tuple(
        FourierMode(freq, 1.0) for freq in ((-4, 0), (-2, 1), (0, 2), (2, 3), (3, -1))
    )
    truth = SparseSpectrum(modes=modes, bandwidth=8, dim=2)
    res = recover(RecoveryConfig(N=8, d=2, d1=1, s=5), truth)
    assert res.converged and res.outer_iterations == 1
    assert res.samples_used == 99


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


def test_peeling_soundness():
    # after convergence, re-subtracting the found modes leaves no energy
    truth = separable_instance(8, 2, 4, seed=900)
    cfg = RecoveryConfig(N=8, d=2, d1=1, s=4)
    res = recover(cfg, truth)
    assert res.converged
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    found_unwrapped = unwrap_freq_matrix(res.modes.freq_array(), umap)
    residual = SparseSpectrum(
        modes=tuple(
            FourierMode(tuple(int(x) for x in row), m.coeff)
            for row, m in zip(found_unwrapped, res.modes.modes)
        ),
        bandwidth=umap.eff_bandwidth,
        dim=umap.reduced_dim,
    )
    p = 11
    for axis in (1, 2):
        vals = gather_samples(
            truth, umap, SamplePlan(p=p, axis=axis), NoiseModel(sigma=0.0), residual=residual
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


def test_recover_runs_the_estimator_functions(monkeypatch):
    # the estimator functions the tests check are the ones the peeling loop
    # calls: counting wrappers see every call and change no result
    truth = random_spectrum(20, 20, 8, seed=55)
    cfg = RecoveryConfig(N=20, d=20, d1=5, s=8, sigma=0.256, seed=99)
    plain = recover(cfg, truth)
    calls = {}
    for name in (
        "collision_test", "bin_phase", "reconstruct_entry", "finalize_entry", "accept_candidate"
    ):
        def counted(*args, _fn=getattr(recovery, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(recovery, name, counted)
    res = recover(cfg, truth)
    assert res == plain and res.converged
    outer = res.outer_iterations
    assert calls["reconstruct_entry"] == calls["finalize_entry"] == outer
    assert calls["accept_candidate"] == outer
    # one collision test and one phase per shift level
    assert calls["collision_test"] == calls["bin_phase"] > outer
    assert calls["collision_test"] % outer == 0


def test_geometry_validation():
    truth = SparseSpectrum(modes=(FourierMode((1, 1), 1.0),), bandwidth=8, dim=2)
    with pytest.raises(ValueError):
        recover(RecoveryConfig(N=20, d=2, d1=1, s=1), truth)
    with pytest.raises(ValueError):
        RecoveryConfig(N=8, d=3, d1=2, s=1)
    with pytest.raises(ValueError):
        RecoveryConfig(N=7, d=2, d1=1, s=1)
    with pytest.raises(ValueError):
        RecoveryConfig(N=8, d=2, d1=1, s=1, eta=1.5)


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
