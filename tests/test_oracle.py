import numpy as np
import pytest
from conftest import separable_instance
from reference import dense_spectrum, direct_dft

from msfourier import FourierMode, RecoveryConfig, SparseSpectrum, compare, recover
from msfourier.dft import dft_forward


def test_direct_dft_dc():
    np.testing.assert_allclose(direct_dft(np.ones(5)), [5, 0, 0, 0, 0], atol=1e-12)


def test_direct_dft_impulse_flat_magnitude():
    v = np.zeros(7, dtype=complex)
    v[3] = 2.0 - 1.0j
    np.testing.assert_allclose(np.abs(direct_dft(v)), abs(v[3]) * np.ones(7), rtol=1e-12)


def test_direct_dft_agrees_with_fast_path():
    rng = np.random.default_rng(13)
    p = 521
    for _ in range(10):
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        assert np.max(np.abs(direct_dft(v) - dft_forward(v))) <= 1e-9 * p


def test_dense_spectrum_single_mode():
    truth = SparseSpectrum(modes=(FourierMode((1, 2), 1.0),), bandwidth=8, dim=2)
    grid = dense_spectrum(truth, 8, 2)
    assert grid.shape == (8, 8)
    assert abs(grid[1, 2] - 1.0) <= 1e-9
    mask = np.ones_like(grid, dtype=bool)
    mask[1, 2] = False
    assert np.max(np.abs(grid[mask])) <= 1e-9


def test_dense_spectrum_negative_freq_layout():
    truth = SparseSpectrum(modes=(FourierMode((-3, -1), 0.5j),), bandwidth=8, dim=2)
    grid = dense_spectrum(truth, 8, 2)
    assert abs(grid[-3 % 8, -1 % 8] - 0.5j) <= 1e-9


def test_dense_spectrum_empty():
    truth = SparseSpectrum(modes=(), bandwidth=8, dim=2)
    np.testing.assert_array_equal(dense_spectrum(truth, 8, 2), np.zeros((8, 8)))


def test_dense_spectrum_size_guard():
    truth = SparseSpectrum(modes=(), bandwidth=200, dim=3)
    with pytest.raises(ValueError):
        dense_spectrum(truth, 200, 3)


def dense_support(grid, N):
    # grid index i holds frequency i mod N: its balanced residue in [-N/2, N/2)
    idx = np.argwhere(np.abs(grid) > 1e-9)
    return set(map(tuple, ((idx + N // 2) % N - N // 2).tolist()))


def test_recovery_matches_dense_oracle():
    for i in range(10):
        s = (i % 4) + 1
        truth = separable_instance(8, 2, s, seed=1500 + i)
        res = recover(RecoveryConfig(N=8, d=2, d1=1, s=s), truth)
        assert res.converged
        grid = dense_spectrum(truth, 8, 2)
        assert dense_support(grid, 8) == {m.freq for m in res.modes.modes}
        for mode in res.modes.modes:
            assert abs(grid[mode.freq[0] % 8, mode.freq[1] % 8] - mode.coeff) <= 1e-9


def test_compare_identical():
    truth = separable_instance(8, 2, 4, seed=77)
    report = compare(truth, truth)
    assert report.exact_freq_rate == 1.0
    assert report.l1_coeff_error <= 1e-12
    assert report.missed == report.spurious == 0


def test_compare_missing_mode():
    truth = separable_instance(8, 2, 4, seed=78)
    partial = SparseSpectrum(modes=truth.modes[:3], bandwidth=8, dim=2)
    report = compare(truth, partial)
    assert report.exact_freq_rate == 0.75
    assert report.missed == 1 and report.spurious == 0
    assert report.l1_coeff_error == pytest.approx(abs(truth.modes[3].coeff))


def test_compare_perturbed_coefficients():
    truth = separable_instance(8, 2, 4, seed=79)
    eps = 1e-3
    bumped = SparseSpectrum(
        modes=tuple(FourierMode(m.freq, m.coeff + eps) for m in truth.modes),
        bandwidth=8,
        dim=2,
    )
    report = compare(truth, bumped)
    assert report.l1_coeff_error == pytest.approx(4 * eps)


def test_compare_symmetric_when_matched():
    truth = separable_instance(8, 2, 3, seed=80)
    bumped = SparseSpectrum(
        modes=tuple(FourierMode(m.freq, m.coeff * 1.01) for m in truth.modes),
        bandwidth=8,
        dim=2,
    )
    assert compare(truth, bumped).l1_coeff_error == pytest.approx(
        compare(bumped, truth).l1_coeff_error
    )


def test_compare_geometry_guard():
    a = SparseSpectrum(modes=(), bandwidth=8, dim=2)
    b = SparseSpectrum(modes=(), bandwidth=8, dim=3)
    with pytest.raises(ValueError):
        compare(a, b)
