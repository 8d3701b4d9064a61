import numpy as np
import pytest

from msfourier import FourierMode, NoiseModel, SparseSpectrum, evaluate_spectrum
from msfourier.dft import dft_forward
from msfourier.sampler import SamplePlan, _synthesize, gather_samples, noise_vector
from msfourier.unwrap import UnwrapMap, unwrap_point

SILENT = NoiseModel(sigma=0.0)


def test_dc_mode_gives_ones():
    spec = SparseSpectrum(modes=(FourierMode((0, 0), 1.0),), bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    vals = gather_samples(spec, umap, SamplePlan(p=7, axis=1), SILENT)
    np.testing.assert_allclose(vals, np.ones(7), atol=1e-12)


def test_single_tone_values():
    spec = SparseSpectrum(modes=(FourierMode((3, 0), 1.0),), bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    vals = gather_samples(spec, umap, SamplePlan(p=5, axis=1), SILENT)
    np.testing.assert_allclose(vals, np.exp(2j * np.pi * 3 * np.arange(5) / 5), atol=1e-12)


def test_matches_brute_force_composition():
    # against direct evaluation of f(g(t)) at shifted points
    rng = np.random.default_rng(6)
    modes = tuple(
        FourierMode(tuple(rng.integers(-10, 10, size=4)), complex(*rng.standard_normal(2)))
        for _ in range(4)
    )
    spec = SparseSpectrum(modes=modes, bandwidth=20, dim=4)
    umap = UnwrapMap(bandwidth=20, dim=4, block=2)
    plan = SamplePlan(p=7, axis=2, shift_axis=1, shift_size=0.013)
    vals = gather_samples(spec, umap, plan, SILENT)
    basis = np.eye(2)
    for ell in range(7):
        t = (ell / 7) * basis[1] + 0.013 * basis[0]
        assert abs(vals[ell] - evaluate_spectrum(spec, unwrap_point(t, umap))) <= 1e-9


def test_residual_cancels_truth():
    rng = np.random.default_rng(7)
    modes = tuple(
        FourierMode(tuple(rng.integers(-4, 4, size=2)), complex(*rng.standard_normal(2)))
        for _ in range(3)
    )
    spec = SparseSpectrum(modes=modes, bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    residual = SparseSpectrum(
        modes=spec.modes, bandwidth=umap.eff_bandwidth, dim=umap.reduced_dim
    )
    vals = gather_samples(spec, umap, SamplePlan(p=7, axis=1), SILENT, residual=residual)
    assert np.max(np.abs(vals)) <= 1e-9


def direct_mode_sum(residues, weights, p):
    # (r * l) mod p is reduced in integers before exp, so the reference
    # carries no phase error that grows with r * l
    grid = np.arange(p)[:, None]
    phase = (grid * np.asarray(residues)[None, :]) % p
    return np.exp((2j * np.pi / p) * phase) @ np.asarray(weights)


@pytest.mark.parametrize("p,n", [(5, 3), (31, 10), (521, 256), (2053, 1024)])
def test_synthesize_matches_definition(p, n):
    rng = np.random.default_rng(p * 1000 + n)
    freqs = rng.integers(-5 * p, 5 * p, size=(n, 2))
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = _synthesize(freqs, coeffs, SamplePlan(p=p, axis=1))
    expected = direct_mode_sum(freqs[:, 0] % p, coeffs, p)
    assert np.max(np.abs(out - expected)) <= 1e-9 * n
    eps = 0.0137
    out = _synthesize(freqs, coeffs, SamplePlan(p=p, axis=1, shift_axis=2, shift_size=eps))
    weights = coeffs * np.exp(2j * np.pi * freqs[:, 1] * eps)
    expected = direct_mode_sum(freqs[:, 0] % p, weights, p)
    assert np.max(np.abs(out - expected)) <= 1e-9 * n


def test_zero_sigma_is_exactly_noiseless():
    assert noise_vector(SILENT, 0, 6)[5] == 0j
    np.testing.assert_array_equal(noise_vector(SILENT, 3, 11), np.zeros(11))


def test_noise_determinism_and_prefix():
    noise = NoiseModel(sigma=0.5, seed=42)
    assert noise_vector(noise, 7, 4)[3] == noise_vector(noise, 7, 4)[3]
    vec = noise_vector(noise, 7, 11)
    for ell in range(11):
        assert noise_vector(noise, 7, ell + 1)[ell] == vec[ell]
    # distinct streams are distinct
    assert noise_vector(noise, 8, 4)[3] != vec[3]


def test_complex_circular_variance():
    noise = NoiseModel(sigma=0.5, seed=0)
    draws = noise_vector(noise, 0, 10**6)
    var = np.mean(np.abs(draws) ** 2)
    assert abs(var - 0.25) <= 0.02 * 0.25
    # circularity: real and imaginary parts carry half the variance each
    assert abs(np.var(draws.real) - 0.125) <= 0.02 * 0.125


def test_real_only_variance():
    noise = NoiseModel(sigma=0.5, seed=0, kind="real-only")
    draws = noise_vector(noise, 0, 10**6)
    assert np.all(draws.imag == 0)
    assert abs(np.var(draws.real) - 0.25) <= 0.02 * 0.25


def _bin_statistics(n_streams=10**4, p=31, sigma=0.5):
    spec = SparseSpectrum(modes=(FourierMode((3, 1), 1.0),), bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    clean = gather_samples(spec, umap, SamplePlan(p=p, axis=1), SILENT)
    target = dft_forward(clean)[3 % p]
    noise = NoiseModel(sigma=sigma, seed=11)
    values = np.empty(n_streams, dtype=np.complex128)
    plan_tpl = dict(p=p, axis=1)
    for stream in range(n_streams):
        vals = gather_samples(
            spec, umap, SamplePlan(stream=stream, **plan_tpl), noise
        )
        values[stream] = dft_forward(vals)[3 % p]
    return target, values


def test_dft_bin_mean_and_variance():
    p, sigma, n = 31, 0.5, 10**4
    target, values = _bin_statistics(n, p, sigma)
    total_var = p * sigma**2
    # mean approaches the noiseless bin within 3 standard errors
    assert abs(values.mean() - target) <= 3 * np.sqrt(total_var / n)
    # complex variance equals p * sigma^2 within 5%
    var = np.mean(np.abs(values - values.mean()) ** 2)
    assert abs(var - total_var) <= 0.05 * total_var


def test_residual_subtraction_under_noise():
    rng = np.random.default_rng(8)
    p, sigma = 31, 0.5
    modes = tuple(
        FourierMode(tuple(rng.integers(-4, 4, size=2)), complex(*rng.standard_normal(2)))
        for _ in range(3)
    )
    spec = SparseSpectrum(modes=modes, bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    residual = SparseSpectrum(
        modes=spec.modes, bandwidth=umap.eff_bandwidth, dim=umap.reduced_dim
    )
    noise = NoiseModel(sigma=sigma, seed=3)
    for stream in range(20):
        vals = gather_samples(
            spec, umap, SamplePlan(p=p, axis=1, stream=stream), noise, residual=residual
        )
        assert np.max(np.abs(dft_forward(vals))) <= 5 * sigma * np.sqrt(p)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(p=8, axis=1)  # not prime
    with pytest.raises(ValueError):
        SamplePlan(p=7, axis=1, shift_axis=2)  # shift size missing
    with pytest.raises(ValueError):
        SamplePlan(p=7, axis=1, shift_axis=2, shift_size=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma=1.0, kind="pink")


def test_gather_dimension_mismatches():
    spec = SparseSpectrum(modes=(FourierMode((0, 0), 1.0),), bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    with pytest.raises(ValueError):
        gather_samples(spec, umap, SamplePlan(p=7, axis=3), SILENT)
    wrong_res = SparseSpectrum(modes=(FourierMode((0,), 1.0),), bandwidth=9, dim=1)
    with pytest.raises(ValueError):
        gather_samples(spec, umap, SamplePlan(p=7, axis=1), SILENT, residual=wrong_res)
