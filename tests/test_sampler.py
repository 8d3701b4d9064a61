import dataclasses
import threading

import numpy as np
import pytest
from reference import frac_product, unwrap_point

from msfourier import FourierMode, NoiseModel, RecoveryConfig, SparseSpectrum, evaluate_spectrum
from msfourier.sampler import (
    SamplePlan,
    _digit_count,
    _digit_index,
    _shift_tables,
    _synthesize,
    _table_weights,
    gather_unwrapped,
    line_index,
    noise_vector,
    shift_weights,
)
from msfourier.unwrap import UnwrapMap, unwrap_freq

SILENT = NoiseModel(sigma=0.0)


def test_dc_mode_gives_ones():
    spec = SparseSpectrum(modes=(FourierMode((0, 0), 1.0),), bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    index = line_index(unwrap_freq(spec.freqs, umap), 1, 7)
    vals = gather_unwrapped(index, spec.coeffs, SamplePlan(p=7), SILENT)
    np.testing.assert_allclose(vals, np.ones(7), atol=1e-12)


def test_single_tone_values():
    spec = SparseSpectrum(modes=(FourierMode((3, 0), 1.0),), bandwidth=8, dim=2)
    umap = UnwrapMap(bandwidth=8, dim=2, block=1)
    index = line_index(unwrap_freq(spec.freqs, umap), 1, 5)
    vals = gather_unwrapped(index, spec.coeffs, SamplePlan(p=5), SILENT)
    np.testing.assert_allclose(vals, np.exp(2j * np.pi * 3 * np.arange(5) / 5), atol=1e-12)


def test_matches_brute_force_composition():
    # the shifted vector recover gathers (line along axis 2, shift along
    # axis 1) against direct evaluation of f(g(t)) at the shifted points
    rng = np.random.default_rng(6)
    modes = tuple(
        FourierMode(tuple(rng.integers(-10, 10, size=4)), complex(*rng.standard_normal(2)))
        for _ in range(4)
    )
    spec = SparseSpectrum(modes=modes, bandwidth=20, dim=4)
    umap = UnwrapMap(bandwidth=20, dim=4, block=2)
    freqs = unwrap_freq(spec.freqs, umap)
    weights = shift_weights(spec.coeffs, freqs[:, 0].astype(np.float64), 0.013)
    vals = gather_unwrapped(line_index(freqs, 2, 7), weights, SamplePlan(p=7), SILENT)
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
    # block 1 unwraps to the same frequencies: the modes are their own residual,
    # stacked under negated coefficients
    freqs = np.vstack([unwrap_freq(spec.freqs, umap), spec.freqs])
    coeffs = np.concatenate([spec.coeffs, -spec.coeffs])
    vals = gather_unwrapped(line_index(freqs, 1, 7), coeffs, SamplePlan(p=7), SILENT)
    assert np.max(np.abs(vals)) <= 1e-9


def direct_mode_sum(residues, weights, p):
    # (r * l) mod p is reduced in integers before exp, so the reference
    # carries no phase error that grows with r * l
    grid = np.arange(p)[:, None]
    phase = (grid * np.asarray(residues)[None, :]) % p
    return np.exp((2j * np.pi / p) * phase) @ np.asarray(weights)


@pytest.mark.parametrize("p,n", [(5, 3), (31, 10), (521, 256), (2053, 1024), (8, 10), (1, 3)])
def test_synthesize_matches_definition(p, n):
    rng = np.random.default_rng(p * 1000 + n)
    freqs = rng.integers(-5 * p, 5 * p, size=(n, 2))
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    index = line_index(freqs, 1, p)
    out = _synthesize(index, coeffs, SamplePlan(p=p))
    expected = direct_mode_sum(freqs[:, 0] % p, coeffs, p)
    assert np.max(np.abs(out - expected)) <= 1e-9 * n
    eps = 0.0137
    weights = shift_weights(coeffs, freqs.T.astype(np.float64), eps)[1]
    out = _synthesize(index, weights, SamplePlan(p=p))
    weights = coeffs * np.exp(2j * np.pi * freqs[:, 1] * eps)
    expected = direct_mode_sum(freqs[:, 0] % p, weights, p)
    assert np.max(np.abs(out - expected)) <= 1e-9 * n


def two_bincount_synthesis(residues, weights, p):
    # the histogram as two real bincounts, one per part
    hist = np.bincount(residues, weights.real, p) + 1j * np.bincount(residues, weights.imag, p)
    return p * np.fft.ifft(hist)


@pytest.mark.parametrize("p,n", [(2, 1), (5, 40), (131, 64), (131, 500), (2053, 1024)])
def test_one_bincount_equals_two(p, n):
    # residues collide (n > p) or leave bins empty (n < p); the interleaved
    # histogram must add each bin's parts in the same order, bit for bit
    rng = np.random.default_rng(p + n)
    freqs = rng.integers(-(10**12), 10**12, size=(n, 3))
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for axis in (1, 3):
        got = _synthesize(line_index(freqs, axis, p), weights, SamplePlan(p=p))
        expected = two_bincount_synthesis(freqs[:, axis - 1] % p, weights, p)
        np.testing.assert_array_equal(got, expected)


def test_line_index_layout():
    freqs = np.array([[-7, 3], [12, 0], [5, -1]], dtype=np.int64)
    np.testing.assert_array_equal(line_index(freqs, 1, 5), [[6, 7], [4, 5], [0, 1]])
    np.testing.assert_array_equal(line_index(freqs, 2, 5), [[6, 7], [0, 1], [8, 9]])
    assert line_index(freqs, 1, 5).dtype == np.int64
    assert line_index(np.empty((0, 2), dtype=np.int64), 1, 5).shape == (0, 2)


@pytest.mark.parametrize("axis, p", [(0, 7), (-1, 7), (3, 7), (1, 0), (2, -5)])
def test_line_index_refuses_bad_axis_and_length(axis, p):
    # the axis is 1-based over the d' columns: 0 and -1 would pick a column
    # from the end, and 3 is past them; p < 1 has no residues
    freqs = np.array([[-7, 3], [12, 0], [5, -1]], dtype=np.int64)
    with pytest.raises(ValueError, match="axis"):
        line_index(freqs, axis, p)


def test_shift_weights_rows_equal_single_axis():
    # each weight carries the phase (w eps) mod 1 to within 2^-53 cycles of
    # its exact rational value, and a row of the (d', n) block is bit for bit
    # the single axis's weights
    rng = np.random.default_rng(4)
    freqs = rng.integers(-(10**15), 10**15, size=(300, 7))
    coeffs = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    freqs_t = np.ascontiguousarray(freqs.T, dtype=np.float64)
    for eps in (2.0**-51, 1.3e-9, 0.0137, 0.49):
        weights = shift_weights(coeffs, freqs_t, eps)
        assert weights.shape == (7, 300)
        for k in range(7):
            column = freqs[:, k].astype(float)
            expected = coeffs * np.exp(2j * np.pi * frac_product(column, eps))
            assert np.all(np.abs(weights[k] - expected) <= 4e-15 * np.abs(coeffs)), (eps, k)
            np.testing.assert_array_equal(shift_weights(coeffs, column, eps), weights[k])


@pytest.mark.parametrize(
    "N, d1, n_eff",
    [(8, 1, 9), (20, 5, 3_368_421), (4, 11, 5_592_405), (2**26, 2, 2**52 + 2**26 + 1),
     (2, 52, 2**53 - 1)],
)
def test_table_weights_match_exact_phases(N, d1, n_eff):
    # a weight from D digit lookups is within (D + 2) 2^-52 |a| of a exp(2 pi
    # i (w eps mod 1)) with the phase reduced in rationals, at every level of
    # a noiseless and a noisy ladder, for entries at lo, at hi, at digit
    # boundaries and in between
    umap = UnwrapMap(bandwidth=N, dim=d1, block=d1)
    assert umap.eff_bandwidth == n_eff
    digits = _digit_count(n_eff)
    assert 2 ** (8 * digits - 8) <= n_eff - 1 < 2 ** (8 * digits)
    rng = np.random.default_rng(d1)
    entries = np.concatenate([
        [umap.lo, umap.hi, umap.lo + 255, umap.lo + 256, umap.hi - 256],
        rng.integers(umap.lo, umap.hi + 1, size=40),
    ]).clip(umap.lo, umap.hi)
    coeffs = rng.standard_normal(len(entries)) + 1j * rng.standard_normal(len(entries))
    index = _digit_index(entries, umap.lo, digits)
    assert index.shape == (digits, len(entries))
    for sigma in (0.0, 0.5):
        shifts = RecoveryConfig(N=N, d=d1, d1=d1, s=4, sigma=sigma).schedule(4)[2]
        assert sigma == 0 or len(shifts) > 3
        for eps, table in zip(shifts.tolist(), _shift_tables(shifts, umap.lo, digits)):
            weights = _table_weights(coeffs, index, table)
            exact = coeffs * np.exp(2j * np.pi * frac_product(entries.astype(float), eps))
            error = np.abs(weights - exact) / np.abs(coeffs)
            assert error.max() <= (digits + 2) * 2.0**-52, (sigma, eps)


def test_synthesize_weight_layouts():
    # a strided or real weight vector is read as the values it holds, never
    # reinterpreted through its memory layout
    rng = np.random.default_rng(9)
    p, n = 31, 50
    freqs = rng.integers(-100, 100, size=(n, 2))
    index = line_index(freqs, 1, p)
    plan = SamplePlan(p=p)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    column = block[:, 1]
    assert not column.flags.c_contiguous
    np.testing.assert_array_equal(
        _synthesize(index, column, plan), _synthesize(index, column.copy(), plan)
    )
    reals = rng.standard_normal(n)
    np.testing.assert_array_equal(
        _synthesize(index, reals, plan), _synthesize(index, reals + 0j, plan)
    )
    with pytest.raises(ValueError, match="do not match"):
        _synthesize(index, block, plan)
    with pytest.raises(ValueError, match="do not match"):
        _synthesize(index, column[:-1], plan)
    # an index built for a longer line is refused, not truncated
    with pytest.raises(ValueError, match="past p"):
        _synthesize(line_index(freqs, 1, 37), column, plan)


def test_synthesize_block_refusals():
    # an (r, n) block draws r vectors of length plan.p / r: a plan that is not
    # r such vectors is refused, and so is a residue past row 0's bins, which
    # would otherwise land in the next row's bins unseen
    rng = np.random.default_rng(10)
    p, n, rows = 31, 50, 3
    freqs = rng.integers(-100, 100, size=(n, 2))
    index = line_index(freqs, 1, p)
    block = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    for weights, plan_p in ((block, rows * p + 1), (block[:0], p), (block[None], rows * p)):
        with pytest.raises(ValueError, match="do not match"):
            _synthesize(index, weights, SamplePlan(p=plan_p))
    assert np.any(freqs[:, 0] % 37 >= p)
    with pytest.raises(ValueError, match="past p"):
        _synthesize(line_index(freqs, 1, 37), block, SamplePlan(p=rows * p))


BLOCK_NOISE = [
    SILENT,
    NoiseModel(sigma=0.5, seed=5),
    NoiseModel(sigma=0.5, seed=5, kind="real-only"),
]


@pytest.mark.parametrize("noise", BLOCK_NOISE)
@pytest.mark.parametrize(
    "rows,p,stream", [(1, 131, 0), (4, 521, 9), (3, 2, 2**40), (7, 131, np.uint64(2**64 - 1))]
)
def test_block_gather_equals_per_row_calls(noise, rows, p, stream):
    # one call on a level's (r, n) block of weight rows, strided as recover
    # slices it from its wider weight array, synthesizes bit for bit the r
    # vectors of r one-row calls, and adds one noise draw of r p on its own
    # stream in row order, so row 0 is the one-row call on that stream; the
    # tag keys mod 2^64, with no numpy overflow
    rng = np.random.default_rng(rows * p)
    n = 60
    freqs = rng.integers(-(10**6), 10**6, size=(n, 3))
    index = line_index(freqs, 2, p)
    wide = rng.standard_normal((3, rows, n + 17)) + 1j * rng.standard_normal((3, rows, n + 17))
    block = wide[1, :, :n]
    assert rows == 1 or not block.flags.c_contiguous
    plan = SamplePlan(p=rows * p, stream=stream)
    got = gather_unwrapped(index, block, plan, noise)
    assert got.shape == (rows, p)
    if not noise.sigma:
        expected = [gather_unwrapped(index, row, SamplePlan(p=p), noise) for row in block]
        np.testing.assert_array_equal(got, np.array(expected))
        return
    noise_block = noise_vector(noise, stream, rows * p).reshape(rows, p)
    np.testing.assert_array_equal(got, _synthesize(index, block, plan) + noise_block)
    row0 = gather_unwrapped(index, block[0], SamplePlan(p=p, stream=stream), noise)
    np.testing.assert_array_equal(got[0], row0)
    if int(stream) >= 2**63:
        wrapped = gather_unwrapped(index, block, SamplePlan(p=rows * p, stream=-1), noise)
        np.testing.assert_array_equal(got, wrapped)


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


def fresh_noise(noise, stream, p):
    # noise_vector's definition, from a generator built for this one vector
    rng = np.random.Generator(
        np.random.Philox(key=np.array([noise.seed, stream], dtype=np.uint64))
    )
    draws = rng.standard_normal(2 * p)
    if noise.kind == "complex-circular":
        return noise.sigma / np.sqrt(2.0) * (draws[0::2] + 1j * draws[1::2])
    return noise.sigma * draws[0::2] + 0j


NOISE_CASES = [
    (NoiseModel(sigma=0.5, seed=seed, kind=kind), stream, p)
    for seed in (0, 42, 2**62 + 1, 2**63 - 1)
    for kind in ("complex-circular", "real-only")
    for stream, p in ((0, 2), (1, 131), (7, 5), (2**40 + 3, 521))
]


def test_noise_matches_fresh_generator_interleaved():
    # keys, kinds and lengths change from call to call, and each call draws
    # exactly what a generator built for its own key draws
    order = np.random.default_rng(12).permutation(len(NOISE_CASES))
    for i in order:
        noise, stream, p = NOISE_CASES[i]
        np.testing.assert_array_equal(
            noise_vector(noise, stream, p), fresh_noise(noise, stream, p)
        )


def test_noise_matches_fresh_generator_in_second_thread():
    # two threads drawing at once each get their own key's draws
    results = {}

    def draw(tag, cases):
        results[tag] = [noise_vector(*case) for case in cases]

    cases = NOISE_CASES[::3]
    threads = [threading.Thread(target=draw, args=(tag, cases[tag::2])) for tag in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for tag in (0, 1):
        for case, got in zip(cases[tag::2], results[tag]):
            np.testing.assert_array_equal(got, fresh_noise(*case))


def test_noise_seed_keyed_exactly():
    # seeds are keyed by their 64-bit words: -1 is 2^64 - 1, not 0, and
    # 2^63 + 7 is not rounded to 2^63
    def vec(seed):
        return noise_vector(NoiseModel(sigma=1.0, seed=seed), 0, 8)

    assert not np.array_equal(vec(-1), vec(0))
    assert not np.array_equal(vec(-2), vec(0))
    assert not np.array_equal(vec(2**63 + 7), vec(2**63))
    np.testing.assert_array_equal(vec(-1), vec(2**64 - 1))
    # numpy integer seeds and stream tags key as the Python ints do
    np.testing.assert_array_equal(vec(np.int64(-1)), vec(-1))
    noise = NoiseModel(sigma=0.5, seed=3)
    np.testing.assert_array_equal(noise_vector(noise, np.int64(-1), 5), noise_vector(noise, -1, 5))


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
    index = line_index(unwrap_freq(spec.freqs, umap), 1, p)
    clean = gather_unwrapped(index, spec.coeffs, SamplePlan(p=p), SILENT)
    target = np.fft.fft(clean)[3 % p]
    noise = NoiseModel(sigma=sigma, seed=11)
    values = np.empty(n_streams, dtype=np.complex128)
    for stream in range(n_streams):
        vals = gather_unwrapped(index, spec.coeffs, SamplePlan(p=p, stream=stream), noise)
        values[stream] = np.fft.fft(vals)[3 % p]
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
    freqs = np.vstack([unwrap_freq(spec.freqs, umap), spec.freqs])
    coeffs = np.concatenate([spec.coeffs, -spec.coeffs])
    index = line_index(freqs, 1, p)
    noise = NoiseModel(sigma=sigma, seed=3)
    for stream in range(20):
        vals = gather_unwrapped(index, coeffs, SamplePlan(p=p, stream=stream), noise)
        assert np.max(np.abs(np.fft.fft(vals))) <= 5 * sigma * np.sqrt(p)


def test_plan_validation():
    for p in (7.0, 0, True):
        with pytest.raises(ValueError, match="sample length must be an int >= 1"):
            SamplePlan(p=p)
    assert SamplePlan(p=np.int64(7)).p == 7
    for stream in (1.5, 2.0, "x", None, True):
        with pytest.raises(ValueError, match="stream must be an integer"):
            SamplePlan(p=7, stream=stream)
    assert SamplePlan(p=7, stream=np.int64(-3)).stream == -3
    assert [f.name for f in dataclasses.fields(SamplePlan)] == ["p", "stream"]
    with pytest.raises(ValueError):
        NoiseModel(sigma=-1.0)
    for sigma in (float("nan"), float("inf"), "x", None, True):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(sigma=sigma)
    with pytest.raises(ValueError):
        NoiseModel(sigma=1.0, kind="pink")
    for seed in (1.5, "x", None, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            NoiseModel(sigma=0.1, seed=seed)

