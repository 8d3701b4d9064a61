"""The FFT, prime and bin-ranking properties the peeling loop relies on:
numpy's FFT against a direct DFT, a block's rows bit-equal to per-vector
transforms, the ranked-bin product and its peel against the FFT, Parseval,
aliasing, ``next_prime_at_least`` and ``top_bins``."""

import numpy as np
import pytest
from reference import direct_dft

from msfourier.estimator import next_prime_at_least
from msfourier.recovery import _column_peel, _ranked_dft, top_bins


def trial_division_next_prime(x):
    # independent oracle for next_prime_at_least
    n = max(2, int(np.ceil(x)))
    while True:
        if n == 2 or (n % 2 and all(n % f for f in range(3, int(n**0.5) + 1, 2))):
            return n
        n += 1


def test_next_prime_examples():
    assert next_prime_at_least(2) == 2
    assert next_prime_at_least(512) == 521
    assert next_prime_at_least(73.2) == 79


def test_next_prime_matches_oracle():
    rng = np.random.default_rng(3)
    for x in rng.uniform(2, 5000, size=50):
        assert next_prime_at_least(x) == trial_division_next_prime(x)


def test_dft_dc_concentration():
    np.testing.assert_allclose(np.fft.fft(np.ones(5)), [5, 0, 0, 0, 0], atol=1e-12)


def test_dft_single_tone():
    p = 5
    v = np.exp(2j * np.pi * 3 * np.arange(p) / p)
    F = np.fft.fft(v)
    assert abs(F[3] - p) <= 1e-9
    mask = np.ones(p, dtype=bool)
    mask[3] = False
    assert np.all(np.abs(F[mask]) <= 1e-9)


@pytest.mark.parametrize("p", [2, 3, 5, 521, 1031])
def test_dft_matches_direct_oracle(p):
    rng = np.random.default_rng(p)
    for _ in range(5):
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        assert np.max(np.abs(np.fft.fft(v) - direct_dft(v))) <= 1e-9 * p


@pytest.mark.parametrize("p", [2, 3, 5, 131, 193, 521, 2053, 7919])
def test_dft_block_rows_equal_vector_transforms(p):
    # where the cost rule keeps the FFT, the peeling loop transforms a shift
    # level's vectors as one block and reads it at the ranked bins
    rng = np.random.default_rng(p)
    block = rng.standard_normal((7, p)) + 1j * rng.standard_normal((7, p))
    F = np.fft.fft(block)
    assert F.shape == (7, p)
    for row, v in zip(F, block):
        np.testing.assert_array_equal(row, np.fft.fft(v))


@pytest.mark.parametrize("p", [2, 3, 5, 79, 131, 521, 2053])
@pytest.mark.parametrize("rows", [1, 20])
def test_ranked_product_equals_fft_at_the_bins(p, rows):
    # block @ W is the block's DFT at the ranked bins, in their rank order,
    # within 1e-14 of p max|block|: about 45 float64 epsilons, where a
    # wrong phase index misses by orders of magnitude
    rng = np.random.default_rng(p + rows)
    for _ in range(3):
        block = rng.standard_normal((rows, p)) + 1j * rng.standard_normal((rows, p))
        bins = np.unique(np.r_[0, p - 1, rng.integers(0, p, size=min(p, 64))])
        rng.shuffle(bins)
        W = _ranked_dft(p, bins)
        assert W.shape == (p, len(bins))
        error = np.abs(block @ W - np.fft.fft(block)[:, bins]).max()
        assert error <= 1e-14 * p * np.abs(block).max()


@pytest.mark.parametrize("landed", [0, 1, 9])
def test_column_peel_equals_subtract_at_on_the_full_transform(landed):
    # the ranked-bin product with found modes peeled at the columns where
    # they land, several in one bin or none at all, is the full transform
    # peeled at their residues by np.subtract.at, read at the ranked bins
    p, rows = 131, 4
    rng = np.random.default_rng(landed)
    block = rng.standard_normal((rows, p)) + 1j * rng.standard_normal((rows, p))
    bins = rng.permutation(p)[:20]
    cols = rng.choice([0, 3, 19], size=landed)  # repeated columns
    weights = rng.standard_normal((rows, landed)) + 1j * rng.standard_normal((rows, landed))
    full = np.fft.fft(block)
    np.subtract.at(full, (slice(None), bins[cols]), weights)
    peel = _column_peel(weights, cols, len(bins))
    assert peel.shape == (rows, len(bins))
    assert np.count_nonzero(peel.any(axis=0)) == len(set(cols.tolist()))
    peeled = block @ _ranked_dft(p, bins) + peel
    assert np.abs(peeled - full[:, bins]).max() <= 1e-14 * p * np.abs(block).max()


def test_dft_random_p521_batch():
    rng = np.random.default_rng(4)
    p = 521
    for _ in range(20):
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        assert np.max(np.abs(np.fft.fft(v) - direct_dft(v))) <= 1e-9 * p


def test_parseval():
    rng = np.random.default_rng(5)
    for p in (7, 127, 521):
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        F = np.fft.fft(v)
        lhs = np.sum(np.abs(F) ** 2)
        rhs = p * np.sum(np.abs(v) ** 2)
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_aliasing_identity_brute_force():
    # occupied-bin sums at p=13: bin m holds p * sum of coefficients with
    # frequency entry congruent to m, including a deliberate collision
    p = 13
    freqs = [3, 16, 7, 20, 11]  # 3 and 16 collide mod 13, as do 7 and 20
    coeffs = np.array([1.0, 0.5 - 0.5j, -0.25j, 2.0, 0.75 + 0.1j])
    v = np.zeros(p, dtype=np.complex128)
    for w, a in zip(freqs, coeffs):
        v += a * np.exp(2j * np.pi * w * np.arange(p) / p)
    F = np.fft.fft(v)
    for m in range(p):
        expected = p * sum(a for w, a in zip(freqs, coeffs) if w % p == m)
        assert abs(F[m] - expected) <= 1e-9 * p


def test_aliasing_no_collision():
    p = 11
    freqs = [41, 83]  # distinct mod 11: 8 and 6
    coeffs = [0.3 - 0.4j, 1.0]
    v = sum(
        a * np.exp(2j * np.pi * w * np.arange(p) / p) for w, a in zip(freqs, coeffs)
    )
    F = np.fft.fft(v)
    for w, a in zip(freqs, coeffs):
        assert abs(F[w % p] - p * a) <= 1e-9


def test_top_bins_examples():
    ranking = top_bins(np.array([5, 0, 0, 0, 0], dtype=complex), 1)
    np.testing.assert_array_equal(ranking, [0])

    F = np.zeros(10, dtype=complex)
    F[2] = 3.0
    F[7] = 3.0j  # equal magnitude: lower index wins
    ranking = top_bins(F, 2)
    np.testing.assert_array_equal(ranking, [2, 7])


def test_top_bins_two_mode_signal():
    p = 11
    v = np.exp(2j * np.pi * 41 * np.arange(p) / p) + np.exp(
        2j * np.pi * 83 * np.arange(p) / p
    )
    ranking = top_bins(np.fft.fft(v), 2)
    assert set(int(m) for m in ranking) == {41 % p, 83 % p}


def test_top_bins_count_guard():
    with pytest.raises(ValueError):
        top_bins(np.ones(4, dtype=complex), 5)
    # a negative count would slice from the end and return bins silently
    with pytest.raises(ValueError, match="count"):
        top_bins(np.arange(5.0), -2)
    assert len(top_bins(np.arange(5.0), 0)) == 0
