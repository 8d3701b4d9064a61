import numpy as np
import pytest
from reference import direct_dft

from msfourier.dft import dft_forward, next_prime_at_least, top_bins


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
    np.testing.assert_allclose(dft_forward(np.ones(5)), [5, 0, 0, 0, 0], atol=1e-12)


def test_dft_single_tone():
    p = 5
    v = np.exp(2j * np.pi * 3 * np.arange(p) / p)
    F = dft_forward(v)
    assert abs(F[3] - p) <= 1e-9
    mask = np.ones(p, dtype=bool)
    mask[3] = False
    assert np.all(np.abs(F[mask]) <= 1e-9)


@pytest.mark.parametrize("p", [2, 3, 5, 521, 1031])
def test_dft_matches_direct_oracle(p):
    rng = np.random.default_rng(p)
    for _ in range(5):
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        assert np.max(np.abs(dft_forward(v) - direct_dft(v))) <= 1e-9 * p


@pytest.mark.parametrize("p", [2, 3, 5, 131, 193, 521, 2053, 7919])
def test_dft_block_rows_equal_vector_transforms(p):
    # the peeling loop transforms a shift level's vectors as one block
    rng = np.random.default_rng(p)
    block = rng.standard_normal((7, p)) + 1j * rng.standard_normal((7, p))
    F = dft_forward(block)
    assert F.shape == (7, p)
    for row, v in zip(F, block):
        np.testing.assert_array_equal(row, dft_forward(v))


def test_dft_rejects_empty_input():
    with pytest.raises(ValueError):
        dft_forward(np.zeros(0))
    with pytest.raises(ValueError):
        dft_forward(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        dft_forward(1.0)


def test_dft_random_p521_batch():
    rng = np.random.default_rng(4)
    p = 521
    for _ in range(20):
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        assert np.max(np.abs(dft_forward(v) - direct_dft(v))) <= 1e-9 * p


def test_parseval():
    rng = np.random.default_rng(5)
    for p in (7, 127, 521):
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        F = dft_forward(v)
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
    F = dft_forward(v)
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
    F = dft_forward(v)
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
    ranking = top_bins(dft_forward(v), 2)
    assert set(int(m) for m in ranking) == {41 % p, 83 % p}


def test_top_bins_count_guard():
    with pytest.raises(ValueError):
        top_bins(np.ones(4, dtype=complex), 5)
    # a negative count would slice from the end and return bins silently
    with pytest.raises(ValueError, match="count"):
        top_bins(np.arange(5.0), -2)
    assert len(top_bins(np.arange(5.0), 0)) == 0
