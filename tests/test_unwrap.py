from itertools import product

import numpy as np
import pytest
from reference import unwrap_point

from msfourier.unwrap import UnwrapMap, rewrap_freq, unwrap_freq


def make_map(N, d, d1):
    return UnwrapMap(bandwidth=N, dim=d, block=d1)


def test_effective_bandwidth_examples():
    assert make_map(20, 1, 1).eff_bandwidth == 21  # 2*10*1 + 1
    assert make_map(20, 5, 5).eff_bandwidth == 3368421  # 2*10*168421 + 1
    assert make_map(2, 3, 3).eff_bandwidth == 15  # 2*1*7 + 1


def test_effective_bandwidth_errors():
    with pytest.raises(ValueError):
        make_map(7, 2, 2)  # odd N
    with pytest.raises(ValueError, match="int64"):
        make_map(20, 20, 20)
    with pytest.raises(ValueError, match="N must be an integer"):
        make_map(20.5, 2, 1)  # checked before any int() conversion
    # a float would give float frequencies or a float d'; a bool is not an integer
    for N, d, d1, name in [(20.0, 10, 5, "N"), (20, 10.0, 5, "d"), (20, 10, True, "d1")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            make_map(N, d, d1)


def test_unwrap_point_examples():
    umap = make_map(20, 4, 2)
    np.testing.assert_allclose(
        unwrap_point([0.5, 0.25], umap), [0.5, 10.0, 0.25, 5.0], rtol=1e-12
    )
    np.testing.assert_array_equal(unwrap_point([0.0, 0.0], umap), [0.0, 0.0, 0.0, 0.0])
    umap = make_map(20, 3, 3)
    np.testing.assert_allclose(unwrap_point([0.1], umap), [0.1, 2.0, 40.0], rtol=1e-12)


def test_unwrap_freq_examples():
    umap = make_map(20, 4, 2)
    np.testing.assert_array_equal(unwrap_freq([1, 2, 3, 4], umap), [41, 83])
    np.testing.assert_array_equal(unwrap_freq([0, 0, 0, 0], umap), [0, 0])
    umap = make_map(20, 5, 5)
    np.testing.assert_array_equal(unwrap_freq([-10] * 5, umap), [-1684210])


def test_unwrap_freq_range_check():
    umap = make_map(20, 4, 2)
    with pytest.raises(ValueError):
        unwrap_freq([10, 0, 0, 0], umap)  # 10 >= N/2
    with pytest.raises(ValueError):
        unwrap_freq([[0, 0, 0, 0], [0, -11, 0, 0]], umap)  # one bad row refuses the array


def test_rewrap_examples():
    umap = make_map(20, 4, 2)
    np.testing.assert_array_equal(rewrap_freq([41, 83], umap), [1, 2, 3, 4])
    np.testing.assert_array_equal(rewrap_freq([0, 0], umap), [0, 0, 0, 0])
    umap = make_map(20, 5, 5)
    np.testing.assert_array_equal(rewrap_freq([-1684210], umap), [-10] * 5)


def test_rewrap_rejects_out_of_image():
    # eff_bandwidth(4, 2) = 21; +10 is within N'/2 but is not an unwrapped
    # value (max positive unwrapped entry is (N/2 - 1)*(1 + N) = 5).
    umap = make_map(4, 2, 2)
    with pytest.raises(ValueError):
        rewrap_freq([10], umap)
    with pytest.raises(ValueError):
        rewrap_freq([6], umap)
    with pytest.raises(ValueError):
        rewrap_freq([11], umap)  # beyond N'/2 too
    with pytest.raises(ValueError):
        rewrap_freq([[0], [10]], umap)  # one bad row refuses the array


def test_roundtrip_exhaustive():
    umap = make_map(4, 3, 3)
    for w in product(range(-2, 2), repeat=3):
        v = unwrap_freq(np.array(w), umap)
        np.testing.assert_array_equal(rewrap_freq(v, umap), w)


def test_rewrap_matrix_equals_rows():
    rng = np.random.default_rng(9)
    umap = make_map(20, 10, 5)
    freqs = rng.integers(-10, 10, size=(6, 10))
    unwrapped = unwrap_freq(freqs, umap)
    out = rewrap_freq(unwrapped, umap)
    assert out.shape == (6, 10)
    for row, v in zip(out, unwrapped):
        np.testing.assert_array_equal(row, rewrap_freq(v, umap))
    np.testing.assert_array_equal(out, freqs)
    # any number of leading axes, empty ones included
    np.testing.assert_array_equal(
        rewrap_freq(unwrapped.reshape(2, 3, 2), umap), out.reshape(2, 3, 10)
    )
    assert rewrap_freq(np.empty((0, 2), dtype=np.int64), umap).shape == (0, 10)


@pytest.mark.parametrize("N,d1", [(2, 1), (4, 3), (6, 2)])
def test_image_range_is_what_rewrap_accepts(N, d1):
    umap = make_map(N, d1, d1)
    lo, hi = umap.lo, umap.hi
    half = umap.eff_bandwidth // 2
    accepted = []
    for v in range(-half - 2, half + 3):
        try:
            w = rewrap_freq([v], umap)
        except ValueError:
            continue
        assert np.all((w >= -N // 2) & (w < N // 2))
        assert unwrap_freq(w, umap)[0] == v
        accepted.append(v)
    assert accepted == list(range(lo, hi + 1))
    assert len(accepted) == N**d1


def test_image_range_standard_size():
    # N=20, d1=5: every one of the 20^5 values in [lo, hi] rewraps and
    # round-trips, and its neighbours outside are refused
    umap = make_map(20, 5, 5)
    lo, hi = umap.lo, umap.hi
    assert hi - lo + 1 == 20**5
    for start in range(lo, hi + 1, 2**18):
        v = np.arange(start, min(start + 2**18, hi + 1), dtype=np.int64)[:, None]
        w = rewrap_freq(v, umap)
        assert np.all((w >= -10) & (w < 10))
        np.testing.assert_array_equal(unwrap_freq(w, umap), v)
    for v in (lo - 1, hi + 1, umap.eff_bandwidth // 2):
        with pytest.raises(ValueError):
            rewrap_freq([v], umap)


def test_injectivity_exhaustive():
    umap = make_map(4, 2, 2)
    images = {int(unwrap_freq(np.array(w), umap)[0]) for w in product(range(-2, 2), repeat=2)}
    assert len(images) == 16


def test_exponent_identity():
    rng = np.random.default_rng(2)
    for N, d, d1 in ((20, 4, 2), (20, 6, 3), (4, 5, 5)):
        umap = make_map(N, d, d1)
        for _ in range(100):
            w = rng.integers(-N // 2, N // 2, size=d)
            t = rng.random(umap.reduced_dim)
            lhs = np.exp(2j * np.pi * np.dot(w, unwrap_point(t, umap)))
            rhs = np.exp(2j * np.pi * np.dot(unwrap_freq(w, umap), t))
            assert abs(lhs - rhs) <= 1e-9


def test_block_must_divide_dim():
    with pytest.raises(ValueError):
        make_map(20, 5, 2)


@pytest.mark.parametrize("d,d1", [(2, 0), (2, -1), (0, 1), (-2, 1), (-2, -1)])
def test_nonpositive_dim_or_block_refused(d, d1):
    with pytest.raises(ValueError, match="d1"):
        make_map(8, d, d1)


def test_effective_bandwidth_of_numpy_integers():
    # numpy int64 arithmetic would wrap past 2^63 without an error
    wide = make_map(np.int64(20), 14, np.int64(14))
    assert wide.eff_bandwidth == make_map(20, 14, 14).eff_bandwidth
    with pytest.raises(ValueError, match="int64"):
        make_map(np.int64(20), 15, 15)
