from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from msfourier import (
    FourierMode,
    SparseSpectrum,
    evaluate_spectrum,
    read_signal_file,
    write_signal_file,
)
from msfourier.spectrum import _cube_holds


def one_mode(freq, coeff, N, d):
    return SparseSpectrum(modes=(FourierMode(freq=freq, coeff=coeff),), bandwidth=N, dim=d)


def test_evaluate_constant_mode():
    spec = one_mode((0, 0), 1.0, 8, 2)
    for x in ([0.0, 0.0], [0.3, 0.7], [0.99, 0.01]):
        assert evaluate_spectrum(spec, x) == pytest.approx(1.0)


def test_evaluate_single_modes():
    # exp(2 pi i * 3 * 0.5) = exp(3 pi i) = -1
    spec = one_mode((3,), 1.0, 8, 1)
    assert evaluate_spectrum(spec, [0.5]) == pytest.approx(-1.0, abs=1e-12)
    # 2 * exp(2 pi i * 0.75) = -2i
    spec = one_mode((1, 2), 2.0, 8, 2)
    assert evaluate_spectrum(spec, [0.25, 0.25]) == pytest.approx(-2j, abs=1e-12)


def test_evaluate_linear_in_coefficients():
    rng = np.random.default_rng(0)
    a = one_mode((1, 2), 0.3 - 0.7j, 8, 2)
    b = one_mode((-3, 0), 1.1 + 0.2j, 8, 2)
    union = SparseSpectrum(modes=a.modes + b.modes, bandwidth=8, dim=2)
    for _ in range(20):
        x = rng.random(2)
        lhs = evaluate_spectrum(union, x)
        rhs = evaluate_spectrum(a, x) + evaluate_spectrum(b, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_evaluate_periodic():
    rng = np.random.default_rng(1)
    spec = SparseSpectrum(
        modes=(FourierMode((2, -3), 1.0), FourierMode((-4, 1), 0.5j)), bandwidth=8, dim=2
    )
    for _ in range(20):
        x = rng.random(2)
        shift = rng.integers(-3, 4, size=2)
        lhs = evaluate_spectrum(spec, x + shift)
        rhs = evaluate_spectrum(spec, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_evaluate_dim_mismatch():
    spec = one_mode((1, 2), 1.0, 8, 2)
    with pytest.raises(ValueError):
        evaluate_spectrum(spec, [0.1, 0.2, 0.3])


def test_mode_invariants():
    with pytest.raises(ValueError):
        FourierMode(freq=(1,), coeff=complex("nan"))
    with pytest.raises(ValueError):
        SparseSpectrum(modes=(FourierMode((4,), 1.0),), bandwidth=8, dim=1)  # 4 >= N/2
    with pytest.raises(ValueError):
        SparseSpectrum(
            modes=(FourierMode((1,), 1.0), FourierMode((1,), 2.0)), bandwidth=8, dim=1
        )
    # -N/2 is inside the half-open range
    SparseSpectrum(modes=(FourierMode((-4,), 1.0),), bandwidth=8, dim=1)

    s = SparseSpectrum(
        modes=(FourierMode((1, -4), 0.5j), FourierMode((-3, 2), 1.0), FourierMode((0, 3), -2.0)),
        bandwidth=8,
        dim=2,
    )
    assert s.freqs.dtype == np.int64 and s.freqs.shape == (3, 2)
    assert s.coeffs.dtype == np.complex128 and s.coeffs.shape == (3,)
    back = SparseSpectrum.from_arrays(s.freqs, s.coeffs, 8, 2)
    assert back == s and back.modes == s.modes and type(back.modes[0].freq[0]) is int
    assert SparseSpectrum(modes=back.modes, bandwidth=8, dim=2) == s
    assert s != SparseSpectrum(modes=s.modes[::-1], bandwidth=8, dim=2)  # ordered
    assert s != SparseSpectrum.from_arrays(s.freqs, s.coeffs + 1e-16j, 8, 2)  # exact
    assert s != SparseSpectrum.from_arrays(s.freqs, s.coeffs, 10, 2)
    assert SparseSpectrum.from_arrays([], [], 8, 2) == SparseSpectrum((), 8, 2)
    for arr in (s.freqs, s.coeffs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(TypeError):
        hash(s)

    # both constructors raise ValueError, never OverflowError, for each case
    for freqs, coeffs, bandwidth in [
        ([(4, 0)], [1.0], 8),  # 4 >= N/2
        ([(0, -5)], [1.0], 8),  # -5 < -N/2
        ([(1, 2), (1, 2)], [1.0, 2.0], 8),  # duplicate rows
        ([(1, 2)], [complex("nan")], 8),
        ([(1, 2)], [complex(1, float("inf"))], 8),
        ([(1, 2, 3)], [1.0], 8),  # row length 3, dim 2
        ([(1, 2), (3,)], [1.0, 1.0], 8),
        ([(2**70, 0)], [1.0], 2**72),  # in range but beyond int64
        ([(1.5, 0)], [1.0], 8),  # not an integer: refused, not truncated
        ([(float("nan"), 0)], [1.0], 8),
        ([(float("inf"), 0)], [1.0], 8),
    ]:
        with pytest.raises(ValueError):
            SparseSpectrum.from_arrays(freqs, coeffs, bandwidth, 2)
        with pytest.raises(ValueError):
            modes = [FourierMode(w, a) for w, a in zip(freqs, coeffs)]
            SparseSpectrum(modes=modes, bandwidth=bandwidth, dim=2)
    # arrays are read by value: no truncation and no wrap-around to int64
    for freqs in ([[1.5, 0]], [[np.nan, 0]], np.array([[2**63, 0]], dtype=np.uint64)):
        with pytest.raises(ValueError):
            SparseSpectrum.from_arrays(freqs, [1.0], 2**72, 2)


@pytest.mark.parametrize(
    "raw, stored",
    [
        ((1.0, -2.0), (1, -2)),
        ((np.int64(3), np.int32(-1)), (3, -1)),
        ((True, 0), (1, 0)),
        ((Fraction(4, 2),), (2,)),
        ([3, -4], (3, -4)),
    ],
)
def test_mode_stores_integral_entries_as_ints(raw, stored):
    freq = FourierMode(raw, 1).freq
    assert freq == stored and type(freq) is tuple and all(type(e) is int for e in freq)


@pytest.mark.parametrize("entry", [1.5, float("nan"), float("inf"), "1"])
def test_mode_refuses_non_integer_entries(entry):
    with pytest.raises(ValueError, match="frequency entries must be integers"):
        FourierMode((0, entry), 1)


def test_mode_keeps_an_all_int_tuple():
    raw = (3, -4, 0)
    assert FourierMode(raw, 1).freq is raw


@pytest.mark.parametrize(
    "modes, bandwidth, dim, message",
    [
        ([FourierMode((4, 0), 1)], 8, 2, r"must lie in \[-4, 4\)"),
        ([FourierMode((2**63, 0), 1)], 2**70, 2, r"must lie in \[-9223372036854775808, 9223"),
        ([FourierMode((1, 2), 1), FourierMode((3,), 1)], 8, 2, "array element with a sequence"),
        ([FourierMode((1, 2, 3), 1)], 8, 2, r"frequencies of shape \(1, 3\)"),
        ([FourierMode((1, 2), 1), FourierMode((1, 2), 2)], 8, 2, r"duplicate .* \(1, 2\)"),
        ([SimpleNamespace(freq=(1, 2), coeff=complex("nan"))], 8, 2, "coefficients must be"),
        # a mode that is not a FourierMode is checked, not truncated to (1, 0)
        ([SimpleNamespace(freq=(1.5, 0), coeff=1)], 8, 2, "entries must be integers"),
    ],
)
def test_modes_refused_with_message(modes, bandwidth, dim, message):
    with pytest.raises(ValueError, match=message):
        SparseSpectrum(modes=modes, bandwidth=bandwidth, dim=dim)


def test_empty_frequency_vector_reports_its_shape():
    with pytest.raises(ValueError, match=r"frequencies of shape \(1, 0\)"):
        SparseSpectrum(modes=(FourierMode((), 1),), bandwidth=8, dim=1)
    assert SparseSpectrum.from_arrays([], [], 8, 2).freqs.shape == (0, 2)


def test_modes_round_trip_as_int_tuples():
    rows = [(1, -4), (-3, 2), (0, 3)]
    spec = SparseSpectrum([FourierMode(w, 1j) for w in rows], bandwidth=8, dim=2)
    # a duck-typed mode takes the checked path and reads the same values
    ducks = [SimpleNamespace(freq=np.array(w), coeff=1j) for w in rows]
    assert SparseSpectrum(ducks, bandwidth=8, dim=2) == spec
    assert [m.freq for m in spec.modes] == rows
    assert all(type(e) is int for m in spec.modes for e in m.freq)
    assert SparseSpectrum(spec.modes, bandwidth=8, dim=2) == spec


@pytest.mark.parametrize(
    "bandwidth,dim,name",
    [(20.5, 2, "bandwidth"), (np.float64(20), 2, "bandwidth"), (20, 2.0, "dim"), (20, True, "dim")],
)
def test_bandwidth_and_dim_must_be_integers(bandwidth, dim, name):
    # each would be written as a signal-file header that read_signal_file refuses
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SparseSpectrum.from_arrays([[1, 2]], [1.0], bandwidth, dim)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SparseSpectrum(modes=(FourierMode((1, 2), 1.0),), bandwidth=bandwidth, dim=dim)


def test_numpy_integer_metadata_roundtrips(tmp_path):
    spec = SparseSpectrum.from_arrays([[1, 2]], [1.0], np.int64(20), np.int32(2))
    path = tmp_path / "sig.txt"
    write_signal_file(spec, path)
    assert path.read_text().split("\n")[0] == "20 2 1"
    assert read_signal_file(path) == spec
    # the frequency bounds -(N // 2) and (N + 1) // 2 would overflow in int64
    wide = SparseSpectrum.from_arrays([[0]], [1.0], np.int64(2**63 - 1), 1)
    assert wide == SparseSpectrum.from_arrays([[0]], [1.0], 2**63 - 1, 1)


def test_signal_file_roundtrip(tmp_path):
    spec = SparseSpectrum(
        modes=(FourierMode((1, -4), 0.25 - 0.5j), FourierMode((-3, 2), -1.0 + 1e-9j)),
        bandwidth=8,
        dim=2,
    )
    path = tmp_path / "sig.txt"
    write_signal_file(spec, path)
    back = read_signal_file(path)
    assert back == spec


def test_signal_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("8 2\n")
    with pytest.raises(ValueError):
        read_signal_file(path)
    path.write_text("8 2 1\n1.0 0.0 3\n")
    with pytest.raises(ValueError):
        read_signal_file(path)


def test_cube_bound_answers_at_huge_d():
    # RecoveryConfig and random_spectrum share this bound; a d of 10^12 costs
    # no 10^12-digit power, and numpy integers do not wrap it
    assert _cube_holds(20, 10**12, 10**7)
    assert _cube_holds(np.int64(2), np.int64(10**12), 2**40)
    for N, d, s in [(8, 2, 64), (2, 3, 8), (20, 20, 20**20), (8, 10**12, 0)]:
        assert _cube_holds(N, d, s)
        assert not _cube_holds(N, min(d, 20), N ** min(d, 20) + 1)
