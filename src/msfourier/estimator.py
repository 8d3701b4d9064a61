"""Multiscale frequency-entry estimation and run-parameter schedules.

A frequency entry w' is read off the argument of the ratio of a shifted to
an unshifted DFT bin. One ratio at shift eps0 <= 1/(2 N') pins w' only up
to a noise-scaled error, so the estimate is refined over M+1 geometrically
growing shifts eps_a = beta^a * eps0: each level wraps the residual error
into [-1/2, 1/2) of a cycle and divides by the larger shift, shrinking the
error by beta per level until rounding to the nearest integer is exact.
The same ratio's modulus tests the bin for a collision: a single mode
keeps its magnitude under any shift, so ``shift_ratio`` gives each level's
collision verdict and phase together.

``make_schedule`` gives what follows the remaining sparsity s* from one
outer iteration to the next: the prime p (``next_prime_at_least``) and
tau. The shift ladder follows p (``_ladder``): a longer p holds a level's
phase error below the admissible delta at a larger growth, so its ladder
has fewer levels. beta is the floor on the growth, and 2^24, the float64
bound that alone sizes a noiseless ladder, its cap.

The estimator functions are array-native: each works elementwise on whole
blocks of bins (shapes broadcast as numpy's do), and ``recovery.recover``
calls them on every ranked bin of an outer iteration at once, so the
functions the tests check are the ones the peeling loop runs.
"""

from __future__ import annotations

import math

import numpy as np

from .spectrum import _is_real

__all__ = [
    "frac_centered",
    "make_schedule",
    "next_prime_at_least",
    "shift_ratio",
    "reconstruct_entry",
    "estimate_coefficient",
]

# Bins with magnitude below this are treated as empty (they fail the collision test).
DEAD_BIN = 1e-300

# Threshold floor so noiseless runs tolerate floating-point round-off.
TAU_FLOOR = 1e-9

# Longest sample vector a schedule may ask for: one complex128 vector of
# 2^26 points takes 1 GiB. A prime, so p <= it exactly when the length is.
MAX_SAMPLE_LENGTH = 2**26 - 5

# Most shift levels a ladder may have. Every outer iteration gathers
# (M+1) d' shifted vectors and weighs the truth's rows M+1 times, d' n_truth
# weights at a time, and each ladder keeps M+1 digit tables of 256 D <= 1,792
# complex entries: at most 1,024 x 1,792 x 16 B, about 29 MB, whatever the
# size of the truth. Any beta >= 1.04 stays below it at every N' <= 2^53.
MAX_SHIFT_LEVELS = 1024

# Largest ladder growth float64 admits (see ``_ladder``): with exact shift
# phases a level wraps only through a noiseless bin's own phase error E, and
# growth <= 2^24 keeps that error 2^6 below a wrap for E up to 2^-32 cycles.
NOISELESS_MAX_BETA = 2.0**24


def frac_centered(x):
    """x reduced modulo 1 into [-1/2, 1/2)."""
    return x - np.floor(x + 0.5)


def _halves(x):
    """Dekker's split of x into hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _frac_product(a, b):
    """(a b) mod 1 in [-1/2, 1/2), off by at most 2^-54 cycles.

    Dekker's TwoProduct gives the rounded product p and its exact error e,
    p + e = a b, from products of the halves, which float64 holds exactly.
    p minus its nearest integer is exact too, so one rounding remains.
    """
    p = a * b
    ah, al = _halves(a)
    bh, bl = _halves(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return frac_centered((p - np.rint(p)) + e)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime_at_least(x: float) -> int:
    """Smallest prime >= ceil(x)."""
    if x > 2**62:
        raise ValueError(f"{x} out of supported range")
    n = max(2, math.ceil(x))
    while not _is_prime(n):
        n += 1
    return n


def make_schedule(
    s_star: int, sigma: float, a_min: float, c1: float, c_sigma: float, beta: float
) -> tuple[int, float]:
    """Sample length p and collision threshold tau for sparsity budget s*.

    p is the first prime >= max{c1 s*, (beta(beta+1) c_sigma sigma / (pi a_min))^2};
    the second operand keeps the per-level phase error of a mode with
    |a_j| >= a_min below the admissible delta = 1/(2 beta + 2), and
    tau = c_sigma sigma / (a_min sqrt(p)), floored at ``TAU_FLOOR``.
    Every input is checked here, for ``_ladder`` too, and a p above
    ``MAX_SAMPLE_LENGTH`` raises ValueError before any prime is searched.
    Returns (p, tau).
    """
    if s_star < 1:
        raise ValueError(f"sparsity budget must be >= 1, got {s_star}")
    if not (_is_real(beta) and math.isfinite(beta) and beta > 1):
        raise ValueError(f"beta must be finite and > 1, got {beta!r}")
    if not (_is_real(sigma) and math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    if not (_is_real(a_min) and math.isfinite(a_min) and a_min > 0):
        raise ValueError(f"a_min must be finite and > 0, got {a_min!r}")
    if not (_is_real(c1) and math.isfinite(c1) and c1 >= 1):
        raise ValueError(f"c1 must be finite and >= 1, got {c1!r}")
    if not (_is_real(c_sigma) and math.isfinite(c_sigma) and c_sigma > 0):
        raise ValueError(f"c_sigma must be finite and > 0, got {c_sigma!r}")
    amplitude = beta * (beta + 1) * c_sigma * sigma / (math.pi * a_min)
    # Past 2^32 the square is far above the cap, and ** 2 could overflow.
    length = max(c1 * s_star, math.inf if amplitude > 2**32 else amplitude**2)
    if length > MAX_SAMPLE_LENGTH:
        raise ValueError(f"sample length {length:.6g} exceeds the cap of {MAX_SAMPLE_LENGTH}")
    p = next_prime_at_least(length)
    return p, max(c_sigma * sigma / (a_min * math.sqrt(p)), TAU_FLOOR)


def _ladder(
    n_eff: int, p: int, sigma: float, a_min: float, c_sigma: float, beta: float
) -> np.ndarray:
    """Shift ladder eps_a = g^a eps0, a = 0..M, of an outer iteration with sample length p.

    eps0 = 1/(2 N'), and the top shift g^M eps0 >= 1/2 drives the
    reconstruction error under 1/2. A level's phase error stays below the
    admissible delta = 1/(2 g + 2) while p >= (g (g+1) c_sigma sigma /
    (pi a_min))^2, the noise floor ``make_schedule`` puts under p at
    g = beta. So p admits any growth up to g* = (sqrt(1 + 4 r) - 1) / 2
    with r = pi a_min sqrt(p) / (c_sigma sigma), infinite at sigma = 0.

    Nor does float64 admit more than 2^24. The shift phases w' eps_a are
    reduced mod 1 exactly (``_frac_product``), by the sampler and by
    ``reconstruct_entry`` alike, so at sigma = 0 level a's phase is off only
    by the error E of the FFT and ``np.angle`` on a noiseless bin. The
    running estimate is then within 2E/eps_{a-1} of w' (rounding it to
    float64 at most doubles its error, as w' is a float64 integer), and
    level a does not wrap while (2 g + 1) E stays below 1/2, which g <= 2^24
    holds 2^6 times over for E up to 2^-32 cycles.

    The admitted growth g = max(min(g*, 2^24), beta) sets the fewest levels
    M = ceil(ln N' / ln g). At sigma > 0 the ladder grows by
    max(N'^(1/M), beta): the least growth that reaches N' in M levels,
    floored at beta. A noiseless ladder grows by g itself, so its top shift
    is not held at 1/2, where a w' difference of 2 is a whole cycle: at
    N = 20, d1 = 5 it is 2.49, and the top level's collision test still
    sees two merged modes 2 apart. Noiseless ladders have one level up to
    N' = 2^24, two up to 2^48 and three up to the 2^53 cap.
    beta bounds every p's ladder by floor(log_beta N') + 1
    levels; a bound above ``MAX_SHIFT_LEVELS`` raises ValueError before any
    array is built. The inputs come checked by ``make_schedule``; the
    ladder is read-only.
    """
    bound = math.floor(math.log(n_eff, beta)) + 1
    if bound > MAX_SHIFT_LEVELS:
        raise ValueError(
            f"beta={beta} needs {bound} shift levels at N'={n_eff}, above the cap of "
            f"{MAX_SHIFT_LEVELS}; use a larger beta"
        )
    noise = c_sigma * sigma
    r = math.pi * a_min * math.sqrt(p) / noise if noise else math.inf
    growth = max(min((math.sqrt(1 + 4 * r) - 1) / 2, NOISELESS_MAX_BETA), beta)
    M = math.ceil(math.log(n_eff) / math.log(growth))
    if noise:
        growth = max(n_eff ** (1 / M), beta)
    shifts = 1.0 / (2 * n_eff) * growth ** np.arange(M + 1, dtype=np.float64)
    shifts.flags.writeable = False
    return shifts


def shift_ratio(F_unshifted, F_shifted, tau: float):
    """Collision verdict and phase of the shifted/unshifted bin ratio.

    A bin holding a single mode keeps its magnitude under any shift, so it
    passes where the ratio's modulus is within tau of 1; a collided bin
    generically does not. The ratio's argument is the phase, in cycles in
    [-1/2, 1/2): an argument of pi reads -1/2. An empty bin fails with
    phase 0. Elementwise: unshifted bins of shape (s*,) broadcast against
    shifted bins of shape (d', s*). Returns (passed, phase).
    """
    live = np.abs(F_unshifted) >= DEAD_BIN
    ratio = np.where(live, F_shifted, 1.0) / np.where(live, F_unshifted, 1.0)
    passed = live & (np.abs(np.abs(ratio) - 1.0) <= tau)
    return passed, frac_centered(np.angle(ratio) / (2 * np.pi))


def reconstruct_entry(shifts, phases):
    """Multiscale reconstruction of entries from their per-level phases.

    ``phases`` has shape (M+1, ...): level a holds the phases b_a, in
    cycles, read at shift eps_a. The first level gives w = b_0 / eps_0;
    each later level wraps the residual b_a - eps_a w into [-1/2, 1/2) and
    adds it back divided by eps_a, so w = sum_a c_a / eps_a with c_0 = b_0
    and c_a = (b_a - eps_a * lambda_{a-1}) mod [-1/2, 1/2), lambda_a being
    the running sum of the first a+1 terms. Returns w, of shape
    ``phases.shape[1:]``.

    The running sum is carried as an exact integer part plus a fraction,
    and eps_a times the integer part is reduced mod 1 exactly
    (``_frac_product``): as one float64 near |w| = 2^51 it would round by
    up to 1/4, which eats the admissible error delta = 1/(2 beta + 2).
    """
    shifts = np.asarray(shifts, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    if shifts.ndim != 1 or len(shifts) == 0 or phases.shape[:1] != shifts.shape:
        raise ValueError("phases must hold one level per shift of a nonempty 1-D ladder")
    if shifts[0] <= 0 or np.any(np.diff(shifts) <= 0):
        raise ValueError("shifts must be positive and strictly increasing")
    t = phases[0] / shifts[0]
    whole = np.rint(t)
    part = t - whole
    for eps, b in zip(shifts[1:], phases[1:]):
        t = part + frac_centered(b - _frac_product(eps, whole) - eps * part) / eps
        step = np.rint(t)
        whole, part = whole + step, t - step
    return whole + part


def estimate_coefficient(F_unshifted_bin, p: int):
    """Coefficient estimate F[m]/p of the mode aliased into bin m."""
    if p < 1:
        raise ValueError(f"sample length must be >= 1, got {p}")
    return F_unshifted_bin / p
