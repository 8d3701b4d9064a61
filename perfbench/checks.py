"""Output checks for one recovery, computed apart from msfourier.

Nothing here imports the package: the truth and the recovered modes arrive
as plain ``{frequency tuple: complex coefficient}`` dicts, and the first
outer iteration's sample length p is recomputed from the paper's schedule
rule with this module's own prime search.
"""

from __future__ import annotations

import math

# Noiseless recoveries must reproduce every coefficient to this tolerance.
NOISELESS_TOL = 1e-9

# Share of coefficients that must lie within c_sigma * sigma / sqrt(p) when
# sigma > 0 (acceptance criterion 2's property).
WITHIN_SHARE = 0.95


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def first_sample_length(s: int, sigma: float, a_min: float, c1: float,
                        c_sigma: float, beta: float) -> int:
    """Smallest prime >= max(c1 s, (beta (beta+1) a_min c_sigma sigma / pi)^2)."""
    floor = (beta * (beta + 1) * a_min * c_sigma * sigma / math.pi) ** 2
    n = max(2, math.ceil(max(c1 * s, floor)))
    while not _is_prime(n):
        n += 1
    return n


def check_recovery(truth: dict, found: dict, converged: bool, sigma: float,
                   p_first: int, c_sigma: float = 6.0) -> list[str]:
    """Problems with one recovery; an empty list means it passed.

    ``truth`` and ``found`` map frequency tuples to coefficients.
    """
    problems = []
    if not converged:
        problems.append("converged is False")
    missed = truth.keys() - found.keys()
    spurious = found.keys() - truth.keys()
    if missed or spurious:
        problems.append(f"frequency set differs: {len(missed)} missed, {len(spurious)} spurious")
    errors = [abs(found[w] - truth[w]) for w in truth.keys() & found.keys()]
    if sigma > 0:
        bound = c_sigma * sigma / math.sqrt(p_first)
        within = sum(e <= bound for e in errors)
        if within < WITHIN_SHARE * len(truth):
            problems.append(
                f"{within} of {len(truth)} coefficients within {bound:.4g} (need {WITHIN_SHARE:.0%})"
            )
    elif errors and max(errors) > NOISELESS_TOL:
        problems.append(f"noiseless coefficient error {max(errors):.3g} > {NOISELESS_TOL}")
    return problems


def self_test() -> list[str]:
    """Corrupted results that the check fails to flag; an empty list means it works."""
    sigma, p = 0.5, first_sample_length(4, 0.5, 1.0, 2.0, 6.0, 2.5)
    truth = {(1, 2): 1 + 0j, (-3, 0): 1j, (0, 0): -1 + 0j, (4, -4): -1j}
    cases = {
        "not converged": (dict(truth), False, sigma),
        "missed mode": ({w: a for w, a in list(truth.items())[1:]}, True, sigma),
        "spurious mode": ({**truth, (2, 2): 1 + 0j}, True, sigma),
        "wrong frequency": ({(1, 3) if w == (1, 2) else w: a for w, a in truth.items()}, True, sigma),
        "noisy coefficient": ({w: a + (0.5 if w == (0, 0) else 0) for w, a in truth.items()}, True, sigma),
        "noiseless coefficient": ({w: a + (1e-6 if w == (0, 0) else 0) for w, a in truth.items()}, True, 0.0),
    }
    missed = [name for name, (found, conv, sig) in cases.items()
              if not check_recovery(truth, found, conv, sig, p)]
    if check_recovery(truth, dict(truth), True, sigma, p) or check_recovery(truth, dict(truth), True, 0.0, p):
        missed.append("an exact result is refused")
    return missed
