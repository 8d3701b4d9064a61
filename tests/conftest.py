"""Shared test helpers."""

from itertools import combinations

from msfourier.cli import random_spectrum
from msfourier.estimator import next_prime_at_least


def has_stuck_subset(spec, c1=2.0):
    """True when some subset of modes can never be separated by projections.

    A subset S deadlocks the peeling loop when, at S's own sample length
    p(|S|), every coordinate axis leaves every member of S sharing a residue
    class with another member (equal projection or congruence mod p). That is
    the all-axes collision scenario the recovery loop deliberately aborts on
    instead of applying rotation transforms.
    """
    freqs = [m.freq for m in spec.modes]
    for size in range(2, len(freqs) + 1):
        p = next_prime_at_least(c1 * size)
        for subset in combinations(freqs, size):
            if all(
                all(any(u[k] % p == v[k] % p for v in subset if v is not u) for u in subset)
                for k in range(spec.dim)
            ):
                return True
    return False


def separable_instance(N, d, s, seed):
    """Random spectrum, redrawn deterministically until projection-separable."""
    bump = 0
    while True:
        spec = random_spectrum(N, d, s, seed=seed + bump)
        if not has_stuck_subset(spec):
            return spec
        bump += 7919
