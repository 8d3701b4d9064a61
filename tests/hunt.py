"""A standing silent-wrong hunt: seeded recoveries that report convergence
must recover the true frequency set.

Each run draws N, d, d1 | d, s, sigma and a_min with ``slice_runs``, the
draw that ``test_random_slice_converged_is_exact`` in
``tests/test_recovery.py`` asserts on, and is crossed with each listed sigma
under-statement u and ``beta``: the config states sigma / u and the noise
keeps the true sigma. At the defaults (u = 1 and ``RecoveryConfig``'s
``beta``) a seed's runs are that test's slice.

    PYTHONPATH=src python tests/hunt.py --seed S --runs R [--understate 1,2,4] [--beta 2.5,2.0]

It prints the runs, converged and wrong counts per (sigma, u, beta), then
one reproducer line per converged-but-wrong run, and exits 1 when any run
is wrong.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from itertools import product

import numpy as np

from msfourier import NoiseModel, RecoveryConfig, SparseSpectrum, compare, recover
from msfourier.cli import random_spectrum


def graded_run(N, d, d1, s, sigma, a_min, seed, *, understate=1, beta=RecoveryConfig.beta):
    """(truth, result) of recover on random_spectrum(N, d, s, seed) with every
    third coefficient scaled by a_min, under a config with the same seed that
    states sigma / understate; the noise has the true sigma."""
    truth = random_spectrum(N, d, s, seed)
    coeffs = truth.coeffs.copy()
    coeffs[::3] *= a_min
    truth = SparseSpectrum.from_arrays(truth.freqs, coeffs, N, d)
    cfg = RecoveryConfig(
        N=N, d=d, d1=d1, s=s, sigma=sigma / understate, a_min=a_min, beta=beta, seed=seed
    )
    return truth, recover(cfg, truth, NoiseModel(sigma=sigma, seed=seed))


def slice_runs(grid_seed, runs=200):
    """(N, d, d1, s, sigma, a_min, seed) of each run of the slice at ``grid_seed``."""
    rng = np.random.default_rng(grid_seed)
    for _ in range(runs):
        N = int(rng.choice([4, 8, 20]))
        d = int(rng.integers(2, 25))
        # d1 | d with an effective bandwidth N' = N (N^d1 - 1) / (N - 1) + 1 <= 2^53
        d1 = int(rng.choice([
            q for q in range(1, d + 1) if d % q == 0 and N * (N**q - 1) // (N - 1) + 1 <= 2**53
        ]))
        s = int(rng.choice([2, 4, 8, 16]))
        sigma = float(rng.choice([0, 0.1, 0.5]))
        a_min = float(rng.choice([1, 0.3]))
        yield N, d, d1, s, sigma, a_min, int(rng.integers(2**31))


def numbers(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="grid seed of the draw")
    parser.add_argument("--runs", type=int, default=200, help="draws from the grid")
    parser.add_argument("--understate", type=numbers, default=[1], help="e.g. 1,2,4")
    parser.add_argument("--beta", type=numbers, default=[RecoveryConfig.beta], help="e.g. 2.5,2.0")
    args = parser.parse_args(argv)
    runs, converged, wrong, reproducers = Counter(), Counter(), Counter(), []
    for run, understate, beta in product(
        slice_runs(args.seed, args.runs), args.understate, args.beta
    ):
        truth, res = graded_run(*run, understate=understate, beta=beta)
        cls = (run[4], understate, beta)
        runs[cls] += 1
        converged[cls] += res.converged
        report = compare(truth, res.modes)
        if res.converged and report.exact_freq_rate != 1.0:
            wrong[cls] += 1
            reproducers.append((run, understate, beta, report))
    print(f"{'sigma':<6} {'understate':<10} {'beta':<5} {'runs':>5} {'converged':>9} {'wrong':>5}")
    for cls in sorted(runs):
        sigma, understate, beta = cls
        print(
            f"{sigma:<6} {understate:<10g} {beta:<5g} {runs[cls]:>5} {converged[cls]:>9} "
            f"{wrong[cls]:>5}"
        )
    for (N, d, d1, s, sigma, a_min, seed), understate, beta, report in reproducers:
        print(
            f"wrong: N={N} d={d} d1={d1} s={s} sigma={sigma} a_min={a_min} seed={seed} "
            f"understate={understate:g} beta={beta:g} "
            f"({report.missed} missed, {report.spurious} spurious)"
        )
    return 1 if reproducers else 0


if __name__ == "__main__":
    sys.exit(main())
