"""A pinned corpus of seeded recoveries: the equivalence gate of a refactor.

Every case is one ``recover`` run on a ``random_spectrum`` truth. The grid
covers N in {4, 8, 20}, d' in {1, 2, 4}, d1 in {1, 2} and noise sigma in
{0, 0.1, 0.512}; the config's sigma is the true one or under-stated 4x, the
outer iteration cap is none or 2, and there are three seeds. Then the three
perfbench sizes (N=20, d1=5) run once each at full scale.

``tests/corpus_expected.json`` holds each case's outputs as recorded:
a SHA-256 of the recovered frequencies (int64 rows, in found order), one
of the frequency set (the rows sorted), the coefficients in the sorted
rows' order, ``samples_used``, ``outer_iterations``, ``converged`` and
whether the frequency set equals the truth's. So a change that finds the
same modes in another order moves ``freqs_sha256`` alone: the
coefficients are compared matched by frequency. ``tests/test_corpus.py``
compares a fresh run against it. A declared output change regenerates the
file with

    PYTHONPATH=src python tests/corpus.py [OUT]

which prints each case that moved from the record it overwrites, with the
fields that moved, for the change's notes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

from msfourier import NoiseModel, RecoveryConfig, compare, recover
from msfourier.cli import random_spectrum

EXPECTED = Path(__file__).with_name("corpus_expected.json")

# Recorded fields compared exactly; the coefficients are compared within 1e-12.
INTEGERS = (
    "freqs_sha256", "set_sha256", "modes", "samples_used", "outer_iterations", "converged", "exact"
)

# (N, d, d1, s, sigma) at full scale: perfbench's headline, wide_d and many_modes.
PERFBENCH_SIZES = [(20, 100, 5, 256, 0.512), (20, 1000, 5, 64, 0.512), (20, 20, 5, 1024, 0.0)]


def cases() -> list[dict]:
    """Every case's inputs, keyed by a name unique in the corpus."""
    grid = []
    for N, d_red, d1, sigma, understate, cap, seed in product(
        (4, 8, 20), (1, 2, 4), (1, 2), (0.0, 0.1, 0.512), (1, 4), (None, 2), range(3)
    ):
        d = d_red * d1
        grid.append(dict(N=N, d=d, d1=d1, s=min(8, N**d // 2), sigma=sigma,
                         understate=understate, cap=cap, seed=seed))
    for N, d, d1, s, sigma in PERFBENCH_SIZES:
        grid.append(dict(N=N, d=d, d1=d1, s=s, sigma=sigma, understate=1, cap=None, seed=0))
    for case in grid:
        case["key"] = " ".join(f"{k}={v}" for k, v in case.items())
    return grid


def run_case(case: dict) -> dict:
    """Recover the case's truth; its outputs in the recorded format."""
    truth = random_spectrum(case["N"], case["d"], case["s"], 1000 + case["seed"])
    config = RecoveryConfig(
        N=case["N"], d=case["d"], d1=case["d1"], s=case["s"],
        sigma=case["sigma"] / case["understate"], seed=case["seed"],
        max_outer_iterations=case["cap"],
    )
    result = recover(config, truth, NoiseModel(sigma=case["sigma"], seed=case["seed"]))
    report = compare(truth, result.modes)
    freqs = np.ascontiguousarray(result.modes.freqs, dtype="<i8")
    by_row = np.lexsort(freqs.T[::-1])  # the rows in lexicographic order
    return {
        "freqs_sha256": hashlib.sha256(freqs.tobytes()).hexdigest(),
        "set_sha256": hashlib.sha256(freqs[by_row].tobytes()).hexdigest(),
        "modes": len(result.modes),
        "samples_used": result.samples_used,
        "outer_iterations": result.outer_iterations,
        "converged": result.converged,
        "exact": report.missed == 0 and report.spurious == 0,
        "coeffs": [[c.real, c.imag] for c in result.modes.coeffs[by_row].tolist()],
    }


def moved_fields(got: dict, want: dict) -> list[str]:
    """The fields in which a case's outputs ``got`` differ from its record ``want``.

    The coefficients, in the sorted rows' order, are compared within 1e-12
    where both hold as many: numpy's SIMD exp may differ in the last bit
    between CPUs.
    """
    moved = [name for name in INTEGERS if got[name] != want.get(name)]
    if len(got["coeffs"]) == len(want["coeffs"]):
        error = np.abs(np.array(got["coeffs"]) - np.array(want["coeffs"]))
        if error.size and error.max() > 1e-12:
            moved.append(f"coeffs by {error.max():.3g}")
    return moved


def main(out: Path = EXPECTED) -> None:
    old = json.loads(out.read_text()) if out.exists() else {}
    records = {case["key"]: run_case(case) for case in cases()}
    moved = 0
    for key, record in records.items():
        fields = moved_fields(record, old[key]) if key in old else ["new case"]
        if fields:
            moved += 1
            print(f"{key}: {', '.join(fields)}")
    with open(out, "w") as fh:
        # one case per line, so a regenerated file diffs case by case
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()))
        fh.write("\n}\n")
    wrong = sum(r["converged"] and not r["exact"] for r in records.values())
    print(f"wrote {len(records)} cases to {out}; {moved} moved or new, "
          f"{len(old.keys() - records.keys())} dropped; {wrong} converged but not exact")


if __name__ == "__main__":
    main(*map(Path, sys.argv[1:2]))
