import json

import numpy as np
from corpus import EXPECTED, cases, run_case

INTEGERS = ("freqs_sha256", "modes", "samples_used", "outer_iterations", "converged", "exact")


def test_corpus_matches_record():
    # The frequencies and counts are compared exactly and the coefficients
    # within 1e-12: numpy's SIMD exp may differ in the last bit between CPUs.
    expected = json.loads(EXPECTED.read_text())
    grid = cases()
    assert [case["key"] for case in grid] == list(expected)
    moved = []
    for case in grid:
        got, want = run_case(case), expected[case["key"]]
        diff = [name for name in INTEGERS if got[name] != want[name]]
        if not diff:
            error = np.abs(np.array(got["coeffs"]) - np.array(want["coeffs"]))
            if error.size and error.max() > 1e-12:
                diff.append(f"coeffs by {error.max():.3g}")
        if diff:
            moved.append(f"{case['key']}: {', '.join(diff)}")
    assert not moved, f"{len(moved)} of {len(grid)} cases moved:\n" + "\n".join(moved[:20])


def test_corpus_records_no_converged_wrong_run():
    # converged => exact over the whole grid, so a regenerated record cannot
    # pin a run that reports success with a wrong frequency set
    expected = json.loads(EXPECTED.read_text())
    wrong = [key for key, rec in expected.items() if rec["converged"] and not rec["exact"]]
    assert not wrong, f"recorded converged but not exact: {wrong[:20]}"
