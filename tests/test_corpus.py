import json

from corpus import EXPECTED, cases, moved_fields, run_case


def test_corpus_matches_record():
    expected = json.loads(EXPECTED.read_text())
    grid = cases()
    assert [case["key"] for case in grid] == list(expected)
    moved = []
    for case in grid:
        diff = moved_fields(run_case(case), expected[case["key"]])
        if diff:
            moved.append(f"{case['key']}: {', '.join(diff)}")
    assert not moved, f"{len(moved)} of {len(grid)} cases moved:\n" + "\n".join(moved[:20])


def test_corpus_records_no_converged_wrong_run():
    # converged => exact over the whole grid, so a regenerated record cannot
    # pin a run that reports success with a wrong frequency set
    expected = json.loads(EXPECTED.read_text())
    wrong = [key for key, rec in expected.items() if rec["converged"] and not rec["exact"]]
    assert not wrong, f"recorded converged but not exact: {wrong[:20]}"
