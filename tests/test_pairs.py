"""The gain rule that ``tests/pairs.py`` applies to alternating benchmark pairs."""

import pytest
from pairs import quartiles, summarize

BETTER = {"recover_s": "lower", "modes_per_s": "higher", "samples_per_recovery": "lower"}


def runs(**columns):
    # pair-aligned runs from one column of values per metric
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


def test_quartiles_interpolate_linearly():
    assert quartiles([float(v) for v in range(1, 11)]) == (3.25, 5.5, 7.75)


def test_summarize_applies_the_gain_rule():
    base = [float(v) for v in range(1, 11)]  # quartiles 3.25 / 5.5 / 7.75, IQR 4.5
    parent = runs(**{
        "a/recover_s": base,
        "b/recover_s": base,
        "c/recover_s": base,
        "a/modes_per_s": [10.0] * 10,
        "a/samples_per_recovery": [7.0] * 10,
    })
    change = runs(**{
        # every pair won, medians 5.0 apart: a gain
        "a/recover_s": [0.5] * 10,
        # every pair won, but medians only 1 apart, inside the parent's IQR
        "b/recover_s": [v - 1 for v in base],
        # 8 of 10 pairs won, medians 5.0 apart
        "c/recover_s": [0.5] * 8 + [11.0, 12.0],
        # higher is better: 9 of 10 won, parent IQR 0
        "a/modes_per_s": [11.0] * 9 + [9.0],
        # identical everywhere: ties, never a gain
        "a/samples_per_recovery": [7.0] * 10,
    })
    rows = {row["metric"]: row for row in summarize(parent, change, BETTER)}
    assert list(rows) == list(parent[0])
    got = {m: (r["wins"], r["ties"], r["gain"]) for m, r in rows.items()}
    assert got == {
        "a/recover_s": (10, 0, True),
        "b/recover_s": (10, 0, False),
        "c/recover_s": (8, 0, False),
        "a/modes_per_s": (9, 0, True),
        "a/samples_per_recovery": (0, 10, False),
    }
    assert rows["a/recover_s"]["parent"] == (3.25, 5.5, 7.75)
    assert rows["a/recover_s"]["change"] == (0.5, 0.5, 0.5)
    assert rows["a/recover_s"]["pairs"] == 10


def test_summarize_needs_a_direction_for_every_metric():
    with pytest.raises(KeyError):
        summarize(runs(**{"a/peak_rss_mb": [1.0, 2.0]}), runs(**{"a/peak_rss_mb": [1.0, 2.0]}), BETTER)
