"""``tests/bench_record.py`` writes a complete record: its keys, not its times."""

import json

import bench_record


def test_bench_record_writes_every_key(tmp_path):
    out = tmp_path / "BENCH_0.json"
    args = ["--pr", "0", "--out", str(out), "--seconds", "0", "--seeds", "1"]
    assert bench_record.main(args) == 0
    rec = json.loads(out.read_text())
    assert set(rec) == {
        "pr", "rev", "dirty", "python", "numpy", "nproc", "host", "seeds", "seconds",
        "perfbench", "cells",
    }
    assert rec["pr"] == 0 and rec["seeds"] == [1] and rec["nproc"] >= 1
    # perfbench's JSON lines, verbatim: the traced one adds the per-layer rows
    for trace in ("trace0", "trace1"):
        assert rec["perfbench"][trace]["correct"] is True
        assert {"correct", "attempted", "failed", "metrics"} <= set(rec["perfbench"][trace])
    assert "wide_d/recover_s" in rec["perfbench"]["trace0"]["metrics"]
    assert "wide_d/sampler.noise_draws" in rec["perfbench"]["trace1"]["metrics"]
    assert set(rec["cells"]) == set(bench_record.CELLS)
    for name, cell in rec["cells"].items():
        assert set(cell) == {
            "N", "d", "d1", "s", "sigma", "runs", "median_s", "samples_used",
            "samples_per_sd", "exact_rate", "peak_rss_mb",
        }
        shape = (cell["N"], cell["d"], cell["d1"], cell["s"], cell["sigma"])
        assert shape == bench_record.CELLS[name]
        assert cell["runs"] == 1 and len(cell["samples_used"]) == 1
        assert cell["samples_used"][0] > 0 and 0 <= cell["exact_rate"] <= 1
