"""``tests/bench_record.py`` writes a complete record: its keys, not its times."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bench_record


def test_bench_record_writes_every_key(tmp_path, monkeypatch):
    # two of the cells, the quickest large-d one and a tiny-dense one: a
    # cell's keys do not depend on its size, and the large-s cells take
    # seconds each (CI's Memory yardstick runs s=4096)
    cells = {name: bench_record.CELLS[name] for name in ("large_d_500", "tiny_dense_d1_2")}
    monkeypatch.setattr(bench_record, "CELLS", cells)
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
    assert set(rec["cells"]) == set(cells)
    for name, cell in rec["cells"].items():
        assert set(cell) == {
            "N", "d", "d1", "s", "sigma", "runs", "median_s", "samples_used",
            "samples_per_sd", "exact_rate", "peak_rss_mb", "peak_traced_mb",
        }
        shape = (cell["N"], cell["d"], cell["d1"], cell["s"], cell["sigma"])
        assert shape == bench_record.CELLS[name]
        assert cell["runs"] == 1 and len(cell["samples_used"]) == 1
        assert cell["samples_used"][0] > 0 and 0 <= cell["exact_rate"] <= 1
        assert 0 < cell["peak_traced_mb"] < cell["peak_rss_mb"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_one_blas_thread_only_when_run_as_a_script():
    # run as a script, as a cell runs, the file pins one BLAS thread before
    # numpy is imported; a process that imports it keeps its own settings
    script = Path(bench_record.__file__)
    probe = (
        "import os, runpy, sys\n"
        f"sys.path.insert(0, {str(script.parent)!r})\n"
        "import bench_record\n"
        f"print([os.environ.get(v) for v in {BLAS_VARS!r}])\n"
        "sys.argv = ['bench_record.py']\n"
        "try:\n"
        f"    runpy.run_path({str(script)!r}, run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print([os.environ.get(v) for v in {BLAS_VARS!r}])\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    imported, as_script = done.stdout.splitlines()
    assert imported == str([None] * 3)
    assert as_script == str(["1"] * 3)
