import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msfourier
from msfourier import RecoveryConfig, read_signal_file
from msfourier.cli import SweepSpec, cmd_generate, cmd_recover, cmd_sweep

STUCK_PAIR = "8 2 2\n1.0 0.0 1 -4\n1.0 0.0 1 1\n"


def run_cli(*args):
    """Run ``python -m msfourier.cli`` in a child process.

    The child inherits this process's environment, with the directory that
    ``msfourier`` was imported from put first on PYTHONPATH, so it runs the
    same copy of the package whether or not it is installed.
    """
    package_root = str(Path(msfourier.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "msfourier.cli", *args], capture_output=True, text=True, env=env
    )


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    cmd_generate(8, 2, 1, 4, seed=3, out=a)
    cmd_generate(8, 2, 1, 4, seed=3, out=b)
    assert a.read_bytes() == b.read_bytes()
    cmd_generate(8, 2, 1, 4, seed=4, out=b)
    assert a.read_bytes() != b.read_bytes()


def test_generate_unit_circle_and_distinct(tmp_path):
    path = tmp_path / "sig.txt"
    spec = cmd_generate(20, 6, 2, 32, seed=0, out=path)
    for mode in spec.modes:
        assert abs(abs(mode.coeff) - 1.0) <= 1e-12
    freqs = [m.freq for m in spec.modes]
    assert len(freqs) == len(set(freqs))
    assert read_signal_file(path) == spec


def test_generate_overfull_cube(tmp_path):
    with pytest.raises(ValueError):
        cmd_generate(2, 2, 1, 5, seed=0, out=tmp_path / "x.txt")


def test_recover_noiseless_single_mode(tmp_path):
    sig = tmp_path / "sig.txt"
    out = tmp_path / "rec.txt"
    cmd_generate(20, 4, 2, 1, seed=9, out=sig)
    config = RecoveryConfig(N=20, d=4, d1=2, s=1)
    outcome = cmd_recover(sig, config, out=out)
    assert outcome.result.converged
    assert outcome.report.exact_freq_rate == 1.0
    assert outcome.report.l1_coeff_error <= 1e-9
    assert outcome.result.samples_used > 0
    recovered = read_signal_file(out)
    assert {m.freq for m in recovered.modes} == {
        m.freq for m in read_signal_file(sig).modes
    }
    parts = outcome.summary_line().split()
    assert len(parts) == 5  # l1 exact_rate samples runtime_ms sample_ms


def test_cli_exit_codes(tmp_path):
    sig = tmp_path / "sig.txt"
    proc = run_cli("generate", "--n", "8", "--d", "2", "--sparsity", "2", "--seed", "1",
                   "--out", str(sig))
    assert proc.returncode == 0

    proc = run_cli("recover", str(sig), "--d1", "1")
    assert proc.returncode == 0
    l1, rate, samples, runtime_ms, sample_ms = proc.stdout.split()
    assert float(rate) == 1.0 and float(l1) <= 1e-9

    # non-convergence: pair colliding on every axis at p=5
    stuck = tmp_path / "stuck.txt"
    stuck.write_text(STUCK_PAIR)
    proc = run_cli("recover", str(stuck), "--d1", "1")
    assert proc.returncode == 2

    proc = run_cli("recover", str(tmp_path / "missing.txt"), "--d1", "1")
    assert proc.returncode == 1

    proc = run_cli("generate", "--n", "2", "--d", "2", "--sparsity", "99", "--seed", "0",
                   "--out", str(tmp_path / "y.txt"))
    assert proc.returncode == 1

    proc = run_cli("recover")  # missing argument
    assert proc.returncode == 1

    # effective bandwidth above 2^53: refused before any sample is drawn
    wide = tmp_path / "wide.txt"
    cmd_generate(20, 13, 13, 8, seed=501, out=wide)
    proc = run_cli("recover", str(wide), "--d1", "13")
    assert proc.returncode == 1 and "exceeds 2^53" in proc.stderr

    # an outer-iteration cap below 1 is refused, not read as the default
    proc = run_cli("recover", str(sig), "--d1", "1", "--max-outer", "0")
    assert proc.returncode == 1 and "max_outer_iterations" in proc.stderr


def sweep_spec(tmp_path, name="sweep.csv"):
    fixed = RecoveryConfig(N=8, d=2, d1=1, s=2, seed=5)
    return SweepSpec(
        variable="sigma",
        values=[0.001, 0.002],
        fixed=fixed,
        trials=3,
        out_path=str(tmp_path / name),
    )


def test_sweep_structure_and_aggregates(tmp_path):
    spec = sweep_spec(tmp_path)
    rows, converged = cmd_sweep(spec)
    assert converged
    assert len(rows) == 2 * (3 + 1)  # values x (trials + mean)
    for value in spec.values:
        trials = [r for r in rows if r["value"] == value and r["trial"] != "mean"]
        mean = next(r for r in rows if r["value"] == value and r["trial"] == "mean")
        for col in ("l1_error", "exact_rate", "samples"):
            assert mean[col] == pytest.approx(
                sum(t[col] for t in trials) / len(trials), abs=1e-12
            )
    with open(spec.out_path) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    assert list(parsed[0].keys()) == [
        "variable", "value", "trial", "seed",
        "l1_error", "exact_rate", "samples", "runtime_ms", "sample_ms", "p", "M",
    ]


def test_sweep_bit_reproducible(tmp_path):
    runtime_cols = {"runtime_ms", "sample_ms"}

    def stripped(path):
        with open(path) as fh:
            return [
                {k: v for k, v in row.items() if k not in runtime_cols}
                for row in csv.DictReader(fh)
            ]

    cmd_sweep(sweep_spec(tmp_path, "a.csv"))
    cmd_sweep(sweep_spec(tmp_path, "b.csv"))
    assert stripped(tmp_path / "a.csv") == stripped(tmp_path / "b.csv")


def test_sweep_ten_value_noise_ladder(tmp_path):
    # the standard noise ladder 0.001..0.512 (x2): one mean row per value
    values = [0.001 * 2**k for k in range(10)]
    fixed = RecoveryConfig(N=8, d=4, d1=1, s=2, seed=20)
    spec = SweepSpec(
        variable="sigma",
        values=values,
        fixed=fixed,
        trials=2,
        out_path=str(tmp_path / "ladder.csv"),
    )
    rows, converged = cmd_sweep(spec)
    assert converged
    assert len(rows) == 10 * (2 + 1)
    assert values[-1] == pytest.approx(0.512)
    assert [r["value"] for r in rows if r["trial"] == "mean"] == values


def test_sweep_noiseless_errors_vanish(tmp_path):
    fixed = RecoveryConfig(N=8, d=2, d1=1, s=2, seed=12)
    spec = SweepSpec(
        variable="sparsity",
        values=[1, 2],
        fixed=fixed,
        trials=2,
        out_path=str(tmp_path / "s.csv"),
    )
    rows, converged = cmd_sweep(spec)
    assert converged
    assert all(r["l1_error"] <= 1e-9 for r in rows)


def test_sweep_cli_and_validation(tmp_path):
    out = tmp_path / "cli.csv"
    proc = run_cli(
        "sweep", "--variable", "sigma", "--values", "0.001,0.002", "--n", "8", "--d", "2",
        "--d1", "1", "--sparsity", "2", "--trials", "2", "--out", str(out),
    )
    assert proc.returncode == 0 and out.exists()
    proc = run_cli("sweep", "--variable", "sigma", "--values", "0.001", "--n", "8",
                   "--d", "2", "--out", str(out))
    assert proc.returncode == 1  # --sparsity required for sigma sweeps
