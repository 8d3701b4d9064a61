import csv
import os
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from reference import random_spectrum_per_row

import msfourier
from msfourier import RecoveryConfig, read_signal_file, recover, write_signal_file
from msfourier.cli import _trial_seeds, cli, cmd_recover, cmd_sweep, random_spectrum
from msfourier.estimator import _ladder
from msfourier.sampler import NoiseModel

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
    write_signal_file(random_spectrum(8, 2, 4, seed=3), a)
    write_signal_file(random_spectrum(8, 2, 4, seed=3), b)
    assert a.read_bytes() == b.read_bytes()
    write_signal_file(random_spectrum(8, 2, 4, seed=4), b)
    assert a.read_bytes() != b.read_bytes()


def test_generate_unit_circle_and_distinct(tmp_path):
    path = tmp_path / "sig.txt"
    spec = random_spectrum(20, 6, 32, seed=0)
    write_signal_file(spec, path)
    for mode in spec.modes:
        assert abs(abs(mode.coeff) - 1.0) <= 1e-12
    freqs = [m.freq for m in spec.modes]
    assert len(freqs) == len(set(freqs))
    assert read_signal_file(path) == spec


def test_generate_overfull_cube(tmp_path):
    with pytest.raises(ValueError):
        write_signal_file(random_spectrum(2, 2, 5, seed=0), tmp_path / "x.txt")


@pytest.mark.parametrize("N,d", [(2, 1), (2, 5), (4, 3), (5, 2), (7, 3), (8, 2), (20, 1), (20, 7)])
@pytest.mark.parametrize("seed", [-5, 0, 2**64 - 1, 2**70])
def test_random_spectrum_matches_per_row_draws(N, d, seed):
    # block draws keep the one-row-at-a-time draw order, repeats included:
    # full cubes and near-full ones repeat rows often
    for s in sorted({0, 1, N**d // 2, N**d - 1, N**d} & set(range(200))):
        assert random_spectrum(N, d, s, seed) == random_spectrum_per_row(N, d, s, seed)


def test_random_spectrum_cube_bound_in_python_ints():
    # np.int64(20) ** 20 wraps; the bound is computed exactly
    assert len(random_spectrum(np.int64(20), 20, 5, 0)) == 5
    with pytest.raises(ValueError, match="cannot place 65 distinct modes"):
        random_spectrum(np.int64(8), np.int64(2), 65, 0)


@pytest.mark.parametrize("seed", [3, -3])
def test_numpy_seeds_match_python_ints(seed):
    assert random_spectrum(8, 2, 2, np.int64(seed)) == random_spectrum(8, 2, 2, seed)
    assert _trial_seeds(np.int64(seed), 1, 2) == _trial_seeds(seed, 1, 2)


def test_recover_noiseless_single_mode(tmp_path):
    sig = tmp_path / "sig.txt"
    out = tmp_path / "rec.txt"
    write_signal_file(random_spectrum(20, 4, 1, seed=9), sig)
    config = RecoveryConfig(N=20, d=4, d1=2, s=1)
    outcome = cmd_recover(read_signal_file(sig), config, out=out)
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
    write_signal_file(random_spectrum(20, 13, 8, seed=501), wide)
    proc = run_cli("recover", str(wide), "--d1", "13")
    assert proc.returncode == 1 and "exceeds 2^53" in proc.stderr

    # an outer-iteration cap below 1 is refused, not read as the default
    proc = run_cli("recover", str(sig), "--d1", "1", "--max-outer", "0")
    assert proc.returncode == 1 and "max_outer_iterations" in proc.stderr

    # a noise level that is not a finite number is refused up front
    proc = run_cli("recover", str(sig), "--d1", "1", "--sigma", "nan")
    assert proc.returncode == 1 and "sigma must be finite" in proc.stderr


def test_recover_refuses_runaway_sample_length(tmp_path):
    # beta=1000 at sigma=0.512 would need sample vectors of ~9.6e11 points
    sig = tmp_path / "sig.txt"
    write_signal_file(random_spectrum(8, 2, 2, seed=1), sig)
    proc = run_cli("recover", str(sig), "--d1", "1", "--sigma", "0.512", "--beta", "1000")
    assert proc.returncode == 1 and "sample length" in proc.stderr


def test_cli_input_errors_are_one_line(tmp_path):
    # a malformed signal file and a sweep value the schedule refuses each
    # give a one-line error and exit code 1, not a traceback
    short = tmp_path / "short.txt"
    short.write_text("8 2 1\n1.0 0.0 1\n")
    proc = run_cli("recover", str(short), "--d1", "1")
    assert proc.returncode == 1
    assert "expected 4 fields" in proc.stderr and "Traceback" not in proc.stderr
    proc = run_cli(
        "sweep", "--variable", "sigma", "--values", "10000", "--n", "8", "--d", "2",
        "--sparsity", "2", "--trials", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert proc.returncode == 1
    assert "sample length" in proc.stderr and "Traceback" not in proc.stderr


def sweep_spec(tmp_path, name="sweep.csv"):
    fixed = RecoveryConfig(N=8, d=2, d1=1, s=2, seed=5)
    return dict(
        variable="sigma",
        values=[0.001, 0.002],
        fixed=fixed,
        trials=3,
        out_path=str(tmp_path / name),
    )


def test_sweep_structure_and_aggregates(tmp_path):
    spec = sweep_spec(tmp_path)
    rows, converged = cmd_sweep(**spec)
    assert converged
    assert len(rows) == 2 * (3 + 1)  # values x (trials + mean)
    for value in spec["values"]:
        trials = [r for r in rows if r["value"] == value and r["trial"] != "mean"]
        mean = next(r for r in rows if r["value"] == value and r["trial"] == "mean")
        for col in ("l1_error", "exact_rate", "samples"):
            assert mean[col] == pytest.approx(
                sum(t[col] for t in trials) / len(trials), abs=1e-12
            )
    with open(spec["out_path"]) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    assert list(parsed[0].keys()) == [
        "variable", "value", "trial", "seed",
        "l1_error", "exact_rate", "samples", "runtime_ms", "sample_ms", "p", "M",
    ]
    # a mean row's p and M are its value's, integers as in its trial rows
    for value in map(repr, spec["values"]):
        trials = [r for r in parsed if r["value"] == value and r["trial"] != "mean"]
        mean = next(r for r in parsed if r["value"] == value and r["trial"] == "mean")
        assert len(trials) == 3
        for col in ("p", "M"):
            assert {int(t[col]) for t in trials} == {int(mean[col])}


def test_sweep_bit_reproducible(tmp_path):
    runtime_cols = {"runtime_ms", "sample_ms"}

    def stripped(path):
        with open(path) as fh:
            return [
                {k: v for k, v in row.items() if k not in runtime_cols}
                for row in csv.DictReader(fh)
            ]

    cmd_sweep(**sweep_spec(tmp_path, "a.csv"))
    cmd_sweep(**sweep_spec(tmp_path, "b.csv"))
    assert stripped(tmp_path / "a.csv") == stripped(tmp_path / "b.csv")
    # a numpy integer seed in the fixed config sweeps as the Python int does
    spec = sweep_spec(tmp_path, "c.csv")
    cmd_sweep(**dict(spec, fixed=replace(spec["fixed"], seed=np.int64(5))))
    assert stripped(tmp_path / "c.csv") == stripped(tmp_path / "a.csv")


def test_sweep_ten_value_noise_ladder(tmp_path):
    # the standard noise ladder 0.001..0.512 (x2): one mean row per value
    values = [0.001 * 2**k for k in range(10)]
    fixed = RecoveryConfig(N=8, d=4, d1=1, s=2, seed=20)
    rows, converged = cmd_sweep(
        variable="sigma",
        values=values,
        fixed=fixed,
        trials=2,
        out_path=str(tmp_path / "ladder.csv"),
    )
    assert converged
    assert len(rows) == 10 * (2 + 1)
    assert values[-1] == pytest.approx(0.512)
    assert [r["value"] for r in rows if r["trial"] == "mean"] == values


def test_sweep_noiseless_errors_vanish(tmp_path):
    fixed = RecoveryConfig(N=8, d=2, d1=1, s=2, seed=12)
    rows, converged = cmd_sweep(
        variable="sparsity",
        values=[1, 2],
        fixed=fixed,
        trials=2,
        out_path=str(tmp_path / "s.csv"),
    )
    assert converged
    assert all(r["l1_error"] <= 1e-9 for r in rows)


def test_sweep_trial_is_cmd_recover(tmp_path):
    # a sweep trial's row is cmd_recover's outcome on the same signal and
    # noise seed, with the first outer iteration's p and its ladder's top
    # level M: at these sigmas p admits one level of the three that growth
    # beta climbs
    spec = sweep_spec(tmp_path)
    rows, _ = cmd_sweep(**spec)
    for vi, value in enumerate(spec["values"]):
        value_cfg = RecoveryConfig(N=8, d=2, d1=1, s=2, sigma=value)
        p, _, shifts = value_cfg.schedule(2)
        M = len(shifts) - 1
        assert (M, len(_ladder(9, 0, value, 1.0, 6.0, 2.5)) - 1) == (1, 3)
        for trial in range(spec["trials"]):
            signal_seed, noise_seed = _trial_seeds(5, vi, trial)
            truth = random_spectrum(8, 2, 2, signal_seed)
            cfg = RecoveryConfig(N=8, d=2, d1=1, s=2, sigma=value, seed=noise_seed)
            outcome = cmd_recover(truth, cfg)
            row = next(r for r in rows if r["value"] == value and r["trial"] == trial)
            assert row["seed"] == signal_seed
            assert row["l1_error"] == outcome.report.l1_coeff_error
            assert row["exact_rate"] == outcome.report.exact_freq_rate
            assert row["samples"] == outcome.result.samples_used
            assert (row["p"], row["M"]) == (p, M)


def test_cli_sets_every_shared_option(tmp_path):
    # each shared option reaches RecoveryConfig under its field name; a
    # renamed parameter would fail only when the command runs
    shared = ["--sigma", "0.001", "--seed", "3", "--a-min", "0.5", "--beta", "3.0",
              "--c1", "3.0", "--c-sigma", "5.0", "--eta", "0.3", "--max-outer", "40",
              "--noise-kind", "real-only"]
    sig = tmp_path / "sig.txt"
    write_signal_file(random_spectrum(8, 2, 2, seed=1), sig)
    proc = run_cli("recover", str(sig), "--d1", "1", *shared)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("sweep", "--variable", "sparsity", "--values", "1,2", "--n", "8",
                   "--d", "2", "--trials", "2", "--out", str(tmp_path / "s.csv"), *shared)
    assert proc.returncode == 0, proc.stderr


def test_cli_a_min_is_the_config_field(tmp_path):
    # --a-min reaches RecoveryConfig.a_min: at sigma 0.5 a weaker stated
    # mode needs a longer p, and the CLI draws what the library draws at that
    # a_min; a value the schedule refuses gives one line and exit code 1
    truth = random_spectrum(8, 2, 2, seed=1)
    sig = tmp_path / "sig.txt"
    write_signal_file(truth, sig)
    proc = run_cli("recover", str(sig), "--d1", "1", "--sigma", "0.5", "--a-min", "0.5")
    drawn = int(proc.stdout.split()[2])
    cfg = RecoveryConfig(N=8, d=2, d1=1, s=2, sigma=0.5, a_min=0.5)
    assert drawn == cmd_recover(truth, cfg).result.samples_used
    assert drawn != cmd_recover(truth, replace(cfg, a_min=1.0)).result.samples_used
    sweep = ["sweep", "--variable", "sparsity", "--values", "1,2", "--n", "8", "--d", "2",
             "--trials", "1", "--out", str(tmp_path / "s.csv")]
    for bad in ("0", "-1", "nan", "inf"):
        for args in (["recover", str(sig), "--d1", "1"], sweep):
            proc = run_cli(*args, "--a-min", bad)
            assert proc.returncode == 1, (args[0], bad)
            assert proc.stderr.count("\n") == 1 and "a_min must be finite" in proc.stderr
    assert not (tmp_path / "s.csv").exists()

@pytest.mark.parametrize(
    "values,message",
    [([2, 2.7], "s must be an integer"), ([2, 100], "8\\^2 frequency cube")],
    ids=["non_integer", "past_cube"],
)
def test_sweep_refuses_bad_sparsity_before_any_trial(tmp_path, monkeypatch, values, message):
    # 2.7 used to run at s=2 while its CSV rows said 2.7; 100 modes cannot
    # fit the 8^2 cube, and used to fail only after value 2's trials had run
    trials = []
    monkeypatch.setattr(msfourier.cli, "cmd_recover", lambda *args: trials.append(args))
    with pytest.raises(ValueError, match=message):
        cmd_sweep(variable="sparsity", values=values, trials=1,
                  fixed=RecoveryConfig(N=8, d=2, d1=1, s=2), out_path=str(tmp_path / "s.csv"))
    assert trials == [] and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["recover", "sweep"])
def test_shared_option_defaults_are_the_field_defaults(command):
    defaults = {f.name: f.default for f in fields(RecoveryConfig) if f.default is not MISSING}
    defaults["noise_kind"] = next(f.default for f in fields(NoiseModel) if f.name == "kind")
    shared = [p for p in cli.commands[command].params if p.name in defaults]
    assert sorted(p.name for p in shared) == [
        "a_min", "beta", "c1", "c_sigma", "eta", "max_outer_iterations", "noise_kind", "seed",
        "sigma",
    ]
    for param in shared:
        assert param.default == defaults[param.name], param.name


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


def test_sweep_refusals(tmp_path):
    good = sweep_spec(tmp_path)
    for bad, message in [
        ({"variable": "beta"}, "unknown sweep variable"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"values": []}, "values must be nonempty"),
    ]:
        with pytest.raises(ValueError, match=message):
            cmd_sweep(**{**good, **bad})
    assert not (tmp_path / "sweep.csv").exists()


def test_sigma_sweep_includes_noiseless(tmp_path):
    spec = {**sweep_spec(tmp_path), "values": [0, 0.1], "trials": 1}
    rows, converged = cmd_sweep(**spec)
    assert converged
    assert [r["value"] for r in rows if r["trial"] == "mean"] == [0, 0.1]


def test_sweep_sparsity_option_rules(tmp_path):
    out = str(tmp_path / "x.csv")
    # a sigma sweep passes --sparsity to the schedule, which refuses 0
    proc = run_cli("sweep", "--variable", "sigma", "--values", "0.001", "--n", "8",
                   "--d", "2", "--sparsity", "0", "--trials", "1", "--out", out)
    assert proc.returncode == 1 and "sparsity budget" in proc.stderr
    # a sparsity sweep takes its sparsities from --values alone
    proc = run_cli("sweep", "--variable", "sparsity", "--values", "1,2", "--n", "8",
                   "--d", "2", "--sparsity", "5", "--trials", "1", "--out", out)
    assert proc.returncode == 1 and "--sparsity" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_recover_runs_at_config_sparsity():
    # the signal's own mode count is not handed to recover
    truth = random_spectrum(20, 4, 6, seed=0)
    cfg = RecoveryConfig(N=20, d=4, d1=2, s=3, seed=1)
    outcome = cmd_recover(truth, cfg)
    direct = recover(cfg, truth, NoiseModel(sigma=0.0, seed=1))
    assert outcome.result.modes == direct.modes
    assert outcome.result.samples_used == direct.samples_used
    assert len(outcome.result.modes) == 3 and outcome.report.spurious == 0
