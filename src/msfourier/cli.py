"""Benchmark command line: signal generation, recovery runs and parameter sweeps.

Exit codes: 0 success, 2 recovery did not converge, 1 usage or I/O error.

The recover summary line is ``l1_error exact_rate samples runtime_ms sample_ms``
with runtime_ms excluding time spent evaluating signal samples (reported
separately as sample_ms).
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass, fields, replace

import click
import numpy as np

from .recovery import RecoveryConfig, RecoveryResult, recover
from .spectrum import (
    ComparisonReport, SparseSpectrum, _cube_holds, _key64, _row_keys, compare,
    read_signal_file, write_signal_file,
)

__all__ = ["cmd_recover", "cmd_sweep", "cli", "main"]

CSV_COLUMNS = [
    "variable", "value", "trial", "seed",
    "l1_error", "exact_rate", "samples", "runtime_ms", "sample_ms", "p", "M",
]


def random_spectrum(N: int, d: int, s: int, seed: int) -> SparseSpectrum:
    """s modes with unit-circle coefficients and distinct uniform frequencies."""
    if not _cube_holds(N, d, s):
        raise ValueError(f"cannot place {s} distinct modes in a {N}^{d} cube")
    rng = np.random.Generator(np.random.Philox(key=_key64(seed)))
    coeffs = np.exp(2j * np.pi * rng.random(s))
    lo, hi = -(N // 2), (N + 1) // 2  # SparseSpectrum's entry range
    # Rows in draw order with repeats skipped. Each draw adds at most one
    # row, so drawing the missing rows as one block consumes the same draws
    # as drawing one row at a time until s rows are distinct.
    freqs = np.empty((0, d), dtype=np.int64)
    while len(freqs) < s:
        rows = np.concatenate([freqs, rng.integers(lo, hi, size=(s - len(freqs), d))])
        _, first = np.unique(_row_keys(rows), return_index=True)
        freqs = rows[np.sort(first)]
    return SparseSpectrum.from_arrays(freqs, coeffs, N, d)


@dataclass
class RecoverOutcome:
    result: RecoveryResult
    report: ComparisonReport
    runtime_ms: float
    sample_ms: float

    def summary_line(self) -> str:
        return (
            f"{self.report.l1_coeff_error!r} {self.report.exact_freq_rate!r} "
            f"{self.result.samples_used} {self.runtime_ms:.3f} {self.sample_ms:.3f}"
        )


def cmd_recover(truth: SparseSpectrum, config: RecoveryConfig, out=None) -> RecoverOutcome:
    """Run ``recover`` at ``config.s``, under the noise it builds from the
    config, on a parsed signal; optionally write the recovered modes."""
    t0 = time.perf_counter()
    result = recover(config, truth)
    elapsed = time.perf_counter() - t0
    if out is not None:
        write_signal_file(result.modes, out)
    report = compare(truth, result.modes)
    return RecoverOutcome(
        result=result,
        report=report,
        runtime_ms=(elapsed - result.sample_seconds) * 1e3,
        sample_ms=result.sample_seconds * 1e3,
    )


def _trial_seeds(master: int, value_idx: int, trial: int) -> tuple[int, int]:
    seq = np.random.SeedSequence(entropy=_key64(master), spawn_key=(value_idx, trial))
    return tuple(int(word) for word in seq.generate_state(2, dtype=np.uint64))


def cmd_sweep(variable: str, values: list, fixed: RecoveryConfig, trials: int,
              out_path) -> tuple[list[dict], bool]:
    """Sweep sigma or sparsity over ``values`` and write the CSV; returns (rows, all converged).

    Per (value, trial): a fresh random signal and noise stream from seeds
    derived deterministically off the fixed config's seed. One aggregate
    row (trial="mean") per value holds the trials' arithmetic means and the
    value's own p and M; runtime columns are wall-clock and not
    reproducible. p is the first outer iteration's sample length, and M the
    top level of that iteration's shift ladder, both from one
    ``cfg.schedule(cfg.s)`` call.
    """
    if variable not in ("sigma", "sparsity"):
        raise ValueError(f"unknown sweep variable {variable!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not values:
        raise ValueError("values must be nonempty")
    # Every value's config is built, and so checked, before any trial runs.
    name = "sigma" if variable == "sigma" else "s"
    configs = [replace(fixed, **{name: value}) for value in values]
    rows: list[dict] = []
    all_converged = True
    for vi, (value, cfg) in enumerate(zip(values, configs)):
        p, _, shifts = cfg.schedule(cfg.s)
        M = len(shifts) - 1
        trial_rows = []
        for trial in range(trials):
            signal_seed, noise_seed = _trial_seeds(cfg.seed, vi, trial)
            truth = random_spectrum(cfg.N, cfg.d, cfg.s, signal_seed)
            outcome = cmd_recover(truth, replace(cfg, seed=noise_seed))
            all_converged &= outcome.result.converged
            trial_rows.append(dict(zip(CSV_COLUMNS, [
                variable, value, trial, signal_seed,
                outcome.report.l1_coeff_error, outcome.report.exact_freq_rate,
                outcome.result.samples_used, outcome.runtime_ms, outcome.sample_ms,
                p, M,
            ], strict=True)))
        # The mean row labels the columns through seed, averages the trials'
        # results and repeats p and M, which no trial changes.
        mean = dict(zip(CSV_COLUMNS, [variable, value, "mean", ""]))
        for col in CSV_COLUMNS[len(mean):-2]:
            mean[col] = sum(r[col] for r in trial_rows) / len(trial_rows)
        rows += trial_rows + [dict(mean, p=p, M=M)]
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows({k: repr(float(v)) if isinstance(v, float) else v for k, v in r.items()}
                         for r in rows)
    return rows, all_converged


def _config_options(fn):
    # Each option passes through as the RecoveryConfig field it names, with
    # that field's default.
    default = {f.name: f.default for f in fields(RecoveryConfig)}
    opts = [
        click.option("--sigma", type=float, default=default["sigma"], show_default=True,
                     help="noise standard deviation"),
        click.option("--seed", type=int, default=default["seed"], show_default=True),
        click.option("--a-min", "a_min", type=float, default=default["a_min"],
                     show_default=True,
                     help="smallest coefficient magnitude to recover; sets p and the shift growth"),
        click.option("--beta", type=float, default=default["beta"], show_default=True,
                     help="least shift growth factor; p's SNR may admit more, up to 2^24"),
        click.option("--c1", type=float, default=default["c1"], show_default=True,
                     help="sample-length multiple of sparsity"),
        click.option("--c-sigma", type=float, default=default["c_sigma"], show_default=True,
                     help="noise-threshold constant"),
        click.option("--eta", type=float, default=default["eta"], show_default=True,
                     help="tolerated fraction of failed collision tests"),
        click.option("--max-outer", "max_outer_iterations", type=int,
                     default=default["max_outer_iterations"],
                     help="outer iteration cap (default 10*d')"),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Multiscale sparse Fourier recovery benchmark."""


@cli.command("generate")
@click.option("--n", "N", type=int, required=True, help="bandwidth N (even)")
@click.option("--d", type=int, required=True, help="full dimension")
@click.option("--sparsity", "s", type=int, required=True, help="number of modes")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def generate_command(N, d, s, seed, out):
    """Generate a random test signal."""
    try:
        write_signal_file(random_spectrum(N, d, s, seed), out)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote {s} modes to {out}")


@cli.command("recover")
@click.argument("signal", type=click.Path(exists=True, dir_okay=False))
@click.option("--d1", type=int, default=1, show_default=True, help="unwrap block size")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write recovered modes here")
@_config_options
def recover_command(signal, d1, out, **options):
    """Recover a signal file's modes; prints

    l1_error exact_rate samples runtime_ms sample_ms
    """
    try:
        truth = read_signal_file(signal)
        config = RecoveryConfig(N=truth.bandwidth, d=truth.dim, d1=d1, s=len(truth), **options)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    outcome = cmd_recover(truth, config, out=out)
    click.echo(outcome.summary_line())
    if not outcome.result.converged:
        click.echo("warning: recovery did not converge", err=True)
        raise click.exceptions.Exit(2)


@cli.command("sweep")
@click.option("--variable", type=click.Choice(["sigma", "sparsity"]), required=True)
@click.option("--values", required=True,
              help="comma-separated sweep values, e.g. 0.001,0.002,0.004")
@click.option("--n", "N", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--d1", type=int, default=1, show_default=True)
@click.option("--sparsity", "s", type=int, default=None,
              help="fixed sparsity; sigma sweeps only, where it is required")
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_config_options
def sweep_command(variable, values, N, d, d1, s, trials, out, **options):
    """Sweep sigma or sparsity and write per-trial + mean rows to a CSV."""
    try:
        parsed = [float(v) if variable == "sigma" else int(v) for v in values.split(",")]
    except ValueError as exc:
        raise click.UsageError(f"bad --values: {exc}")
    if variable == "sparsity":
        if s is not None:
            raise click.UsageError("--sparsity is refused for sparsity sweeps; --values sets it")
        s = parsed[0]
    elif s is None:
        raise click.UsageError("--sparsity is required for sigma sweeps")
    try:
        fixed = RecoveryConfig(N=N, d=d, d1=d1, s=s, **options)
        _, converged = cmd_sweep(variable, parsed, fixed, trials, out)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote {out}")
    if not converged:
        click.echo("warning: some trials did not converge", err=True)
        raise click.exceptions.Exit(2)


def main(argv=None):
    """Console entry point with the documented exit-code mapping."""
    try:
        # Non-standalone mode returns the code of an explicit ctx.exit/Exit.
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:  # includes UsageError
        exc.show()
        sys.exit(1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(rv if isinstance(rv, int) else 0)


if __name__ == "__main__":
    main()
