"""Recovery benchmark for msfourier.

Runs ``msfourier.recover`` on one seeded workload for a fixed time, checks
every result, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
is a separate traced run that reports the per-layer metrics. The package is
imported from ``src/`` of the checkout this file sits in; README.md beside
this file describes the workloads and metrics.
"""

import os

# One BLAS thread: the figures must not depend on how many cores a shared
# machine lends the process. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_recovery, first_sample_length, self_test  # noqa: E402
from layers import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

N, D1 = 20, 5


@dataclass(frozen=True)
class Workload:
    tag: int  # mixed into every instance seed, so workloads never share inputs
    d: int
    s: int
    sigma: float
    fixed: int  # instances that are the same in every run
    seeded: int  # instances drawn from --seed

    def instance_keys(self, seed: int) -> list[list[int]]:
        """Generator keys of one round's instances, fixed ones first."""
        return ([[self.tag, 0, j] for j in range(self.fixed)]
                + [[self.tag, 1, seed, j] for j in range(self.seeded)])


# The paper's headline size; the widest d with the most (short) sample
# vectors; and the largest s and p with the noise layer bypassed. Recover
# time varies from instance to instance (wide_d needs 2 to 4 outer
# iterations), and a run holds only a few recoveries, so fixed instances
# keep runs comparable while seeded ones vary the inputs with --seed.
WORKLOADS = {
    "headline": Workload(tag=1, d=100, s=256, sigma=0.512, fixed=2, seeded=2),
    "wide_d": Workload(tag=2, d=1000, s=64, sigma=0.512, fixed=4, seeded=2),
    "many_modes": Workload(tag=3, d=20, s=1024, sigma=0.0, fixed=0, seeded=1),
}

# Set-up (import + building the instances) is repeated and the fastest kept:
# the work is the same each time, and noise can only add to it.
SETUP_REPEATS = 20


@dataclass(frozen=True)
class Instance:
    key: list
    truth: object  # msfourier.SparseSpectrum
    truth_modes: dict
    config: object  # msfourier.RecoveryConfig
    noise: object  # msfourier.NoiseModel
    p_first: int


def make_instance(mf, wl: Workload, key: list) -> Instance:
    """Unit-circle coefficients, distinct uniform frequencies in [-N/2, N/2)^d
    and a noise seed, all from one generator seeded with ``key``."""
    rng = np.random.default_rng(key)
    coeffs = np.exp(2j * np.pi * rng.random(wl.s))
    freqs, seen = [], set()
    while len(freqs) < wl.s:
        for row in rng.integers(-N // 2, N // 2, size=(wl.s - len(freqs), wl.d)).tolist():
            w = tuple(row)
            if w not in seen:
                seen.add(w)
                freqs.append(w)
    noise_seed = int(rng.integers(2**63))
    modes = tuple(mf.FourierMode(freq=w, coeff=a) for w, a in zip(freqs, coeffs))
    config = mf.RecoveryConfig(N=N, d=wl.d, d1=D1, s=wl.s, sigma=wl.sigma, seed=noise_seed)
    return Instance(
        key=key,
        truth=mf.SparseSpectrum(modes=modes, bandwidth=N, dim=wl.d),
        truth_modes=dict(zip(freqs, (complex(a) for a in coeffs))),
        config=config,
        noise=mf.NoiseModel(sigma=wl.sigma, seed=noise_seed),
        p_first=first_sample_length(
            wl.s, wl.sigma, config.a_min, config.c1, config.c_sigma, config.beta
        ),
    )


def set_up(wl: Workload, seed: int):
    """Import msfourier afresh and build the instances; return (seconds, module, instances)."""
    for name in [m for m in sys.modules if m == "msfourier" or m.startswith("msfourier.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    mf = importlib.import_module("msfourier")
    instances = [make_instance(mf, wl, key) for key in wl.instance_keys(seed)]
    return time.perf_counter() - t0, mf, instances


def problems_of(inst: Instance, result) -> list[str]:
    found = {m.freq: m.coeff for m in result.modes.modes}
    return check_recovery(
        inst.truth_modes, found, result.converged, inst.config.sigma, inst.p_first,
        inst.config.c_sigma,
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, mf, instances = set_up(wl, seed)
        setups.append(elapsed)
    if Path(mf.__file__).resolve().parent != SRC / "msfourier":
        raise RuntimeError(f"imported msfourier from {mf.__file__}, not from {SRC}")

    tracer = None
    if trace:
        # A traced round is one untraced and one traced recovery of the
        # first instance; the difference is the tracing overhead.
        tracer = Tracer({name: getattr(mf, name, None) for name in ("recovery", "sampler")})
        instances = instances[:1]
    records, summaries = [], []
    start = time.perf_counter()
    rounds = 0
    # Whole rounds only: every run recovers each instance equally often.
    while rounds == 0 or time.perf_counter() - start < seconds:
        for inst in instances:
            t0 = time.perf_counter()
            result = mf.recover(inst.config, inst.truth, inst.noise)
            t = time.perf_counter() - t0
            rec = {"instance": inst.key, "round": rounds, "traced": False, "seconds": t,
                   "samples": result.samples_used, "outer": result.outer_iterations,
                   "modes": len(result.modes), "problems": problems_of(inst, result)}
            records.append(rec)
            if tracer:
                trec, summary = traced_record(tracer, mf, inst, rec, result, len(summaries))
                records.append(trec)
                summaries.append(summary)
        rounds += 1

    plain = [r for r in records if not r["traced"]]
    failed = sum(bool(r["problems"]) for r in records)
    if trace:
        traced = [r for r in records if r["traced"]]
        metrics = layer_metrics(summaries, tracer.absent)
        metrics["recovery.outer_iterations"] = (statistics.fmean(r["outer"] for r in traced), "count")
        metrics["recovery.traced_s"] = (statistics.fmean(r["seconds"] for r in traced), "s")
        metrics["trace_overhead_s"] = (
            statistics.fmean(r["seconds"] - r["untraced_seconds"] for r in traced), "s"
        )
    else:
        metrics = {
            "setup_s": (min(setups), "s"),
            "recover_s": (statistics.median(r["seconds"] for r in plain), "s"),
            "modes_per_s": (
                sum(r["modes"] for r in plain) / sum(r["seconds"] for r in plain), "modes/s"
            ),
            "samples_per_recovery": (statistics.fmean(r["samples"] for r in plain), "samples"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    OUT.mkdir(exist_ok=True)
    if tracer:
        tracer.write_spans(OUT / f"{workload}.spans.jsonl")
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "setup_seconds": setups, "numpy": np.__version__,
        "kernel_backend": getattr(mf, "kernel_backend", None),
        "absent_layers": sorted(tracer.absent) if tracer else [],
        "recoveries": records,
    }
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    for r in records:
        if r["problems"]:
            print(f"{workload} seed {seed} instance {r['instance']}"
                  f"{' (traced)' if r['traced'] else ''} failed: {'; '.join(r['problems'])}",
                  file=sys.stderr)
    if tracer and tracer.absent:
        print(f"absent layers: {', '.join(sorted(tracer.absent))}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_record(tracer: Tracer, mf, inst: Instance, plain: dict, plain_result, trace_id: int):
    """Recover ``inst`` again with every layer wrapped and check the trace;
    return the record and the per-layer summary."""
    with tracer.patched():
        result, t = tracer.run(trace_id, mf.recover, inst.config, inst.truth, inst.noise)
    problems = problems_of(inst, result)
    if result.modes != plain_result.modes or result.samples_used != plain_result.samples_used:
        problems.append("traced result differs from the untraced one")
    summary = tracer.summary(trace_id)
    if "sampler.gather" in tracer.absent:
        problems.append("sum of p not checked: recovery.gather_unwrapped is absent")
    elif summary["sampler.gather"]["work"] != result.samples_used:
        problems.append(f"traced sum of p {summary['sampler.gather']['work']}"
                        f" != samples_used {result.samples_used}")
    return {"instance": inst.key, "round": plain["round"], "traced": True, "seconds": t,
            "untraced_seconds": plain["seconds"], "samples": result.samples_used,
            "outer": result.outer_iterations, "modes": len(result.modes),
            "problems": problems}, summary


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in turn, each in its own process so that peak RSS stays
    per workload; each child's table is passed through."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        *table, last = proc.stdout.strip().splitlines()
        print(f"== {name}", *table, sep="\n")
        result = json.loads(last)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    return total


def print_table(out: dict) -> None:
    for metric, m in out["metrics"].items():
        print(f"{metric:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"attempted {out['attempted']}, failed {out['failed']}, correct {out['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missed = self_test()
    if missed:
        print(f"output check self-test: not flagged: {', '.join(missed)}", file=sys.stderr)
        return 1
    if not (SRC / "msfourier" / "__init__.py").is_file():
        print(f"no msfourier sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        out = run_all(args.seed, args.seconds, args.trace)
    else:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print_table(out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
