"""A benchmark record of one checkout: ``BENCH_<pr>.json``.

Records the checkout's git rev (and whether its tracked files differ from
it), the Python and numpy versions, ``nproc`` and the host, then:

- the JSON line of ``perfbench/run.py --workload all`` at ``--trace 0`` and
  at ``--trace 1``, kept verbatim, each run as a subprocess;
- the north star's cells that perfbench does not run, through the public
  API, one process per cell: large s (s=1024, 4096 and 16,384, otherwise
  the headline size), large d (d=500 and d=1000, s=64) and tiny dense (N=8,
  d=2, s=8, sigma=0, at d1=1 and d1=2). Each cell recovers
  ``random_spectrum(N, d, s, seed)`` under ``RecoveryConfig(..., seed=seed)``
  for every listed seed, round after round until ``--seconds`` have passed
  (one round at least), and records the median time per recovery, each
  seed's ``samples_used``, the median samples per s·d, the share of runs
  that recover the exact frequency set and the process's peak RSS.

    python tests/bench_record.py --pr N [--out PATH] [--seconds 5] [--seeds 1,2]
        [--checkout DIR]

The record goes to ``--out``, by default ``BENCH_<pr>.json`` at the root of
the checkout this file sits in. ``--checkout`` measures another checkout's
``perfbench/`` and ``src/`` with this script; make it with ``git clone`` (so
it has a rev) and not by copying a working tree with its ``__pycache__``
(see ``tests/pairs.py``). Nothing is written under ``perfbench/`` except
what ``run.py`` itself writes to its ``out/`` directory. Times at
``--seconds 0`` are single cold runs, not figures to compare.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# name: (N, d, d1, s, sigma)
CELLS = {
    "large_s": (20, 100, 5, 1024, 0.512),
    "large_s_4096": (20, 100, 5, 4096, 0.512),
    "large_s_16384": (20, 100, 5, 16384, 0.512),
    "large_d_500": (20, 500, 5, 64, 0.512),
    "large_d_1000": (20, 1000, 5, 64, 0.512),
    "tiny_dense_d1_1": (8, 2, 1, 8, 0.0),
    "tiny_dense_d1_2": (8, 2, 2, 8, 0.0),
}


def git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_cell(name: str, seeds: list[int], seconds: float) -> dict:
    """One cell's figures, measured in this process on the msfourier it imports."""
    from msfourier import RecoveryConfig, compare, recover
    from msfourier.cli import random_spectrum

    N, d, d1, s, sigma = CELLS[name]
    cases = [
        (random_spectrum(N, d, s, seed),
         RecoveryConfig(N=N, d=d, d1=d1, s=s, sigma=sigma, seed=seed))
        for seed in seeds
    ]
    times, exact, samples = [], [], []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        for truth, config in cases:
            t0 = time.perf_counter()
            result = recover(config, truth)
            times.append(time.perf_counter() - t0)
            report = compare(truth, result.modes)
            exact.append(report.missed == 0 and report.spurious == 0)
            samples.append(result.samples_used)
    return {
        "N": N, "d": d, "d1": d1, "s": s, "sigma": sigma,
        "runs": len(times),
        "median_s": statistics.median(times),
        "samples_used": samples[: len(seeds)],
        "samples_per_sd": statistics.median(samples) / (s * d),
        "exact_rate": sum(exact) / len(exact),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def record(checkout: Path, pr: int, seeds: list[int], seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # as perfbench sets them
    path = [str(checkout / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))

    def last_json(args: list[str]) -> dict:
        done = subprocess.run(
            [sys.executable, *args], cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
            check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    perfbench = {
        f"trace{trace}": last_json([
            "perfbench/run.py", "--workload", "all", "--seed", str(seeds[0]),
            "--seconds", str(seconds), "--trace", str(trace),
        ])
        for trace in (0, 1)
    }
    seed_list = ",".join(map(str, seeds))
    cells = {
        name: last_json([
            str(Path(__file__).resolve()), "--cell", name,
            "--seeds", seed_list, "--seconds", str(seconds),
        ])
        for name in CELLS
    }
    return {
        "pr": pr,
        "rev": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "seeds": seeds,
        "seconds": seconds,
        "perfbench": perfbench,
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, help="the number in BENCH_<pr>.json")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    parser.add_argument("--seconds", type=float, default=5.0, help="time per workload and cell")
    parser.add_argument("--seeds", type=lambda text: [int(x) for x in text.split(",")],
                        default=[1, 2])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--cell", choices=CELLS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        print(json.dumps(run_cell(args.cell, args.seeds, args.seconds)))
        return 0
    if args.pr is None:
        parser.error("--pr is required")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    rec = record(args.checkout.resolve(), args.pr, args.seeds, args.seconds)
    out.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
