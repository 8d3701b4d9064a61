"""Alternating benchmark pairs of two checkouts, and the gain rule on them.

Runs ``perfbench/run.py --workload all`` in a parent checkout and a change
checkout, one after the other, for each of ``--pairs`` pairs: the parent
runs first on odd pairs and the change first on even ones, so a drift of
the machine's speed falls on both sides alike. Every run's JSON line is
kept in ``--out`` (one line per run, with its side and pair). For each
workload and end-to-end metric it then prints both sides' median and
quartiles, the change's wins and ties over the pairs, and whether the gain
rule holds: the change wins at least nine tenths of the pairs, and the
medians lie further apart, in the change's favour, than the distance
between the parent's quartiles. Which way is better comes from the
``BENCHMARK.json`` beside this directory.

    python tests/pairs.py PARENT CHANGE --pairs 10 --seed S [--seconds 4] [--out pairs.jsonl]

Nothing is written under either checkout's ``perfbench/`` except what
``run.py`` itself writes to its ``out/`` directory.

Make both checkouts the same way, with ``git archive`` or ``git clone``, and
do not copy a working tree with its ``__pycache__`` directories. perfbench's
``setup_s`` re-imports the package 20 times; where bytecode writing is off
(``PYTHONDONTWRITEBYTECODE=1``), a copy holding stale ``.pyc`` files reads
and rejects them on every import, and such a copy read ``setup_s`` 18-60%
high against a clean one of the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Share of the pairs the change must win to claim a gain on a metric.
WIN_SHARE = 0.9


def run_once(checkout: Path, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one ``run.py --workload all`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), numpy's linear interpolation."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric of pair-aligned runs.

    ``parent[i]`` and ``change[i]`` map each metric (``workload/name``) to
    its value in pair i; ``better`` maps a metric's name to "lower" or
    "higher". A row holds both sides' quartiles, the change's wins and ties,
    and ``gain``: whether the change wins at least ``WIN_SHARE`` of the
    pairs and its median beats the parent's by more than the parent's IQR.
    """
    rows = []
    for metric in parent[0]:
        sign = 1 if better[metric.split("/")[-1]] == "higher" else -1
        before = [run[metric] for run in parent]
        after = [run[metric] for run in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        ties = sum(a == b for a, b in zip(before, after))
        p, c = quartiles(before), quartiles(after)
        gain = wins >= WIN_SHARE * len(before) and sign * (c[1] - p[1]) > p[2] - p[0]
        rows.append({"metric": metric, "parent": p, "change": c, "wins": wins,
                     "ties": ties, "pairs": len(before), "gain": gain})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--out", type=Path, default=Path("pairs.jsonl"))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")

    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    runs = {"parent": [], "change": []}
    with open(args.out, "w") as out:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = run_once(getattr(args, side), args.seed, args.seconds)
                out.write(json.dumps({"pair": pair, "side": side, **result}) + "\n")
                out.flush()
                runs[side].append(result)
                print(f"pair {pair} {side}: correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}", file=sys.stderr)

    values = {side: [{k: m["value"] for k, m in r["metrics"].items()} for r in rs]
              for side, rs in runs.items()}
    print(f"{'metric':36s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}"
          f" {'wins':>5s} {'ties':>5s}  gain")
    for row in summarize(values["parent"], values["change"], better):
        p = " / ".join(f"{v:.4g}" for v in row["parent"])
        c = " / ".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['metric']:36s} {p:>32s} {c:>32s} {row['wins']:>5d} {row['ties']:>5d}"
              f"  {'yes' if row['gain'] else 'no'}")
    for side, rs in runs.items():
        print(f"{side}: {sum(r['failed'] for r in rs)} failed of "
              f"{sum(r['attempted'] for r in rs)} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
