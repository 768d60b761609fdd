"""Compare two checkouts on the benchmark's end-to-end metrics over alternating pairs of runs.

Usage (from any directory):

    python3 tools/ab_bench.py PARENT CHANGE --workload count --seed 3 --seconds 6 --pairs 10

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``python3 bench/run.py --workload W --seed S --seconds T`` once in each
checkout, each in a fresh process whose working directory is that checkout;
the side that runs first alternates from pair to pair.  Each run gets a fresh,
empty ``PYTHONPYCACHEPREFIX``, so both sides compile the package from source
alike: a stale ``__pycache__`` in either checkout is never read, and the
bytecode a run writes is removed with its cache.  The standard library
modules a run imports are compiled too, so ``peak_rss_mb`` reads about 1.3 MB
higher than in a plain run of a checkout without bytecode (``fill_cli``,
Python 3.11), on both sides alike.  Each run's metrics are printed to stderr
as it ends.  Then, for every end-to-end metric that
CHANGE's BENCHMARK.json names, the script prints each side's median and
quartiles, the pairs the change won (a tie counts for neither side) and a
verdict:

- ``gain``: over at least ten pairs, the change won at least nine in ten,
  and the medians differ, in its favour, by more than the distance between
  the parent's quartiles;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: neither, and the parent's quartiles lie further apart
  than the bound allows, unless every run of the change beat every run of
  the parent;
- ``within bound``: otherwise.

A run that exits non-zero or reports an incorrect output stops the script
with exit status 1.  It needs the standard library only, and changes no file
in either checkout beyond what ``bench/run.py`` itself writes there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in checkout: metric name -> value."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result.get("correct"):
        sys.exit(f"run failed in {checkout} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """The change's wins over the pairs and the verdict for one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (c_med - p_med)  # > 0 when the change's median is better
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > q3 - q1:
        return wins, "gain"
    if p_med and -gain / abs(p_med) > bound:
        return wins, "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and (q3 - q1) / abs(p_med) > bound and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def summary(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} ({q1:.4g}-{q3:.4g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(metrics)
            shown = " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
            print(f"pair {i + 1} {side}: {shown}", file=sys.stderr, flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s per run, "
          f"{args.pairs} pairs; median (quartiles)")
    print(f"{'metric':<12} {'parent':<26} {'change':<26} {'wins':<7} verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [m[name] for m in runs["parent"]]
        change = [m[name] for m in runs["change"]]
        wins, result = verdict(parent, change, metric["better"], metric["bound"])
        print(f"{name:<12} {summary(parent):<26} {summary(change):<26} "
              f"{wins:>2}/{args.pairs:<4} {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
