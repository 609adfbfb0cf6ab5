"""Compare the benchmark results of two commits.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON-lines records that ``run.py --results FILE``
appended for one commit.  For every workload and end-to-end metric in
BENCHMARK.json this prints each side's median and quartiles over its
untraced runs, the pairs the new commit won, and a verdict:

- improved: the new commit wins at least nine tenths of at least ten pairs,
  its median is better by more than the base's quartile spread, and no more
  operations failed than on the base;
- no worse: the new median is not worse than the base median by more than
  the metric's bound, and the base's quartile spread is within the bound;
- worse: the new median is worse by more than the bound, with the spread
  within the bound;
- unresolved: the base's spread is wider than the bound, so the runs cannot
  tell (unless every new run beats every base run, which counts as no worse).

Runs are paired by seed when both sides ran the same seeds, else in order.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(path: str) -> dict:
    """workload -> list of untraced records, in file order."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair(base: list, new: list) -> list:
    base_seeds = [r["seed"] for r in base]
    new_seeds = [r["seed"] for r in new]
    if sorted(base_seeds) == sorted(new_seeds) and len(set(base_seeds)) == len(base_seeds):
        by_seed = {r["seed"]: r for r in new}
        return [(r, by_seed[r["seed"]]) for r in base]
    return list(zip(base, new))


def verdict(metric: dict, base: list, new: list, pairs: list, base_failed: int, new_failed: int) -> tuple:
    """(verdict, pairs won by the new commit) for one workload and metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]

    def better(a: float, b: float) -> bool:
        return sign * (a - b) > 0

    wins = sum(better(n, b) for b, n in pairs)
    q1, med_base, q3 = quartiles(base)
    med_new = statistics.median(new)
    spread = (q3 - q1) / abs(med_base)
    worse_by = sign * (med_base - med_new) / abs(med_base)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and better(med_new, med_base)
            and abs(med_new - med_base) > q3 - q1 and new_failed <= base_failed):
        return "improved", wins
    if spread > bound:
        if all(better(n, b) for n in new for b in base):
            return "no worse", wins
        return "unresolved", wins
    return ("worse" if worse_by > bound else "no worse"), wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark results of two commits.")
    parser.add_argument("base", help="results file of the parent commit")
    parser.add_argument("new", help="results file of the changed commit")
    args = parser.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    print(f"{'workload':18s} {'metric':12s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'won':>7s}  verdict")
    worst = 0
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            print(f"{workload:18s} only in {'new' if new else 'base'} results")
            continue
        pairs = pair(base, new)
        base_failed = sum(r["failed"] for r in base)
        new_failed = sum(r["failed"] for r in new)
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            pv = [(bp["metrics"][name]["value"], np_["metrics"][name]["value"]) for bp, np_ in pairs]
            result, wins = verdict(metric, b, n, pv, base_failed, new_failed)
            bq, nq = quartiles(b), quartiles(n)
            print(f"{workload:18s} {name:12s} "
                  f"{bq[1]:11.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] "
                  f"{nq[1]:11.5g} [{nq[0]:9.5g}, {nq[2]:9.5g}] "
                  f"{wins:3d}/{len(pv):<3d}  {result}")
            worst = max(worst, result in ("worse", "unresolved"))
        print(f"{workload:18s} failed ops   base {base_failed}, new {new_failed}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
