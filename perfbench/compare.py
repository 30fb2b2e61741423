#!/usr/bin/env python3
"""Compares two sets of benchmark runs, e.g. a parent commit and a change.

    python3 perfbench/compare.py PARENT.log CHANGE.log

Each file holds the standard output of any number of runs (of any
workloads); the `{"perfbench_record": ...}` lines are read and everything
else is ignored. For every workload and metric it prints each side's
median and quartiles and a verdict:

  improved    the change wins at least 9 of 10 run pairs (ties count for
              neither side) and the medians differ by more than the
              parent's quartile distance;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound from BENCHMARK.json (per-layer metrics,
              which have no bound: the change loses 9 of 10 pairs and the
              medians differ by more than the parent's quartile distance);
  unresolved  the parent's own quartile distance is wider than the bound,
              and not every change run beats every parent run;
  unchanged   otherwise.

It also compares error rates (failed / attempted operations): a change that
fails more operations than its parent has regressed.

A pair is the k-th parent run and the k-th change run of the same workload,
trace mode and seed. Both sides must hold the same runs by that key; runs
whose host facts or run length differ are refused too, since their numbers
are not comparable.
"""

import collections
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Facts that do not make two runs incomparable.
NOT_HOST = {"commit"}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.startswith('{"perfbench_record"')]


def keyed(runs):
    """Runs by (workload, trace, seed, occurrence), in file order."""
    seen = collections.Counter()
    out = {}
    for r in runs:
        k = (r["workload"], r["trace"], r["seed"])
        out[k + (seen[k],)] = r
        seen[k] += 1
    return out


def conditions(record):
    facts = {k: v for k, v in record["host"].items() if k not in NOT_HOST}
    facts["seconds"] = record["seconds"]
    return facts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    wins_fn = (lambda c, p: c > p) if better == "higher" else (lambda c, p: c < p)
    pairs = list(zip(parent, change))
    wins = sum(wins_fn(c, p) for p, c in pairs)
    losses = sum(wins_fn(p, c) for p, c in pairs)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and abs(mc - mp) > spread:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(mc - mp) > spread:
            return "regressed"
        return "unchanged"
    every_better = all(wins_fn(c, p) for p in parent for c in change)
    if mp and spread / abs(mp) > bound and not every_better:
        return "unresolved"
    worse_by = (mp - mc) if better == "higher" else (mc - mp)
    if worse_by > bound * abs(mp):
        return "regressed"
    return "unchanged"


def fmt(v):
    return f"{v:.6g}"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    if not parent or not change:
        print("compare: each file needs at least one perfbench record", file=sys.stderr)
        return 2
    seen = {json.dumps(conditions(r), sort_keys=True) for r in parent + change}
    if len(seen) > 1:
        print("compare: refusing to compare runs made under different conditions:", file=sys.stderr)
        for s in sorted(seen):
            print(f"  {s}", file=sys.stderr)
        return 2
    p_keyed, c_keyed = keyed(parent), keyed(change)
    unmatched = sorted(set(p_keyed) ^ set(c_keyed))
    if unmatched:
        print("compare: both sides need the same runs (workload, trace, seed, occurrence); "
              "unmatched:", file=sys.stderr)
        for key in unmatched:
            side = "parent" if key in p_keyed else "change"
            print(f"  {side} only: {key}", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}

    regressed = False
    header = f"{'metric':44} {'unit':8} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} verdict"
    for workload, trace in sorted({key[:2] for key in p_keyed}):
        keys = sorted(key for key in p_keyed if key[:2] == (workload, trace))
        p_runs = [p_keyed[key] for key in keys]
        c_runs = [c_keyed[key] for key in keys]
        kind = "per-layer" if trace else "end-to-end"
        print(f"\n== {workload} ({kind}; {len(keys)} run pairs)")
        print(header)
        for spec in specs[trace]:
            name = spec["name"]
            if not all(name in r["metrics"] for r in p_runs + c_runs):
                print(f"{name:44} missing from some runs")
                continue
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = verdict(p, c, spec["better"], spec.get("bound"))
            regressed |= v == "regressed"
            side = lambda xs: f"{fmt(statistics.median(xs))} [{fmt(quartiles(xs)[0])}, {fmt(quartiles(xs)[1])}]"
            print(f"{name:44} {spec['unit']:8} {side(p):34} {side(c):34} {v}")
        rate = lambda runs: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
        ep, ec = rate(p_runs), rate(c_runs)
        v = "regressed" if ec > ep else ("improved" if ec < ep else "unchanged")
        regressed |= v == "regressed"
        print(f"{'error_rate':44} {'ratio':8} {fmt(ep):34} {fmt(ec):34} {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
