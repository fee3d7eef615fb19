#!/usr/bin/env python3
"""Compares two sets of tsbench results (python3 standard library only).

usage: compare.py [--benchmark FILE] BASE [CHANGE]

BASE and CHANGE are directories of result files written by
`run.sh --out DIR`.  BENCHMARK.json (default: next to this directory)
gives each metric's direction and, for end-to-end metrics, its bound.

With two sets, every (workload, metric) gets both medians and quartiles
and a verdict:
  regressed   CHANGE's median is worse than BASE's by more than the bound
  improved    CHANGE wins at least 9 of 10 index-paired runs and the
              medians differ by more than BASE's quartile distance, or
              every CHANGE run is better than every BASE run
  unresolved  BASE's own spread (quartile distance / median) is wider
              than the bound
  unchanged   otherwise
Per-layer metrics have no bound; they get medians and the change only.
Exits 1 on any regression.

With one set, it prints each metric's spread against its bound and
exits 1 if any end-to-end spread, setup_s aside, is wider than its bound.

Refuses (exit 2) to compare results whose host stamps differ in nproc
or SIMD level.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load_set(directory):
    """{(workload, trace): [result records ordered by seed, run]}"""
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        record["path"] = path
        records.append(record)
    if not records:
        sys.exit(f"compare: no result files in {directory}")
    groups = {}
    for r in sorted(records, key=lambda r: (r["seed"], r["path"])):
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return records, groups


def check_hosts(records):
    first = records[0]["host"]
    for r in records[1:]:
        for key in ("nproc", "simd"):
            if r["host"][key] != first[key]:
                sys.exit(f"compare: refusing to compare {key} "
                         f"{first[key]!r} ({records[0]['path']}) with "
                         f"{r['host'][key]!r} ({r['path']})")


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(base, change, direction, bound):
    b_med, b_q1, b_q3 = summary(base)
    c_med = statistics.median(change)
    worse = (c_med - b_med) if direction == "lower" else (b_med - c_med)
    worse = worse / abs(b_med) if b_med else 0.0
    all_better = all(better(c, b, direction) for c in change for b in base)
    if all_better:
        return "improved"
    if b_med and (b_q3 - b_q1) / abs(b_med) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    pairs = list(zip(base, change))
    wins = sum(better(c, b, direction) for b, c in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(c_med - b_med) > (b_q3 - b_q1)):
        return "improved"
    return "unchanged"


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    base_records, base = load_set(args.base)
    change_records, change = ({}, {})
    if args.change:
        change_records, change = load_set(args.change)
    check_hosts(base_records + list(change_records or []))

    status = 0
    for key in sorted(base):
        workload, trace = key
        runs = base[key]
        names = [n for n in specs if values(runs, n)]
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(runs)} base runs"
              + (f", {len(change.get(key, []))} change runs" if args.change
                 else "") + ")")
        for name in names:
            spec = specs[name]
            bound = spec.get("bound")
            b = values(runs, name)
            b_med, b_q1, b_q3 = summary(b)
            spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
            line = (f"  {name:34s} {spec['unit']:8s} base {b_med:12.4f} "
                    f"[{b_q1:.4f}, {b_q3:.4f}] spread {spread:6.2%}")
            if not args.change:
                if bound is not None:
                    line += f" bound {bound:.0%}"
                    if spread > bound and name != "setup_s":
                        line += "  WIDER THAN BOUND"
                        status = 1
                print(line)
                continue
            c = values(change.get(key, []), name)
            if not c:
                print(line + "  (missing in change)")
                status = max(status, 1)
                continue
            c_med, c_q1, c_q3 = summary(c)
            delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
            line += (f" | change {c_med:12.4f} [{c_q1:.4f}, {c_q3:.4f}] "
                     f"{delta:+7.2%}")
            if bound is not None:
                v = verdict(b, c, spec["better"], bound)
                line += f"  {v} (bound {bound:.0%}, {spec['better']} is better)"
                if v == "regressed":
                    status = 1
            print(line)
    sys.exit(status)


if __name__ == "__main__":
    main()
