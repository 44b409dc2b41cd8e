#!/usr/bin/env python3
"""Summaries of benchmark results and traces.

    # median, quartiles and spread (IQR / median) of one set of runs
    python3 bench/compare.py bench/results/base/acceptance_n512-*.json

    # a change against its parent: medians, relative change, pairs won
    python3 bench/compare.py --base bench/results/base/cli_chain_n256-*.json \
                             --change bench/results/change/cli_chain_n256-*.json

    # each layer's share of the step operations in one traced run
    python3 bench/compare.py --steps bench/traces/acceptance_n512-seed1.json

A result file holds the output of one run of `bench/run.py`; only its
last line (the result object) is read.  Base and change files are paired
in sorted name order, so name them by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths) -> list:
    out = []
    for path in sorted(paths):
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        res = json.loads(lines[-1])
        if not res["correct"]:
            print(f"warning: {path} reports incorrect outputs", file=sys.stderr)
        out.append(res)
    return out


def column(results, name) -> list:
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spread(values) -> tuple:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def summarize(results):
    failed = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{len(results)} runs, failed share {failed}")
    for name in results[0]["metrics"]:
        med, q1, q3, rel = spread(column(results, name))
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:40s} {med:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} spread {rel:.4f}")


def compare(base, change):
    print(f"{'metric':40s} {'base':>12s} {'change':>12s} {'change/base-1':>14s} "
          f"{'base spread':>11s} {'lower wins':>10s}")
    for name in base[0]["metrics"]:
        b, c = column(base, name), column(change, name)
        if not b or not c:
            continue
        mb, _, _, sb = spread(b)
        mc, _, _, _ = spread(c)
        wins = sum(y < x for x, y in zip(b, c))
        print(f"{name:40s} {mb:12.6g} {mc:12.6g} {mc / mb - 1.0:+14.4f} "
              f"{sb:11.4f} {wins:4d}/{min(len(b), len(c))}")


def step_shares(path):
    """Outermost time per span name under each op.step* root, as shares."""
    with open(path) as fh:
        trace = json.load(fh)
    names, spans = trace["names"], trace["spans"]
    root_of = []
    for i, (nid, _, _, parent) in enumerate(spans):
        root_of.append(root_of[parent] if parent >= 0 else i)
    roots = [i for i, (nid, _, _, parent) in enumerate(spans)
             if parent < 0 and names[nid].startswith("op.step")]
    totals = {r: {} for r in roots}
    for i, (nid, start, end, parent) in enumerate(spans):
        if parent < 0 or root_of[i] not in totals:
            continue
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:  # outermost span of its name
            per = totals[root_of[i]]
            per[names[nid]] = per.get(names[nid], 0.0) + end - start
    dur = {r: spans[r][2] - spans[r][1] for r in roots}
    layers = sorted({nm for per in totals.values() for nm in per},
                    key=lambda nm: -sum(per.get(nm, 0.0) for per in totals.values()))
    print(f"{'layer (share of the traced op)':34s}" +
          "".join(f"{names[spans[r][0]]:>12s}" for r in roots))
    print(f"{'op seconds':34s}" + "".join(f"{dur[r]:12.3f}" for r in roots))
    for nm in layers:
        print(f"{nm:34s}" + "".join(
            f"{100.0 * totals[r].get(nm, 0.0) / dur[r]:11.1f}%" for r in roots))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--change", nargs="+")
    parser.add_argument("--steps", help="a trace file written by a --trace 1 run")
    args = parser.parse_args(argv)
    if args.steps:
        step_shares(args.steps)
    elif args.base and args.change:
        compare(load(args.base), load(args.change))
    elif args.files:
        summarize(load(args.files))
    else:
        parser.error("give result files, --base and --change, or --steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
