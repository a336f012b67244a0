#!/usr/bin/env python3
"""Compare two sets of benchmark result files: parent versus change.

    python3 ggbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the files `ggbench/run.py --out FILE` wrote, one per
run.  Runs pair up by (workload, trace, seed).  For every workload and
metric the report gives each side's median and quartiles, the pairs the
change won, and a verdict:

  gain        the change won at least 9 of every 10 pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the parent's interquartile spread;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json and the parent's spread
              is within that bound;
  unchanged   within the bound, with the parent's spread within the bound;
  unresolved  anything else (too few pairs, a spread wider than the bound,
              or a per-layer metric that moved without a clear gain).

The host class (nproc, CPU model, build type) of both sides is printed
first; timings from different host classes do not compare.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    hosts = set()
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            run = json.load(f)
        hosts.add(json.dumps(run["host"], sort_keys=True))
        runs[(run["workload"], run["trace"], run["seed"])] = run["result"]
    return runs, hosts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Section 8 of the choosing-metrics guide, applied to paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    spread = pq3 - pq1
    pairs = len(parent)
    if pairs >= 10 and wins * 10 >= 9 * pairs and sign * (cmed - pmed) > spread:
        return wins, "gain"
    if bound is None:
        return wins, "unresolved" if cmed != pmed else "unchanged"
    scale = abs(pmed) if pmed != 0 else 1.0
    worse = -sign * (cmed - pmed) / scale
    if spread / scale > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return wins, "gain" if all_better else "unresolved"
    return wins, "regression" if worse > bound else "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    directions = {}
    for m in bench["end_to_end"]:
        directions[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        directions[m["name"]] = (m["better"], None)

    parent, parent_hosts = load(sys.argv[1])
    change, change_hosts = load(sys.argv[2])
    print("host class parent: " + "; ".join(sorted(parent_hosts)))
    print("host class change: " + "; ".join(sorted(change_hosts)))
    if parent_hosts != change_hosts:
        print("WARNING: host classes differ; timed metrics do not compare")

    groups = sorted({(w, t) for (w, t, _) in parent} & {(w, t) for (w, t, _) in change})
    for workload, trace in groups:
        seeds = sorted(s for (w, t, s) in parent
                       if (w, t) == (workload, trace) and (w, t, s) in change)
        print("\n%s (%s, %d pairs)" % (workload, "traced" if trace else "untraced",
                                       len(seeds)))
        print("  %-34s %-30s %-30s %7s  %s" % ("metric", "parent median [q1, q3]",
                                             "change median [q1, q3]", "wins",
                                             "verdict"))
        names = parent[(workload, trace, seeds[0])]["metrics"].keys()
        for name in names:
            if name not in directions:
                continue
            p = [parent[(workload, trace, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, trace, s)]["metrics"][name]["value"] for s in seeds]
            better, bound = directions[name]
            wins, result = verdict(p, c, better, bound)
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            print("  %-34s %-30s %-30s %3d/%-3d  %s" % (
                name, "%.5g [%.5g, %.5g]" % (pmed, pq1, pq3),
                "%.5g [%.5g, %.5g]" % (cmed, cq1, cq3), wins, len(seeds), result))


if __name__ == "__main__":
    main()
