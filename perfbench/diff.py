#!/usr/bin/env python3
"""Compares two sets of benchmark results, one block per workload.

    python3 perfbench/diff.py BASE NEW [--summary OUT]

BASE and NEW are each a directory of result records written by run.py
(<build>/results/*.json; every seed and trace run of one revision), or a
summary file written by --summary. For every workload:

  * counts (ir.*, budget.*, keys.*, fhe.*) must be identical across every
    record of a side and between the sides: FHE execution is
    data-oblivious, so any change is a real change in the work done, and
    is listed;
  * each end-to-end metric is compared by median, with its spread (the
    distance between the quartiles over the median) on both sides, against
    the bound BENCHMARK.json fixes for it: WORSE when the new median is
    worse by more than the bound, unresolved when that happens while a
    side's spread exceeds the bound, better or same otherwise;
  * per-layer medians from the traced runs are printed side by side.

Exits 1 when a count differs or a metric is WORSE. --summary OUT writes
NEW's medians, quartiles and counts as a trajectory point.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def stats(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(directory):
    """Folds a directory of run records into per-workload statistics."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(record["info"]["workload"], []).append(record)
    summary = {"workloads": {}}
    for workload, records in sorted(runs.items()):
        entry = {"runs": len(records), "metrics": {}, "per_layer": {},
                 "counts": {}, "count_conflicts": [], "info": {}}
        for trace, key in ((0, "metrics"), (1, "per_layer")):
            samples = {}
            for r in records:
                if r["info"]["trace"] != trace:
                    continue
                for name, m in r["metrics"].items():
                    samples.setdefault(name, []).append(m["value"])
            for name, values in samples.items():
                entry[key][name] = stats(values)
        for r in records:
            for name, value in r["counts"].items():
                seen = entry["counts"].setdefault(name, value)
                if seen != value:
                    entry["count_conflicts"].append(
                        "%s: %d in one run, %d in seed %d" %
                        (name, seen, value, r["info"]["seed"]))
        for key in ("revision", "rescale", "packing", "poly_backend",
                    "threads"):
            entry["info"][key] = records[0]["info"].get(key)
        steal = [r["info"].get("host_steal_share") or 0.0 for r in records]
        entry["info"]["max_host_steal_share"] = max(steal)
        summary["workloads"][workload] = entry
    return summary


def load(path):
    if os.path.isdir(path):
        return summarize(path)
    with open(path) as f:
        return json.load(f)


def spread(s):
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(base, new, bound, better):
    mb, mn = base["median"], new["median"]
    if mb == mn:
        return "same", 0.0
    worse = (mn - mb) if better == "lower" else (mb - mn)
    share = worse / abs(mb) if mb else float("inf")
    if share > bound:
        if spread(base) > bound or spread(new) > bound:
            return "unresolved", share
        return "WORSE", share
    return ("better" if share < -bound else "same"), share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--summary", help="write NEW's summary here")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(new, f, indent=1, sort_keys=True)
            f.write("\n")

    failed = False
    for workload in sorted(set(base["workloads"]) | set(new["workloads"])):
        b = base["workloads"].get(workload)
        n = new["workloads"].get(workload)
        print("== %s" % workload)
        if not b or not n:
            print("   only in %s" % ("NEW" if n else "BASE"))
            continue
        print("   base %s (%d runs)  new %s (%d runs)" %
              (b["info"]["revision"], b["runs"], n["info"]["revision"],
               n["runs"]))
        # A run the hypervisor took much CPU from is a noisy one.
        print("   max host steal: base %.1f%%  new %.1f%%" %
              tuple(100 * s["info"].get("max_host_steal_share", 0.0)
                    for s in (b, n)))
        for side, s in (("base", b), ("new", n)):
            for c in s["count_conflicts"]:
                print("   COUNT NOT REPEATABLE (%s) %s" % (side, c))
                failed = True
        # Traced-only counts are compared when both sides have a traced run.
        shared = sorted(set(b["counts"]) & set(n["counts"]))
        changed = [k for k in shared if b["counts"][k] != n["counts"][k]]
        for name in changed:
            print("   COUNT CHANGED %-24s %d -> %d" %
                  (name, b["counts"][name], n["counts"][name]))
        failed |= bool(changed)
        if not changed:
            print("   counts: %d compared, identical" % len(shared))
        print("   %-18s %14s %7s %14s %7s %8s %6s  %s" %
              ("metric", "base median", "spread", "new median", "spread",
               "worse", "bound", "verdict"))
        for m in spec["end_to_end"]:
            bs, ns = b["metrics"].get(m["name"]), n["metrics"].get(m["name"])
            if not bs or not ns:
                continue
            v, share = verdict(bs, ns, m["bound"], m["better"])
            failed |= v == "WORSE"
            print("   %-18s %14.6g %7.3f %14.6g %7.3f %+8.3f %6.2f  %s" %
                  (m["name"], bs["median"], spread(bs), ns["median"],
                   spread(ns), share, m["bound"], v))
        layers = [m["name"] for m in spec["per_layer"]
                  if m["name"] in b["per_layer"] and
                  m["name"] in n["per_layer"]]
        if layers:
            print("   per-layer medians (traced runs): base -> new")
        for name in layers:
            print("     %-28s %14.6g -> %-14.6g" %
                  (name, b["per_layer"][name]["median"],
                   n["per_layer"][name]["median"]))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
