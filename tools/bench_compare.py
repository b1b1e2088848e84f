#!/usr/bin/env python3
"""Summarizes interleaved perfbench runs into a BENCH file and compares them.

    tools/bench_compare.py summarize --pr 18 --note "..." RUNS.jsonl... \
        > BENCH_pr18.json
    tools/bench_compare.py compare BENCH_pr18.json [BENCH_prPREV.json]

A runs file holds one JSON object per line:

    {"pair": 1, "side": "parent" | "change", "workload": "tenant_mix",
     "seed": 1, "result": <last line printed by perfbench/run.py>}

where the two sides of a pair ran back to back (alternating which went
first) from two checkouts on the same machine. `summarize` groups the runs
by workload and seed and records, per side and end-to-end metric, the
median, the quartiles and every run, plus how many pairs the change won.

`compare` prints, for each group of a BENCH file, every end-to-end metric
of BENCHMARK.json: the parent and change medians, the change's delta, the
metric's bound, how many pairs the change won, and a verdict. "worse" means
the change's median is worse than the parent's by more than the bound. A
"gain" needs at least 10 pairs, a win in at least 9 of every 10, and a
median better by more than the parent's interquartile range. Given a
second, earlier BENCH file, it also prints the change medians of the
groups the two share, as a trajectory. Exits 1 when any metric is worse beyond its bound.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def is_better(metric, change, parent):
    if metric["better"] == "higher":
        return change > parent
    return change < parent


def summarize(args):
    metrics = load_metrics()
    groups = {}
    for path in args.runs:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                run = json.loads(line)
                key = f"{run['workload']}/seed{run['seed']}"
                group = groups.setdefault(key, {
                    "workload": run["workload"], "seed": run["seed"],
                    "pairs": {}})
                group["pairs"].setdefault(run["pair"], {})[run["side"]] = (
                    run["result"])
    out = {"pr": args.pr, "note": args.note, "groups": {}}
    for key, group in sorted(groups.items()):
        pairs = [p for _, p in sorted(group["pairs"].items())
                 if "parent" in p and "change" in p]
        summary = {"workload": group["workload"], "seed": group["seed"],
                   "pairs": len(pairs), "parent": {}, "change": {},
                   "change_wins": {}}
        for side in ("parent", "change"):
            summary[side]["correct"] = all(p[side]["correct"] for p in pairs)
            summary[side]["failed_jobs"] = sum(p[side]["failed"]
                                               for p in pairs)
        for metric in metrics:
            name = metric["name"]
            for side in ("parent", "change"):
                runs = [p[side]["metrics"][name]["value"] for p in pairs]
                q1, median, q3 = quartiles(runs)
                summary[side][name] = {"median": median, "q1": q1, "q3": q3,
                                       "runs": runs}
            summary["change_wins"][name] = sum(
                is_better(metric, p["change"]["metrics"][name]["value"],
                          p["parent"]["metrics"][name]["value"])
                for p in pairs)
        out["groups"][key] = summary
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


def compare(args):
    metrics = load_metrics()
    with open(args.bench) as f:
        bench = json.load(f)
    worse = False
    for key, group in bench["groups"].items():
        print(f"{args.bench} {key}: {group['pairs']} pairs, correct "
              f"{group['parent']['correct']} -> {group['change']['correct']}"
              f", failed jobs {group['parent']['failed_jobs']} -> "
              f"{group['change']['failed_jobs']}")
        print(f"  {'metric':<12} {'parent':>10} {'change':>10} {'delta':>8} "
              f"{'bound':>6} {'wins':>6}  verdict")
        for metric in metrics:
            name = metric["name"]
            parent = group["parent"][name]
            change = group["change"][name]
            base = parent["median"]
            delta = (change["median"] - base) / base if base else 0.0
            # Positive `worse_by` means the change moved the wrong way.
            worse_by = -delta if metric["better"] == "higher" else delta
            wins = group["change_wins"][name]
            iqr = parent["q3"] - parent["q1"]
            if worse_by > metric["bound"]:
                verdict = "WORSE beyond bound"
                worse = True
            elif (group["pairs"] >= 10 and wins * 10 >= 9 * group["pairs"]
                  and abs(change["median"] - base) > iqr
                  and is_better(metric, change["median"], base)):
                verdict = "gain"
            else:
                verdict = "within bound"
            print(f"  {name:<12} {base:>10.4g} {change['median']:>10.4g} "
                  f"{100 * delta:>+7.1f}% {metric['bound']:>6.2f} "
                  f"{wins:>3}/{group['pairs']:<2}  {verdict}")
    if args.previous:
        with open(args.previous) as f:
            previous = json.load(f)
        shared = sorted(set(previous.get("groups", {})) & set(bench["groups"]))
        if not shared:
            print(f"{args.previous}: no workload/seed group in common")
        for key in shared:
            print(f"trajectory {key}: change medians, {args.previous} -> "
                  f"{args.bench}")
            for metric in metrics:
                name = metric["name"]
                old = previous["groups"][key]["change"][name]["median"]
                new = bench["groups"][key]["change"][name]["median"]
                delta = (new - old) / old if old else 0.0
                print(f"  {name:<12} {old:>10.4g} {new:>10.4g} "
                      f"{100 * delta:>+7.1f}%")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize", help="runs files -> BENCH JSON")
    s.add_argument("--pr", type=int, required=True)
    s.add_argument("--note", default="")
    s.add_argument("runs", nargs="+")
    c = sub.add_parser("compare", help="print deltas against the bounds")
    c.add_argument("bench")
    c.add_argument("previous", nargs="?")
    args = parser.parse_args()
    return summarize(args) if args.command == "summarize" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
