#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect OUT [--workloads a,b] [--seeds 1-10]
                                             [--seconds S] [--trace 0|1]
    python3 perfbench/compare.py spread OUT
    python3 perfbench/compare.py diff PARENT CHANGE

collect runs `python3 perfbench/run.py` once per workload and seed
(untraced unless --trace 1) and keeps each run's result line in
OUT/<workload>/<seed>.json, with its SimStats digest in
OUT/<workload>/<seed>.digest.

spread prints, per workload and metric, the median, the quartiles and
the quartile distance as a share of the median, against the metric's
bound in BENCHMARK.json where it has one.

diff pairs the runs of PARENT and CHANGE by workload and seed and prints
one row per end-to-end metric: each side's median and quartiles, the
share of pairs the change won (ties count for neither) and a verdict:

  improved    the change won at least 9 in 10 pairs and the medians
              differ by more than the parent's own quartile distance;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  either side's quartile distance is wider than the bound,
              unless every change run beats every parent run;
  no worse    otherwise.

It also reports digests that differ between the two sets.  Exit status:
0 when no metric is worse or unresolved and every digest matches, else 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(n=4); one value repeats."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else float("inf")


def verdict(parent, change, better, bound):
    """Verdict on paired lists of one metric (see the module docstring).

    Returns (verdict, share of pairs the change won)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    won = wins / len(parent) if parent else 0.0
    pm, cm = median(parent), median(change)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", won
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", won
    q1, _, q3 = quartiles(parent)
    if won >= 0.9 and sign * (cm - pm) > (q3 - q1):
        return "improved", won
    return "no worse", won


def read_set(directory):
    """{workload: {seed: (result dict, digest or None)}}"""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        wdir = os.path.join(directory, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if not name.endswith(".json"):
                continue
            seed = name[:-len(".json")]
            with open(os.path.join(wdir, name)) as f:
                result = json.loads(f.read().strip().splitlines()[-1])
            digest = None
            dpath = os.path.join(wdir, seed + ".digest")
            if os.path.exists(dpath):
                with open(dpath) as f:
                    digest = f.read().strip()
            runs.setdefault(workload, {})[seed] = (result, digest)
    return runs


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(out, workloads, seeds, seconds, trace):
    ok = True
    for workload in workloads:
        wdir = os.path.join(out, workload)
        os.makedirs(wdir, exist_ok=True)
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                ok = False
                continue
            with open(os.path.join(wdir, f"{seed}.json"), "w") as f:
                f.write(lines[-1] + "\n")
            for line in lines:
                if line.startswith("digest "):
                    with open(os.path.join(wdir, f"{seed}.digest"),
                              "w") as f:
                        f.write(line.split(": ", 1)[1] + "\n")
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    return 0 if ok else 1


def metric_values(runs, seeds, name):
    return [runs[s][0]["metrics"][name]["value"] for s in seeds]


def print_spread(directory):
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    runs = read_set(directory)
    worst = 0.0
    for workload, by_seed in runs.items():
        seeds = sorted(by_seed)
        failed = {r["failed"] / r["attempted"] for r, _ in by_seed.values()}
        digests = {d for _, d in by_seed.values()}
        print(f"{workload}: {len(seeds)} runs, failed share "
              f"{sorted(failed)}, {len(digests)} distinct digests")
        for name, metric in by_seed[seeds[0]][0]["metrics"].items():
            vals = metric_values(by_seed, seeds, name)
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, s / bound)
            limit = f"bound {100 * bound:.0f}%" if bound is not None else ""
            print(f"  {name:<30} median {q2:11.5g} {metric['unit']:<9} "
                  f"q1 {q1:11.5g} q3 {q3:11.5g} spread {100 * s:6.2f}% "
                  f"{limit}")
    print(f"largest spread / bound (setup_s aside): {worst:.2f}")
    return 0


def diff(parent_dir, change_dir):
    bench = load_benchmark()
    parent, change = read_set(parent_dir), read_set(change_dir)
    bad = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        print(f"{workload} ({len(seeds)} pairs)")
        print(f"  {'metric':<14} {'parent q1/median/q3':>34} "
              f"{'change q1/median/q3':>34} {'won':>5}  verdict")
        for m in bench["end_to_end"]:
            p = metric_values(parent[workload], seeds, m["name"])
            c = metric_values(change[workload], seeds, m["name"])
            v, won = verdict(p, c, m["better"], m["bound"])
            bad = bad or v in ("worse", "unresolved")
            fmt = "{:10.4g} {:10.4g} {:10.4g}"
            print(f"  {m['name']:<14} {fmt.format(*quartiles(p)):>34} "
                  f"{fmt.format(*quartiles(c)):>34} {100 * won:4.0f}%  {v}")
        for s in seeds:
            pd, cd = parent[workload][s][1], change[workload][s][1]
            if pd != cd:
                bad = True
                print(f"  seed {s}: digest {pd} -> {cd}")
    return 1 if bad else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        bench = load_benchmark()
        names = args.workloads.split(",") if args.workloads else [
            w["name"] for w in bench["workloads"]]
        return collect(args.out, names, parse_seeds(args.seeds),
                       args.seconds or bench["run_seconds"], args.trace)
    if args.cmd == "spread":
        return print_spread(args.dir)
    return diff(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
