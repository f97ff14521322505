#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Run mode runs the benchmark once per seed on each workload and prints, for
every end-to-end metric, its median and its spread: the distance between
the first and third quartiles as a share of the median, next to a third of
the metric's bound from BENCHMARK.json. --out appends every result line to
a file.

Compare mode reads two such files (two sets of runs of the same code) and
prints, per workload and metric, each set's median and spread and how much
worse the second median is than the first, as a share of the first,
against the metric's bound.

Run from the repository root:

    python3 benchmark/spread.py --seeds 1,2,3,4,5 [--workloads ler-sweep] [--trace 0] [--out set1.jsonl]
    python3 benchmark/spread.py --compare set1.jsonl set2.jsonl
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(xs):
    med = statistics.median(xs)
    if len(xs) < 2 or not med:
        return float("nan")
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / abs(med)


def load(path):
    """Returns {workload: {metric: [values]}} from a file --out wrote."""
    out = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["exit"] != 0:
                print(f"{path}: {rec['workload']} seed {rec['seed']} exited {rec['exit']}", file=sys.stderr)
                continue
            for k, v in json.loads(rec["line"])["metrics"].items():
                out.setdefault(rec["workload"], {}).setdefault(k, []).append(v["value"])
    return out


def compare(bench, a_path, b_path):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a, b = load(a_path), load(b_path)
    ok = True
    for w in sorted(set(a) & set(b)):
        print(f"== {w}: {len(next(iter(a[w].values())))} and {len(next(iter(b[w].values())))} runs")
        for k in sorted(set(a[w]) & set(b[w]) & set(metrics)):
            m = metrics[k]
            ma, mb = statistics.median(a[w][k]), statistics.median(b[w][k])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a[w][k]), spread(b[w][k])
            mark = ""
            if worse > m["bound"] or (k != "setup_s" and not max(sa, sb) <= m["bound"]):
                mark, ok = "  <-- beyond bound", False
            print(f"  {k:16s} median {ma:12.6g} {mb:12.6g}  worse {worse:+.4f}  "
                  f"spread {sa:.4f} {sb:.4f}  bound {m['bound']}{mark}")
    return ok


def run(bench, args):
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    for w in names:
        values = {}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            line = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, "exit": p.returncode, "line": line}) + "\n")
            if p.returncode != 0:
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                continue
            for k, v in json.loads(line)["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w} ({len(seeds)} seeds)")
        for k in sorted(values):
            xs = values[k]
            s = spread(xs)
            b = bounds.get(k)
            mark = ""
            if b is not None and k != "setup_s" and not s <= b / 3:
                mark = "  <-- above bound/3"
            btxt = f"bound/3 {b / 3:.4f}" if b is not None else ""
            print(f"  {k:28s} median {statistics.median(xs):14.6g}  spread {s:.4f}  {btxt}{mark}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default="", help="append every result line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("SET1", "SET2"),
                    help="compare two files written by --out instead of running")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = compare(bench, *args.compare) if args.compare else run(bench, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
