#!/usr/bin/env python3
"""Steadiness and compare tool for the perfbench benchmark.

Run a workload N times, one seed per run, each for BENCHMARK.json's
`run_seconds` with tracing off, and print each end-to-end metric's median
and quartiles with the git sha, core count and seeds:

    python3 perfbench/steady.py run --workload dss --runs 10 --out dss-a.json

Compare two such result sets under the bounds in BENCHMARK.json:

    python3 perfbench/steady.py compare dss-a.json dss-b.json

A metric whose run-to-run spread (interquartile range over median) is
wider than its bound cannot show a change of that size; it is reported as
unresolved, not as unchanged, unless every run of one set is better than
every run of the other. The comparison fails when a metric is worse
beyond its bound, when a run of either set answered wrongly, when a gated
metric is missing from a run, when the sets differ in run length or
tracing, or when their shares of failed statements differ.

Per-layer figures have no bounds; for them, run the benchmark command with
`--trace 1` directly.

Run from the root of the repository; the benchmark command is taken from
BENCHMARK.json, so this measures exactly what the benchmark gate measures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
        return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def run(args):
    s = spec()
    runs = []
    seeds = [args.seed + i for i in range(args.runs)]
    seconds = s["run_seconds"]
    for seed in seeds:
        cmd = s["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
    out = {
        "sha": git_sha(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seconds": seconds,
        "trace": 0,
        "seeds": seeds,
        "runs": runs,
    }
    summarize(out)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def summarize(res):
    print(f"\nworkload {res['workload']} sha {res['sha']} nproc {res['nproc']} "
          f"seeds {res['seeds'][0]}..{res['seeds'][-1]} ({len(res['runs'])} runs)")
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    names = res["runs"][0]["metrics"].keys()
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in res["runs"]]
        q1, med, q3 = quartiles(vals)
        b = bounds.get(name)
        flag = "  WIDER THAN BOUND" if b is not None and spread(vals) > b else ""
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread(vals):>8.2%} "
              f"{'' if b is None else f'{b:.2f}':>6}{flag}")
    fail = [r["failed"] / r["attempted"] for r in res["runs"]]
    print(f"failed share per run: {sorted(set(fail))}; all correct: "
          f"{all(r['correct'] for r in res['runs'])}")


def compare(args):
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for key in ("workload", "seconds", "trace"):
        if base[key] != new[key]:
            sys.exit(f"the two result sets differ in {key}: {base[key]} vs {new[key]}")
    print(f"workload {base['workload']}: base {base['sha']} vs new {new['sha']} "
          f"(nproc {base['nproc']} / {new['nproc']})")
    ok = True
    for label, res in (("base", base), ("new", new)):
        wrong = [r["seed"] for r in res["runs"] if not r["correct"]]
        if wrong:
            print(f"  {label}: runs with wrong answers, seeds {wrong}")
            ok = False
    for m in spec()["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        missing = [r["seed"] for res in (base, new) for r in res["runs"]
                   if name not in r["metrics"]]
        if missing:
            print(f"  {name:<14} missing from the runs of seeds {missing}")
            ok = False
            continue
        a = [r["metrics"][name]["value"] for r in base["runs"]]
        b = [r["metrics"][name]["value"] for r in new["runs"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        wide = max(spread(a), spread(b)) > bound
        better_all = max(b) < min(a) if lower else min(b) > max(a)
        worse_all = min(b) > max(a) if lower else max(b) < min(a)
        if wide and not (better_all or worse_all):
            verdict = "UNRESOLVED (spread wider than bound)"
        elif worse > bound:
            verdict = "WORSE beyond bound"
            ok = False
        elif -worse > bound:
            verdict = "better beyond bound"
        else:
            verdict = "within bound"
        print(f"  {name:<14} base {ma:.6g} new {mb:.6g} worse by {worse:+.2%} "
              f"(bound {bound:.0%}, spreads {spread(a):.2%} / {spread(b):.2%}): {verdict}")
    fa = sorted({r["failed"] / r["attempted"] for r in base["runs"]})
    fb = sorted({r["failed"] / r["attempted"] for r in new["runs"]})
    if fa != fb:
        print(f"  failed share differs: {fa} vs {fb}")
        ok = False
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a workload N times and summarize")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    r.add_argument("--out", help="write the result set here (JSON)")
    c = sub.add_parser("compare", help="compare two result sets under the bounds")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    (run if args.cmd == "run" else compare)(args)


if __name__ == "__main__":
    main()
