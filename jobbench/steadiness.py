#!/usr/bin/env python3
"""Steadiness check for the discovery-job benchmark.

Runs the command in BENCHMARK.json once per seed on each workload, then
reports, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound. Run from the repository root:

    python3 jobbench/steadiness.py --seeds 1-10 --out jobbench/results/set-a.json
    python3 jobbench/steadiness.py --workloads pdb_cold --seeds 1-5 --trace 1

`--compare A.json B.json` instead checks two recorded sets against each
other on the workloads BENCHMARK.json lists: every spread within its bound
and every median of B within the bound of A's, better or worse.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    return {"seed": seed, "wall_s": round(wall, 1), "result": result, "detail": detail,
            "stderr": proc.stderr.strip().splitlines()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def measure(args, bench):
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {"trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(bench, workload, seed, args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: {run['wall_s']} s, correct "
                  f"{run['result']['correct']}, failed {run['result']['failed']}", flush=True)
        metrics = {}
        for d in defs:
            values = [r["result"]["metrics"][d["name"]]["value"] for r in runs]
            metrics[d["name"]] = summarize(values) if len(values) >= 2 else {"values": values}
            metrics[d["name"]]["bound"] = d.get("bound")
        report["workloads"][workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
        walls = [r["detail"].get("wall_job_s.p50") for r in runs]
        if len(walls) >= 2 and None not in walls:
            # The raw wall-clock median, before host-speed scaling: its
            # spread shows how much the scaling takes out.
            w = summarize(walls)
            print(f"  {'(wall_job_s.p50, unscaled)':28s} median {w['median']:.6g}  "
                  f"spread {w['spread']:.4f}")
        for name, m in metrics.items():
            if "spread" in m and m["bound"] is not None:
                flag = "" if m["spread"] < m["bound"] / 3 else "  <-- not below bound/3"
                print(f"  {name:28s} median {m['median']:.6g}  spread {m['spread']:.4f}  "
                      f"bound {m['bound']}{flag}")
    return report


def compare(path_a, path_b, bench):
    a = json.load(open(path_a))
    b = json.load(open(path_b))
    ok = True
    gated = [w["name"] for w in bench["workloads"]]
    for d in bench["end_to_end"]:
        name, bound, lower = d["name"], d["bound"], d["better"] == "lower"
        for workload in [w for w in a["workloads"] if w in gated]:
            ma = a["workloads"][workload]["metrics"][name]
            mb = b["workloads"][workload]["metrics"][name]
            worse = (mb["median"] - ma["median"]) if lower else (ma["median"] - mb["median"])
            change = worse / ma["median"]
            spread_ok = ma["spread"] <= bound and mb["spread"] <= bound
            verdict = "ok" if spread_ok and abs(change) <= bound else "FAIL"
            ok &= verdict == "ok"
            print(f"{workload:12s} {name:28s} spreads {ma['spread']:.4f}/{mb['spread']:.4f}  "
                  f"worse by {change:+.4f}  bound {bound}  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", type=lambda s: s.split(","))
    parser.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    if args.compare:
        sys.exit(0 if compare(*args.compare, bench) else 1)
    args.workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = measure(args, bench)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
