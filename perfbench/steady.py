#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly, one seed per run, and
print per metric and workload the median, the quartiles and the run-to-run
spread, the distance between the quartiles as a share of the median.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads cold-synth --seed0 100

Bounds and run length come from BENCHMARK.json. A spread marked "ok" is
below a third of the metric's bound (setup_s is reported, not judged: its
bound is checked only between medians). Each run's full output is kept
under .bench_build/perfbench/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


# Each run's full standard output is kept here for inspection.
LOGDIR = os.path.join(".bench_build", "perfbench", "steady")


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    os.makedirs(LOGDIR, exist_ok=True)
    with open(os.path.join(LOGDIR, f"{workload}-{seed}-trace{trace}.out"), "w") as f:
        f.write(out.stdout)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {res}\n{out.stderr}")
    return res


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0+i")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    raw = {}
    for wl in args.workloads.split(","):
        vals = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            res = run_once(spec["command"], wl, args.seed0 + i, args.seconds, args.trace)
            for name in vals:
                vals[name].append(res["metrics"][name]["value"])
            print(f"  {wl} seed {args.seed0 + i}: attempted {res['attempted']}", file=sys.stderr)
        raw[wl] = vals

    print(f"{'workload':<11} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for wl, vals in raw.items():
        for m in metrics:
            v = vals[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"{wl:<11} {m['name']:<30} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6}  {verdict}")
    print(json.dumps(raw))


if __name__ == "__main__":
    main()
