#!/usr/bin/env python3
"""Run one workload on several seeds and print each end-to-end metric's
spread: the distance between the first and third quartile of the values
(statistics.quantiles, n=4) as a share of their median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload service-warm --seeds 1-10

Run from the repository root; the runs go through perfbench/run.sh.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        if p.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
        res = json.loads(last)
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {last}")
        row = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    worst = True
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]
        ok = name == "setup_s" or spread <= bound / 3
        worst = worst and ok
        print(f"{name:14s} median {med:12.4f} spread {spread:6.3f} bound {bound} "
              f"{'ok' if ok else 'OVER bound/3'}")
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
