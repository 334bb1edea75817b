#!/usr/bin/env python3
"""Steadiness mode for the lamobench benchmark.

Runs each workload repeatedly with the command and run_seconds from
BENCHMARK.json, with seeds 1 to --runs, and prints every metric's
median, quartiles and spread (interquartile range as a share of the median) next to its bound. A
spread should stay below a third of its bound; `setup_s` is exempt from
the spread rule but not from the median comparison, so it gets the
largest bound.

With --trace 1 it runs the traced mode instead and prints the per-layer
metrics plus the tracing overhead: the traced end-to-end medians against
untraced ones from the same seeds.

Run from the root of the repository:

    python3 lamobench/steady.py --runs 10
    python3 lamobench/steady.py --runs 5 --workloads revise-yeast
    python3 lamobench/steady.py --runs 3 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    traced = json.loads(lines[-2])["traced_end_to_end"] if trace else None
    result["wall_s"] = wall
    return result, traced


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    for workload in names:
        seeds = range(1, args.runs + 1)
        results, traced = [], []
        for seed in seeds:
            result, t = run_once(spec, workload, seed, seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output checks failed")
            results.append(result)
            traced.append(t)
        shares = {r["failed"] / r["attempted"] for r in results}
        walls = [r["wall_s"] for r in results]
        print(f"== {workload}: {len(results)} runs, failed share {sorted(shares)}, "
              f"wall per run median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        metrics = sorted(results[0]["metrics"])
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3, s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = name == "setup_s" or s < bound / 3
                verdict = f"bound {bound:<5} {'ok' if ok else 'WIDE'}"
            print(f"  {name:<44} {unit:<6} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {s:7.2%}  {verdict}")
        if args.trace:
            print("  tracing overhead (traced median vs untraced median, same seeds):")
            plain = [run_once(spec, workload, seed, seconds, 0)[0] for seed in seeds]
            for name in sorted(traced[0]):
                on = statistics.median(t[name]["value"] for t in traced)
                off = statistics.median(r["metrics"][name]["value"] for r in plain)
                print(f"    {name:<24} traced {on:<12.6g} untraced {off:<12.6g} "
                      f"overhead {(on - off) / off:+.2%}")


if __name__ == "__main__":
    main()
