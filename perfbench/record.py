#!/usr/bin/env python3
"""Run every workload over several seeds and summarise each metric's spread.

From the repository root, the two runs that make ``baseline.json``:

    python3 perfbench/record.py --seeds 1-10 --trace 0 --out perfbench/baseline.json
    python3 perfbench/record.py --seeds 1-3 --trace 1 --out perfbench/baseline.json

Each run is one ``run.py`` process measuring BENCHMARK.json's run_seconds;
runs go seed by seed so that slow phases of a shared machine fall on every
workload alike.  For each metric
the summary gives the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  ``--out`` writes the summary, the environment of the first run
and the benchmark's definitions to a JSON file; an existing file keeps the
section (end_to_end for trace 0, per_layer for trace 1) not re-run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    result["raw"] = next((json.loads(line[4:]) for line in lines if line.startswith("raw ")), {})
    return result, env, lines[:-1]


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    mode = args.trace
    runs = {name: [] for name in names}
    env = None
    for seed in seeds:
        for name in names:
            result, run_env, lines = run_once(name, seed, seconds, mode)
            env = env or run_env
            runs[name].append(result)
            status = "ok" if result["correct"] else "NOT CORRECT"
            print(f"{name} seed {seed} trace {mode}: {result['attempted']} ops, {status}, "
                  f"load {run_env['loadavg_1m_at_start']:.2f}", flush=True)
            if not result["correct"]:
                print("\n".join(lines), flush=True)
    part = {}
    for name, results in runs.items():
        metrics = results[0]["metrics"]
        part[name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": {m: dict(unit=metrics[m]["unit"],
                                **summarise([r["metrics"][m]["value"] for r in results]))
                        for m in metrics},
        }
        if not mode:
            part[name]["raw"] = {m: summarise([r["raw"][m] for r in results])
                                 for m in results[0]["raw"]}
        print(f"\n{name} trace {mode}  (median, quartile spread over {len(results)} seeds)")
        for m, s in part[name]["metrics"].items():
            if mode and not s["median"]:
                continue
            print(f"  {m:44s} {s['median']:12.6g} {s['unit']:15s} spread {s['spread']:.3f}")
    correct = all(w["correct"] for w in part.values())
    if args.out:
        from layers import EXPECTED_EFFECTS

        payload = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                payload = json.load(fh)
        payload["per_layer" if mode else "end_to_end"] = {
            "seconds": seconds, "seeds": seeds, "env": env, "workloads": part}
        payload["workloads"] = {w["name"]: w["why"] for w in bench["workloads"]}
        payload["expected_effects"] = EXPECTED_EFFECTS
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
