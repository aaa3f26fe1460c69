#!/usr/bin/env python3
"""Check that the repository benchmark's simulated outputs have not moved.

Run from anywhere:

    python3 tools/check_bench_outputs.py            # compare, exit 1 on a diff
    python3 tools/check_bench_outputs.py --record   # rewrite the fixture

Runs `perfbench/run.py --seconds 1` for every workload in BENCHMARK.json with
seeds 1 and 2 and compares the simulated outputs (jct_mean, jct_p50,
jct_tail, makespan, remote_ops_mean) exactly against
tests/fixtures/bench_outputs.json. The values are pure functions of the
workload and seed, so any difference is a behaviour change: an
output-preserving optimisation must leave the fixture untouched, and a
change that moves outputs on purpose re-records it with --record.
Wall-clock metrics (jobs_per_s, setup_s, peak_rss_mb) are not compared.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "bench_outputs.json")
SEEDS = (1, 2)
METRICS = ("jct_mean", "jct_p50", "jct_tail", "makespan", "remote_ops_mean")


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(workload, seed):
    """Simulated outputs of one perfbench run, or None when it failed."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    metrics = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])["metrics"]
    return {name: metrics[name]["value"] for name in METRICS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the fixture from this checkout")
    args = parser.parse_args()

    got = {}
    for workload in workloads():
        for seed in SEEDS:
            key = f"{workload}/seed{seed}"
            outputs = run(workload, seed)
            if outputs is None:
                print(f"FAIL {key}: perfbench run failed")
                return 1
            got[key] = outputs

    if args.record:
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        with open(FIXTURE, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded {len(got)} runs into {os.path.relpath(FIXTURE, ROOT)}")
        return 0

    with open(FIXTURE) as f:
        want = json.load(f)
    ok = set(got) == set(want)
    if not ok:
        print(f"FAIL runs differ: fixture has {sorted(want)}, "
              f"ran {sorted(got)}")
    for key in sorted(set(got) & set(want)):
        diffs = [f"{m} {want[key][m]!r} -> {got[key][m]!r}"
                 for m in METRICS if got[key][m] != want[key][m]]
        print(f"{'FAIL' if diffs else 'ok  '} {key}"
              + (": " + ", ".join(diffs) if diffs else ""))
        ok = ok and not diffs
    print("bench outputs:", "identical" if ok else "CHANGED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
