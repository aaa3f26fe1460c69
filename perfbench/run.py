#!/usr/bin/env python3
"""Build and run the CloudQC repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the `perfbench` binary (the library
plus the benchmark program, Release) under $CARGO_TARGET_DIR, default `.bench_build`;
later calls only rebuild what changed. Build output goes to standard error.

A run forwards the binary's report and ends standard output with one JSON
object {"correct", "attempted", "failed", "metrics"}. Before printing it,
the metric names and units are checked against BENCHMARK.json: the
end-to-end list for --trace 0, the per-layer list for --trace 1. Any failed
build, output check or metric check exits with status 1 and prints no
result. --trace 1 also writes the spans of the last traced repetition to
<build dir>/spans/<workload>-seed<n>.csv.

--selftest checks that the decorators forward every entry point unchanged,
then runs every workload at a tiny size in both modes and checks that each
named metric is emitted with its unit.

Seeds: 1 is the default seed; 2 is held out, so a claim tuned on seed 1 can
be re-checked on a seed it was not tuned on.
"""

import argparse
import json
import os
import re
import subprocess
import sys

DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_report(line, expected):
    """Error text for a malformed report line, or None when it is valid."""
    try:
        report = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        return "report keys are not correct/attempted/failed/metrics"
    if report["correct"] is not True:
        return "report is not marked correct"
    for key in ("attempted", "failed"):
        if not isinstance(report[key], int) or report[key] < 0:
            return f"{key} is not a whole number"
    if report["attempted"] < 1:
        return "nothing was attempted"
    metrics = report["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        return f"metric names differ from BENCHMARK.json (missing {missing}, extra {extra})"
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            return f"bad metric name {name!r}"
        if set(entry) != {"value", "unit"} or entry["unit"] != want[name]:
            return f"metric {name} does not carry unit {want[name]!r}"
        if not isinstance(entry["value"], (int, float)):
            return f"metric {name} is not a number"
    return None


def run_once(binary, spec, workload, seed, seconds, trace, tiny=False):
    """Run one benchmark pass; returns its stdout lines, or None on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace == 1:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        log(f"{workload} failed with status {proc.returncode}")
        return None
    expected = spec["per_layer"] if trace == 1 else spec["end_to_end"]
    error = check_report(lines[-1], expected)
    if error:
        log(f"{workload}: {error}")
        return None
    return lines


def selftest(binary, spec):
    ok = subprocess.run([binary, "--selftest"]).returncode == 0
    for kind in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[kind]:
            if not NAME_RE.match(entry["name"]):
                log(f"bad {kind} name {entry['name']!r}")
                ok = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            lines = run_once(binary, spec, workload, DEFAULT_SEED, 1, trace,
                             tiny=True)
            print(f"{'ok  ' if lines else 'FAIL'} {workload} --trace {trace} "
                  "emits every named metric with its unit")
            ok = ok and lines is not None
    print("selftest:", "passed" if ok else "FAILED")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1
    spec = load_spec()
    if args.selftest:
        return 0 if selftest(binary, spec) else 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; BENCHMARK.json lists {names}")
        return 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    lines = run_once(binary, spec, args.workload, args.seed, seconds, args.trace)
    if lines is None:
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
