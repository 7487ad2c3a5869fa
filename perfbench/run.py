#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root. Each call configures and builds perfbench/
(which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; after the first call that is an incremental no-op. The binary's stdout
is passed through (one line per metric, with unit and sample count) and the
last line is one JSON object with the metrics BENCHMARK.json names for the
mode: its end_to_end metrics untraced, its per_layer metrics traced. The
exit status is non-zero when a check failed, the build failed, or a named
metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("doc_edit_query", "store_edit", "replica_sync")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds (incrementally); returns the binary's path."""
    out = build_dir()
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j", "4", "--target", "perfbench"]):
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(exe, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, human lines, result or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "traces")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-{seed}.csv")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, [], None
    lines = p.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload} exited {p.returncode} without a result",
              file=sys.stderr)
        return p.returncode or 1, lines, None
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: {workload} did not report {m['name']} "
                  f"in {m['unit']}", file=sys.stderr)
            return 1, lines[:-1], None
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return p.returncode, lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    exe = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for name in names:
        code, lines, result = run_workload(exe, spec, name, args.seed,
                                           args.seconds, args.trace)
        if len(names) > 1:
            print(f"== {name}")
        print("\n".join(lines))
        if result is None:
            sys.exit(1)
        results[name] = result
        status = status or code
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    sys.exit(status)


if __name__ == "__main__":
    main()
