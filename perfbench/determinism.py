#!/usr/bin/env python3
"""Determinism check of the benchmark's own code.

    python3 perfbench/determinism.py

Runs every workload twice on seed 1 at reduced size (--small) and
requires identical count metrics: relabels_per_insert, label_bits,
heap_bytes_per_item and wire_bytes_per_edit. They are read after a fixed
number of operations, so they must not depend on timing. Then it runs each
workload once on the held-out seed, which no tuning used, to show the
inputs claims will be checked on still run clean. Exit status 1 on any
difference or failed run.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNTS = ("relabels_per_insert", "label_bits", "heap_bytes_per_item",
          "wire_bytes_per_edit")
SEED = 1
HELD_OUT_SEED = 424242
SECONDS = 1


def counts(exe, workload, seed):
    p = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(SECONDS), "--trace", "0", "--small"],
                       stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        return None
    metrics = json.loads(p.stdout.splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in COUNTS if k in metrics}


def main():
    exe = run.build()
    ok = True
    for w in run.WORKLOADS:
        first, second = counts(exe, w, SEED), counts(exe, w, SEED)
        same = first is not None and first == second
        ok = ok and same
        print(f"{w}: {'identical' if same else 'DIFFERENT'} {first}"
              + ("" if same else f" vs {second}"))
        held_out = counts(exe, w, HELD_OUT_SEED)
        ok = ok and held_out is not None
        print(f"{w} on held-out seed {HELD_OUT_SEED}: "
              f"{'ok' if held_out is not None else 'FAILED'} {held_out}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
