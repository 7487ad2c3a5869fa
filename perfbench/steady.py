#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of ten runs of every workload.

    python3 perfbench/steady.py

For each seed from 1 to 10 it runs every workload twice, once for each
set, back to back; the workload order and which set goes first alternate
between seeds, so slow host drift does not always land on the same one.
Each run lasts BENCHMARK.json's run_seconds and reports the end-to-end
metrics. Per metric and set it prints the median, the quartiles (Python's
statistics.quantiles, n=4), (q3 - q1) / median and (max - min) / median,
and the second set's median relative to the first's. A metric is flagged
when in either set its quartile spread exceeds a third of its bound in
BENCHMARK.json ("iqr") or its range exceeds the bound ("range"), or when
the two medians differ by more than the bound ("shift"). Before each run a
fixed memory-bound loop (perfbench --calibrate) is timed: when it moves,
the host moved, and a metric that moved with it is drift rather than a
regression. That loop is a diagnostic, not a metric.
Exit status: 1 if any metric was flagged or any run failed.
"""

import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RUNS = 10
FIRST_SEED = 1
SETS = (0, 1)


def calibrate(exe):
    out = subprocess.run([exe, "--calibrate"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return float(out.split()[-1])


def spread(vs):
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return med, q1, q3, (q3 - q1) / med, (max(vs) - min(vs)) / med


def main():
    spec = run.load_spec()
    metrics = spec["end_to_end"]
    exe = run.build()
    values = {(w, s): {m["name"]: [] for m in metrics}
              for w in run.WORKLOADS for s in SETS}
    calibration = []
    failed = False
    for r in range(RUNS):
        seed = FIRST_SEED + r
        order = run.WORKLOADS if r % 2 == 0 else run.WORKLOADS[::-1]
        for w in order:
            for s in (SETS if r % 2 == 0 else SETS[::-1]):
                calibration.append(calibrate(exe))
                code, _, result = run.run_workload(exe, spec, w, seed,
                                                   spec["run_seconds"], 0)
                if result is None or code != 0:
                    print(f"seed {seed} {w} set {s}: FAILED (exit {code})")
                    failed = True
                    continue
                for name, m in result["metrics"].items():
                    values[w, s][name].append(m["value"])
                print(f"seed {seed} {w} set {s}: calibration "
                      f"{calibration[-1]:.1f} ms; " +
                      " ".join(f"{k}={m['value']:.4g}"
                               for k, m in result["metrics"].items()),
                      flush=True)

    print(f"\ncalibration loop: median {statistics.median(calibration):.1f} ms,"
          f" min {min(calibration):.1f}, max {max(calibration):.1f} "
          f"over {len(calibration)} runs")
    flagged = False
    for w in run.WORKLOADS:
        print(f"\n{w}")
        print(f"  {'metric':22} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'rng/med':>8} {'shift':>7} "
              f"{'bound':>5}")
        for m in metrics:
            bound = m["bound"]
            sets = [values[w, s][m["name"]] for s in SETS]
            if min(len(vs) for vs in sets) < 2:
                failed = True
                continue
            stats = [spread(vs) for vs in sets]
            shift = stats[1][0] / stats[0][0] - 1
            flags = []
            if max(st[3] for st in stats) > bound / 3:
                flags.append("iqr")
            if max(st[4] for st in stats) > bound:
                flags.append("range")
            if abs(shift) > bound:
                flags.append("shift")
            flagged = flagged or bool(flags)
            for s, (med, q1, q3, iqr, rng) in zip(SETS, stats):
                last = s == SETS[-1]
                print(f"  {m['name'] if s == 0 else '':22} {s:>3} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {iqr:8.3f} {rng:8.3f} "
                      f"{f'{shift:+.3f}' if last else '':>7} "
                      f"{bound if last else '':>5} "
                      f"{' '.join(flags) if last else ''}")
    sys.exit(1 if flagged or failed else 0)


if __name__ == "__main__":
    main()
