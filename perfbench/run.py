"""Benchmark of the unitfrac workbench: sweep, count and search.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs timed passes of one workload, each in a fresh interpreter (worker.py),
one after another, until --seconds have passed, and prints as its last line
one JSON object: whether every output checked out, how many operations were
attempted and failed, and the metrics.  With --trace 0 the metrics are the
end-to-end ones, medians over the passes, with the times in calibrated
seconds (see CALIBRATION_REF_S).  With --trace 1 traced and
untraced passes alternate, and the metrics are the per-layer ones: self
times and call counts from the traced passes, the run's own boundary
timings and CPU time from the untraced ones, and the tracing overhead as
the difference of their wall-time medians.  The spans of the last traced
pass are written to perfbench/out/spans-<workload>.tsv, and every pass's
own figures to perfbench/out/passes-<workload>-seed<n>-trace<t>.json.

Exits 1 without a result when a pass fails to run, for example when the
package source is not in src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
MIN_PASSES = 3
# The median time of worker.calibrate over 30 runs of 30 s (seeds 1 to 10
# of each workload) on the machine the bounds were set on.  That machine's
# speed drifts by up to 2x over minutes, so each pass's set-up and wall
# times are scaled by this over the mean of the pass's two calibration
# times, taken right before and after the timed pass.  setup_s and wall_s
# are medians of the scaled times: calibrated seconds, the seconds a pass
# would take at the speed at which the loop takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.268
PASS_TIMEOUT_S = 150

OUT = os.path.join(HERE, "out")


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic_ns()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--spawned-ns", str(spawned)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("pass of %s failed with exit code %d"
                         % (workload, proc.returncode))
    return json.loads(lines[-1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def scaled(p: dict, key: str) -> float:
    """A time of one pass, at the speed its calibration loops measured."""
    return p[key] * CALIBRATION_REF_S * len(p["calibration_s"]) / sum(p["calibration_s"])


def scaled_wall(passes) -> float:
    return median([scaled(p, "wall_s") for p in passes])


def end_to_end(passes) -> dict:
    return {
        "setup_s": {"value": median([scaled(p, "setup_s") for p in passes]),
                    "unit": "s"},
        "wall_s": {"value": scaled_wall(passes), "unit": "s"},
        "peak_rss_mb": {"value": median([p["peak_rss_mb"] for p in passes]),
                        "unit": "MiB"},
    }


# Per-layer metrics the benchmark times or counts itself, around its own
# calls, in the untraced passes; the rest come from the traced passes'
# layers, or are worked out in per_layer.
BOUNDARY = ("sweep.standard_s", "sweep.reduced_s", "sweep.slowest_n_s",
            "sweep.compile_s", "enumeration.count_k4_s", "enumeration.count_k6_s",
            "closure.library_s")
COUNTS = ("enumeration.solutions", "sweep.skipped", "boundsearch.examined",
          "boundsearch.frontier_points")


def per_layer(traced, plain) -> dict:
    """Every per-layer metric BENCHMARK.json lists, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer"]
    values = {
        "run.cpu_s": median([p["cpu_s"] for p in plain]),
        "run.trace_overhead_s": scaled_wall(traced) - scaled_wall(plain),
        "run.raw_wall_s": median([p["wall_s"] for p in plain]),
        "run.calibration_s": median([c for p in plain for c in p["calibration_s"]]),
    }
    for name in BOUNDARY:
        values[name] = median([p["boundary"].get(name, 0.0) for p in plain])
    for name in COUNTS:
        values[name] = median([p["counts"].get(name, 0) for p in plain])
    for name in traced[0]["layers"]:
        values[name] = median([p["layers"][name] for p in traced])
    divisors = values["arith.divisors_listed"]
    values["enumeration.tail_yield_ratio"] = (
        values["enumeration.solutions"] / divisors if divisors else 0.0)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + args.seconds
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(run_pass(args.workload, args.seed, traced))
        have = ([p for p in passes if p["traced"]], [p for p in passes if not p["traced"]])
        enough = all(have) if args.trace else len(passes) >= MIN_PASSES
        if enough and time.monotonic() >= deadline:
            break

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "passes-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as out:
        json.dump(passes, out)
    correct = all(p["correct"] for p in passes)
    for p in passes:
        for error in p["errors"]:
            print("%s: %s" % (args.workload, error), file=sys.stderr)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = per_layer(traced, plain) if args.trace else end_to_end(plain)
    print("%s: %d passes (%d traced)" % (args.workload, len(passes), len(traced)),
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
