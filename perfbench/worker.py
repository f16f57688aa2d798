"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload sweep --seed 1 --spawned-ns T [--trace]

T is time.monotonic_ns() read by the parent just before it started this
process, so set-up time counts interpreter start-up and imports.  run.py
starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

EXIT_NO_PROGRAM = 3

# Layers whose self times partition the traced pass, and the run's own
# code inside the pass (the remainder).
SELF_TIMES = {
    "sweep.self_s": "sweep",
    "decomposition.relative_gcds_s": "decomposition.relative_gcds",
    "sweep.checker_s": "sweep.checker",
    "enumeration.stream_s": "enumeration.stream",
    "enumeration.count_s": "enumeration.count",
    "arith.factorize_s": "arith.factorize",
    "arith.divisor_lists_s": "arith.divisor_lists",
    "boundsearch.self_s": "boundsearch.search",
    "boundsearch.pattern_reductions_s": "boundsearch.pattern_reductions",
    "boundsearch.partition_s": "boundsearch.partition",
}
ROOT_LAYER = "bench.pass"
CALLS = {
    "decomposition.relative_gcds_calls": "decomposition.relative_gcds",
    "sweep.checker_calls": "sweep.checker",
    "arith.factorize_calls": "arith.factorize",
    "boundsearch.pattern_reductions_calls": "boundsearch.pattern_reductions",
    "boundsearch.partition_calls": "boundsearch.partition",
}
# Self times must add up to the traced wall time less the run's own code
# within this share of the traced wall time.
SELF_SUM_TOLERANCE = 0.01


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work like the
    workloads': integer arithmetic, gcds, small tuples and dict traffic,
    then exact Fraction comparisons.  It uses nothing from the package;
    run.py scales the end-to-end times by it."""
    started = time.perf_counter()
    gcd = math.gcd
    table: dict = {}
    acc = 0
    for i in range(1, 400001):
        acc = (acc * 31 + gcd(i, 360360)) % 1000003
        table[i & 255] = (acc, i)
        if table.get(acc & 255) is None:
            acc += 1
    points = [(Fraction(i % 37 + 1, i % 11 + 1), Fraction(i % 23 + 1, i % 7 + 1))
              for i in range(400)]
    for p in points[::4]:
        for q in points:
            if q[0] <= p[0] and q[1] >= p[1] and q != p:
                acc += 1
    return time.perf_counter() - started


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install_wrappers(tracer) -> None:
    """Wrap, at the names each caller looks up, the calls between layers."""
    boundsearch = _module("unitfrac.boundsearch")
    closure = _module("unitfrac.closure")
    enumeration = _module("unitfrac.enumeration")
    sweep = _module("unitfrac.sweep")

    tracer.wrap(sweep, "relative_gcds", "decomposition.relative_gcds")
    tracer.wrap_factory(sweep, "compiled_checker", "sweep.checker")
    tracer.wrap_stream(sweep, "iter_raw_solutions", "enumeration.stream")
    tracer.wrap(enumeration, "factorize", "arith.factorize")
    tracer.wrap(enumeration, "divisors_from_factorization", "arith.divisor_lists",
                on_result=lambda divs: tracer.count("arith.divisors_listed",
                                                    len(divs)))
    tracer.wrap(boundsearch, "pattern_reductions", "boundsearch.pattern_reductions")
    tracer.wrap(boundsearch, "partition", "boundsearch.partition")
    tracer.count_calls(getattr(boundsearch, "DerivedBound", None), "score",
                       "boundsearch.score_evals")
    tracer.count_calls(getattr(closure, "CompiledRules", None), "closure_mask",
                       "closure.fixpoints")


def layer_metrics(tracer, traced_wall: float, setup_fixpoints: int) -> dict:
    metrics = {name: tracer.self_s(layer) for name, layer in SELF_TIMES.items()}
    metrics.update({name: tracer.calls_of(layer) for name, layer in CALLS.items()})
    untimed = tracer.self_s(ROOT_LAYER)
    layered = sum(metrics[name] for name in SELF_TIMES)
    if abs(layered - (traced_wall - untimed)) > SELF_SUM_TOLERANCE * traced_wall:
        raise RuntimeError("self times add up to %.6fs, traced wall %.6fs less "
                           "untimed %.6fs" % (layered, traced_wall, untimed))
    metrics["arith.divisors_listed"] = tracer.counts.get("arith.divisors_listed", 0)
    metrics["boundsearch.score_evals"] = tracer.counts.get("boundsearch.score_evals", 0)
    metrics["closure.fixpoints"] = setup_fixpoints
    metrics["run.untimed_s"] = untimed
    metrics["run.traced_wall_s"] = traced_wall
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    try:
        import unitfrac
    except ImportError as exc:
        print("cannot import unitfrac from %s: %s" % (SRC, exc), file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not os.path.abspath(unitfrac.__file__).startswith(SRC + os.sep):
        print("unitfrac came from %s, not %s" % (unitfrac.__file__, SRC),
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    from tracing import Tracer
    from workloads import WORKLOADS, Pass

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_wrappers(tracer)
    ctx = Pass(tracer)
    workload = WORKLOADS[args.workload]()
    workload.setup(ctx, args.seed)
    # time.monotonic_ns reads CLOCK_MONOTONIC, which is system-wide on Linux,
    # so it compares with the parent's reading.
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    setup_fixpoints = tracer.counts.get("closure.fixpoints", 0) if tracer else 0

    calibration = [calibrate()]
    cpu_before = _cpu_s()
    started = time.perf_counter()
    if tracer is None:
        outputs = workload.run(ctx)
    else:
        with tracer.span(ROOT_LAYER):
            outputs = workload.run(ctx)
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(calibrate())

    from reference import load_table

    errors = workload.check(ctx, outputs, load_table())
    result = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "correct": not errors,
        "errors": errors[:20] + ctx.errors[:20],
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": calibration,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": cpu_s,
        "boundary": ctx.boundary,
        "counts": ctx.counts,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall_s, setup_fixpoints)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "spans-%s.tsv" % args.workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
