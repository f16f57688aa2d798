"""The three workloads: their inputs, set-up, timed pass and output checks.

Each workload runs in a fresh interpreter (see worker.py).  `setup` imports
the package and pays the lazy set-up a first result would pay; `run` is the
timed pass, which makes every call through the package's public functions;
`check` compares the outputs with computations made apart from the package
(reference.py and the benchmark's own arithmetic below).
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

import reference

# sweep: one rectangle n <= SWEEP_NMAX, m <= 4n, standard then reduced.
SWEEP_NMAX = 10
SWEEP_MFACTOR = 4
SWEEP_CONVENTIONS = ("standard", "reduced")

# count: f_4 over reduced m/n drawn from n <= COUNT_NMAX, m <= 4n; the
# fractions are grouped by n and by the binary length of m, and the seed
# draws half of each group (rounded up), so every 1/n is always drawn.
COUNT_NMAX = 20
COUNT_MFACTOR = 4
COUNT_SHARE = 2
COUNT_DEEP = (1, 2, 6)  # f_6(1,2)

# search: default g_max and the default library at this budget, the
# smallest budget whose frontier holds both of the paper's pairs.
SEARCH_BUDGET = 9
PAPER_PAIRS = ((Fraction(3, 2), Fraction(3, 4)), (Fraction(8, 5), Fraction(1)))


def count_inputs(seed: int):
    """The reduced fractions the count workload draws for this seed."""
    rng = random.Random(seed)
    groups: dict = {}
    for m, n in reference.reduced_fractions(COUNT_NMAX, COUNT_MFACTOR):
        groups.setdefault((n, m.bit_length()), []).append((m, n))
    drawn = []
    for key in sorted(groups):
        members = groups[key]
        drawn.extend(sorted(rng.sample(members, -(-len(members) // COUNT_SHARE))))
    return drawn


class Pass:
    """Book-keeping for one timed pass: operations, boundary timings."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.boundary: dict = {}
        self.counts: dict = {}

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def op(self, layer: str, fn, *args, **kwargs):
        """One operation: a public call, counted, timed, failures kept."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            with self.span(layer):
                return fn(*args, **kwargs), time.perf_counter() - started
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.failed += 1
            self.errors.append("%s%r: %s: %s" % (getattr(fn, "__name__", fn),
                                                 args, type(exc).__name__, exc))
            return None, time.perf_counter() - started

    def add(self, name: str, value) -> None:
        self.boundary[name] = self.boundary.get(name, 0) + value


# --- sweep ---------------------------------------------------------------


class Sweep:
    name = "sweep"

    def setup(self, ctx: Pass, seed: int) -> None:
        import unitfrac
        import unitfrac.sweep as sweep_module

        self.sweep_soundness = unitfrac.sweep_soundness
        started = time.perf_counter()
        compiled = getattr(sweep_module, "compiled_checker", None)
        if compiled is not None:
            for convention in SWEEP_CONVENTIONS:
                compiled(convention)
        ctx.add("sweep.compile_s", time.perf_counter() - started)

    def run(self, ctx: Pass):
        reports = {}
        slowest = 0.0
        for convention in SWEEP_CONVENTIONS:
            last = [time.perf_counter()]
            steps = []

            def progress(n, report, last=last, steps=steps):
                now = time.perf_counter()
                steps.append(now - last[0])
                last[0] = now

            report, elapsed = ctx.op("sweep", self.sweep_soundness, SWEEP_NMAX,
                                     SWEEP_MFACTOR, convention,
                                     progress=progress)
            reports[convention] = report
            ctx.add("sweep.%s_s" % convention, elapsed)
            slowest = max([slowest] + steps)
        ctx.add("sweep.slowest_n_s", slowest)
        return reports

    def check(self, ctx: Pass, reports, table: dict) -> list:
        errors = []
        fractions = reference.reduced_fractions(SWEEP_NMAX, SWEEP_MFACTOR)
        rows = [r for r in table["rows"] if r[1] <= SWEEP_NMAX]
        solutions = sum(r[2] for r in rows)
        fractional = sum(r[3] for r in rows)
        expect_skipped = {"standard": 0, "reduced": fractional}
        for convention, report in reports.items():
            if report is None:
                continue
            if report.failures:
                errors.append("%s sweep failures: %s"
                              % (convention, [str(f) for f in report.failures[:3]]))
            if report.fractions != len(fractions):
                errors.append("%s sweep: %d fractions, gcd count %d"
                              % (convention, report.fractions, len(fractions)))
            if report.solutions != solutions:
                errors.append("%s sweep: %d solutions, reference %d"
                              % (convention, report.solutions, solutions))
            if report.skipped != expect_skipped[convention]:
                errors.append("%s sweep: %d skipped, reference %d"
                              % (convention, report.skipped,
                                 expect_skipped[convention]))
        done = [r for r in reports.values() if r is not None]
        ctx.counts["enumeration.solutions"] = sum(r.solutions for r in done)
        reduced = reports.get("reduced")
        ctx.counts["sweep.skipped"] = reduced.skipped if reduced else 0
        return errors


# --- count ---------------------------------------------------------------


class Count:
    name = "count"

    def setup(self, ctx: Pass, seed: int) -> None:
        from unitfrac import count_representations

        self.count = count_representations
        self.queries = ([(m, n, 4) for m, n in count_inputs(seed)]
                        + [COUNT_DEEP]
                        + [(1, 1, k) for k in range(1, 7)])

    def run(self, ctx: Pass):
        results = []
        for m, n, k in self.queries:
            value, elapsed = ctx.op("enumeration.count", self.count, m, n, k)
            results.append(value)
            if k in (4, 6):
                ctx.add("enumeration.count_k%d_s" % k, elapsed)
        return results

    def check(self, ctx: Pass, results, table: dict) -> list:
        errors = []
        f4 = {(r[0], r[1]): r[2] for r in table["rows"]}
        expected = []
        for m, n, k in self.queries:
            if (m, n, k) == COUNT_DEEP:
                expected.append(table["f_6(1,2)"])
            elif (m, n) == (1, 1):
                expected.append(reference.A002966[k - 1])
            else:
                expected.append(f4[(m, n)])
        for query, got, want in zip(self.queries, results, expected):
            if got is not None and got != want:
                errors.append("f_%d(%d,%d) = %r, reference %d"
                              % (query[2], query[0], query[1], got, want))
        ctx.counts["enumeration.solutions"] = sum(v for v in results if v)
        return errors


# --- search --------------------------------------------------------------


def pareto_violations(points) -> list:
    """Pairs in which one point is at least as good as another: A/g no
    larger and B/g no smaller.  Empty for an antichain."""
    bad = []
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i != j and p[0] <= q[0] and p[1] >= q[1]:
                bad.append((p, q))
    return bad


def packing_errors(exponents, bases, leftover, g) -> list:
    """The g bases, each parameter counted once per base, fit under the
    exponent vector, and what remains is exactly the stated leftover."""
    errors = []
    if len(bases) != g:
        errors.append("%d bases for g=%d" % (len(bases), g))
    used = Counter(p for base in bases for p in base)
    rest = {}
    for p in set(exponents) | set(used):
        left = exponents.get(p, 0) - used.get(p, 0)
        if left < 0:
            errors.append("bases use %s %d times, exponent %d"
                          % (p, used[p], exponents.get(p, 0)))
        elif left:
            rest[p] = left
    if rest != {p: e for p, e in leftover.items() if e}:
        errors.append("leftover %s, expected %s" % (dict(leftover), rest))
    return errors


class Search:
    name = "search"

    def setup(self, ctx: Pass, seed: int) -> None:
        from unitfrac import default_library, replay_witness, search, witness_to_json

        self.search = search
        self.replay_witness = replay_witness
        self.witness_to_json = witness_to_json
        started = time.perf_counter()
        self.library = default_library()
        ctx.add("closure.library_s", time.perf_counter() - started)

    def run(self, ctx: Pass):
        result, _ = ctx.op("boundsearch.search", self.search, SEARCH_BUDGET,
                           library=self.library)
        return result

    def check(self, ctx: Pass, result, table: dict) -> list:
        if result is None:
            return []
        errors = []
        if not result.complete:
            errors.append("search stopped early")
        points = [(Fraction(b.A, b.g), Fraction(b.B, b.g)) for b in result.frontier]
        for p, q in pareto_violations(points):
            errors.append("frontier point %s is no worse than %s" % (p, q))
        for pair in PAPER_PAIRS:
            if pair not in points:
                errors.append("frontier lacks the paper's pair %s" % (pair,))
        for bound in result.frontier:
            exponents = dict(bound.inequality.exponents)
            for msg in packing_errors(exponents, bound.partition.bases,
                                      bound.partition.leftover, bound.g):
                errors.append("witness %s/%s: %s" % (bound.A, bound.g, msg))
            try:
                replayed = self.replay_witness(
                    json.loads(self.witness_to_json(bound)))
            except Exception as exc:
                errors.append("witness %s/%s does not replay: %s"
                              % (bound.A, bound.g, exc))
                continue
            if (replayed.A, replayed.B, replayed.g) != (bound.A, bound.B, bound.g):
                errors.append("witness %s/%s replays to A=%d B=%d g=%d"
                              % (bound.A, bound.g, replayed.A, replayed.B,
                                 replayed.g))
        ctx.counts["boundsearch.examined"] = result.examined
        ctx.counts["boundsearch.frontier_points"] = len(result.frontier)
        return errors


WORKLOADS = {w.name: w for w in (Sweep, Count, Search)}
