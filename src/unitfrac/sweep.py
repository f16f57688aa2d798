"""Exhaustive soundness sweep of the catalog over enumerated solutions.

For every reduced fraction m/n in a rectangle (n <= n_max, m <= m_factor*n)
and every 4-term solution, check that the decomposition satisfies:

  - the master equation,
  - singleton relative gcds x_i = 1,
  - coprimality of cofactors with n/n_i and of incomparable x-pairs,
  - integrality of all ten z-quotients under the chosen convention,
  - all 13 inequality templates.

The 96 catalog rules are not re-checked here: each is the master equation
or a quotient definition rearranged, so it holds on every solution that
passes the first and fourth checks.  The test
`test_every_rule_follows_from_master_and_quotient_definitions` in
tests/test_catalog.py proves this symbolically under both conventions.

The checks are one function body, `checker_source(convention)`, built from
the same quotient lines that `decompose()` runs and from the inequality
templates in `catalog`; the generators live in `codegen`, so the sweep loads
neither `decomposition` nor `dataclasses`.  Its only compiled form is the
walk, one per convention (`walk_source`): the enumeration's loops over a1
and a2 and its divisor tail for (a3, a4), with each pattern value computed
in the loop where its inputs are known, and the layered gcds and the
checker's body inlined at the leaf on local integers, where a pair-gcd check
calls gcd only when neither argument is 1.  Under the "reduced" convention
the pair quotients are not always integral; such solutions carry no
decomposition to check and are counted as skipped rather than failed.
`decomposition.verify` is the one-solution form: it reports the same
check keys and stops where this checker stops.
"""

from __future__ import annotations

import math
import re
import time
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import params as P
from .catalog import InequalityTemplate, build_inequalities
from .codegen import (INCOMPARABLE_PAIRS, PATTERN_ARGS, function_source,
                      layered_gcd_lines, pattern_data, product_expr,
                      quotient_lines)
from .enumeration import _tail_divisors
from .errors import InvariantError, check_integer
from .params import check_convention

_CHECKER_NAME = "_check_solution"


def _inequality_lines(tmpl: InequalityTemplate) -> List[str]:
    left: List[str] = []
    for p, e in tmpl.lhs.items():
        left.extend([p] * e)
    for s, e in tmpl.pattern.items():
        left.extend([s] * e)
    if tmpl.m_exp:
        left.append("m**%d" % -tmpl.m_exp if tmpl.m_exp < -1 else "m")
    right = ["%d" % tmpl.constant,
             "n" if tmpl.n_exp == 1 else "n**%d" % tmpl.n_exp]
    for p, e in tmpl.rhs.items():
        right.extend([p] * e)
    key = "ineq:%s" % tmpl.key
    return ["if %s > %s:" % (product_expr(left), product_expr(right)),
            "    fails.append(%r)" % key]


def _record_failure(check: str, num: str, den: str) -> List[str]:
    key = check if check == "master" else "zint:" + check
    return ["fails.append(%r)" % key, "return fails"]


def checker_source(convention: str = "standard") -> str:
    """Source of the check body, as one function `_check_solution`.

    The sweep runs this body only inlined in its walk (see walk_source);
    as a function of (m, n, *pattern data, *x, *t) returning the failing
    check keys it is the one-solution form the tests compile and compare.
    """
    check_convention(convention)
    args = ("m", "n") + PATTERN_ARGS + P.X_PARAMS + ("t1", "t2", "t3", "t4")
    master, quotients = quotient_lines(convention, _record_failure)
    body: List[str] = ["fails = []"] + master
    for i in P.INDICES:
        body += ["if _gcd(t%d, nn%d) != 1:" % (i, i),
                 "    fails.append('coprime:t%d')" % i]
    for a, b in INCOMPARABLE_PAIRS:
        body += ["if _gcd(%s, %s) != 1:" % (a, b),
                 "    fails.append('coprime:%s*%s')" % (a, b)]
    body += quotients
    for tmpl in build_inequalities():
        body += _inequality_lines(tmpl)
    body.append("return fails")
    return function_source(_CHECKER_NAME, args, body)


_WALK_NAME = "_walk"

# The per-fraction counters `SweepReport.stats` adds up, in output order.
STATS_KEYS = ("a1_nodes", "a2_nodes", "tail_calls", "solutions", "skipped")

# Pattern values the walk's loops compute; the leaf reads the rest of
# pattern_data from a per-n cache.
_LOOP_PATTERN = ("n1", "nn1", "n2", "nn2", "d12", "n3", "n4")

# The heads of the enumeration's loops over a1 and a2: the fraction left
# for the terms after a_i and the pattern values of a_i.
_A1_HEAD = [
    "a1_nodes += 1",
    "n1 = _gcd(a1, n)",
    "nn1 = n // n1",
    "t1 = a1 // n1",
    "p1 = m * a1 - n",
    "q1 = n * a1",
    "g = _gcd(p1, q1)",
    "p1 //= g",
    "q1 //= g",
]
_A2_HEAD = [
    "a2_nodes += 1",
    "n2 = _gcd(a2, n)",
    "nn2 = n // n2",
    "t2 = a2 // n2",
    "d12 = _gcd(nn1, nn2)",
    "p2 = p1 * a2 - q1",
    "q2 = q1 * a2",
    "g = _gcd(p2, q2)",
    "p2 //= g",
    "q2 //= g",
    "qq = q2 * q2",
]

_PAIR_CHECK = re.compile(r"if _gcd\((\w+), (\w+)\) != 1:")


def _indented(lines: List[str], depth: int = 1) -> List[str]:
    return ["    " * depth + line for line in lines]


def _check_block(convention: str) -> List[str]:
    # The checker's body, one level out, with each `return fails` turned
    # into a `break` out of the leaf's one-pass `while True:` block.
    lines: List[str] = []
    for line in checker_source(convention).splitlines()[1:]:
        line = line[4:]
        if line.strip() == "return fails":
            line = line[:-len("return fails")] + "break"
        lines.append(line)
    return lines


def _guarded(block: List[str]) -> List[str]:
    # Each top-level `if _gcd(a, b) != 1:` statement, whole, under
    # `if a != 1 and b != 1:`: gcd(a, b) is 1 when either is 1.
    lines: List[str] = []
    pair = None
    for line in block:
        if not line.startswith(" "):
            pair = _PAIR_CHECK.fullmatch(line)
            if pair:
                lines.append("if %s != 1 and %s != 1:" % pair.groups())
        lines.append("    " + line if pair else line)
    return lines


def walk_source(convention: str = "standard") -> str:
    """Source of the walk over the 4-term solutions of one reduced m/n.

    `_walk(m, n, patterns, room)` runs the enumeration's loops over a1 and
    a2 and its divisor tail for (a3, a4), in the same lexicographic order.
    Each pattern value is computed in the loop where its inputs are known;
    `patterns`, one dict per n, caches the rest of the pattern data.  At
    each leaf the layered gcds and the checker's body run on locals, as
    they stand but for one rewrite (`_guarded`): a pair-gcd check runs its
    gcd only when neither argument is 1.  Every check runs at the leaf;
    deciding coprime:t1 once per a1 and coprime:t2 once per a2 saved 2%
    or less of the sweep.  Only a failing check builds the solution
    tuple, as a SweepFailure.  Under "reduced" a non-integral quotient is
    counted as skipped instead.  The walk returns (solutions, skipped,
    a1 nodes, a2 nodes, failures) as soon as the failures reach `room`,
    or at the end.
    """
    singles = tuple(P.x_name((i,)) for i in P.INDICES)
    gcds = [line for line in layered_gcd_lines()
            if not line.startswith("return ")]
    cached = [i for i, name in enumerate(PATTERN_ARGS)
              if name not in _LOOP_PATTERN]
    result = "return solutions, skipped, a1_nodes, a2_nodes, found"
    failure = "found.append(_Failure(m, n, (a1, a2, a3, a4), key))"
    if convention == "reduced":
        record = ["if key[:5] == 'zint:':", "    skipped += 1",
                  "else:", "    " + failure]
    else:
        record = [failure]
    leaf = [
        "a3 = (d + q2) // p2",
        "a4 = (qq // d + q2) // p2",
        "solutions += 1",
        "n3 = _gcd(a3, n)",
        "n4 = _gcd(a4, n)",
        "t3 = a3 // n3",
        "t4 = a4 // n4",
        "data = patterns.get((n1, n2, n3, n4))",
        "if data is None:",
        "    data = _pattern_data(n, (n1, n2, n3, n4))",
        "    data = patterns[n1, n2, n3, n4] = (%s)"
        % ", ".join("data[%d]" % i for i in cached),
        "%s = data" % ", ".join(PATTERN_ARGS[i] for i in cached),
        "while True:",
    ] + _indented(_guarded(gcds + [
        "if %s:" % " or ".join("%s != 1" % x for x in singles),
        "    fails = [key for key, x in (%s) if x != 1]"
        % ", ".join("('singleton:%s', %s)" % (x, x) for x in singles),
        "    break",
    ] + _check_block(convention))) + [
        "if fails:",
        "    for key in fails:",
    ] + _indented(record, 2) + [
        "    if len(found) >= room:",
        "        " + result,
    ]
    body = [
        "found = []",
        "solutions = skipped = a1_nodes = a2_nodes = 0",
        "for a1 in range(n // m + 1, 4 * n // m + 1):",
    ] + _indented(_A1_HEAD + [
        "for a2 in range(max(a1, q1 // p1 + 1), 3 * q1 // p1 + 1):",
    ] + _indented(_A2_HEAD + [
        "for d in sorted(_tail(a2, p2, q2)):",
    ] + _indented(leaf))) + [result]
    return function_source(_WALK_NAME, ("m", "n", "patterns", "room"), body)


@lru_cache(maxsize=None)
def compiled_walk(convention: str = "standard") -> Callable:
    """Compile the walk for one convention (see walk_source)."""
    source = walk_source(convention)
    namespace: Dict[str, object] = {
        "_gcd": math.gcd, "_tail": _tail_divisors,
        "_pattern_data": pattern_data, "_Failure": SweepFailure,
        "_InvariantError": InvariantError}
    exec(compile(source, "<%s walk>" % convention, "exec"), namespace)
    func = namespace[_WALK_NAME]
    func.source = source
    return func


class SweepFailure(NamedTuple):
    """One failed check on one enumerated solution."""

    m: int
    n: int
    denominators: Tuple[int, int, int, int]
    check: str

    def __str__(self) -> str:
        return "%s for %d/%d on %s" % (self.check, self.m, self.n,
                                       self.denominators)


class SweepReport:
    """Outcome of a soundness sweep."""

    def __init__(self, n_max: int, m_factor: int, convention: str) -> None:
        self.n_max = n_max
        self.m_factor = m_factor
        self.convention = convention
        self.fractions = self.solutions = self.skipped = 0
        self.failures: List[SweepFailure] = []
        self.elapsed = 0.0
        self.complete = True  # False when fail_limit stopped the sweep
        # per-fraction counters of the walk, keys in STATS_KEYS order
        self.stats: Dict[str, int] = dict.fromkeys(STATS_KEYS, 0)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            "swept %d fractions / %d solutions (n <= %d, m <= %dn, %s): "
            "%d failures, %d skipped, %.1fs%s"
            % (self.fractions, self.solutions, self.n_max, self.m_factor,
               self.convention, len(self.failures), self.skipped,
               self.elapsed,
               "" if self.complete else "; PARTIAL: stopped at the fail limit")
        )


def sweep_soundness(
    n_max: int = 50,
    m_factor: int = 4,
    convention: str = "standard",
    fail_limit: Optional[int] = None,
    progress: Optional[Callable[[int, "SweepReport"], None]] = None,
) -> SweepReport:
    """Check every solution of every reduced m/n in the rectangle.

    Every failed check is recorded as a SweepFailure.  Reaching
    fail_limit, if given, stops the sweep with complete=False.  Under the
    "reduced" convention, solutions whose pair quotients are non-integral
    have no decomposition and are counted in `skipped` instead; under
    "standard" a non-integral quotient is a failure.  `progress`, if
    given, is called after each n with (n, report-so-far).
    """
    check_convention(convention)
    check_integer(n_max, "n_max", 1)
    check_integer(m_factor, "m_factor", 1)
    if fail_limit is not None:
        check_integer(fail_limit, "fail_limit", 1)
    walk = compiled_walk(convention)
    report = SweepReport(n_max=n_max, m_factor=m_factor,
                         convention=convention)
    stats = report.stats
    room = math.inf if fail_limit is None else fail_limit
    gcd = math.gcd
    started = time.perf_counter()
    for n in range(1, n_max + 1):
        # no m/n > 4 is a sum of four unit fractions: past m = 4n only the
        # reduced m are counted, (m_factor - 4) * phi(n) of them
        patterns: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for m in range(1, min(m_factor, 4) * n + 1):
            if gcd(m, n) != 1:
                continue
            report.fractions += 1
            solutions, skipped, a1_nodes, a2_nodes, found = walk(
                m, n, patterns, room - len(report.failures))
            report.solutions += solutions
            report.skipped += skipped
            report.failures += found
            stats["a1_nodes"] += a1_nodes
            stats["a2_nodes"] += a2_nodes
            stats["tail_calls"] += a2_nodes  # one tail per a2 node
            if len(report.failures) >= room:
                report.complete = False
                return _finish(report, started)
        if m_factor > 4:
            report.fractions += (m_factor - 4) * sum(
                1 for m in range(1, n + 1) if gcd(m, n) == 1)
        if progress is not None:
            progress(n, _finish(report, started))
    return _finish(report, started)


def _finish(report: SweepReport, started: float) -> SweepReport:
    report.elapsed = time.perf_counter() - started
    report.stats["solutions"] = report.solutions
    report.stats["skipped"] = report.skipped
    return report
