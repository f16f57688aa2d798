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

The hot loop runs a checker compiled once per convention from the same
quotient lines that `decompose()` runs and from the inequality templates
in `catalog`; the compiled function works on flat local integers.  Under
the "reduced" convention the pair quotients are not always integral; such
solutions carry no decomposition to check and are counted as skipped
rather than failed.  `decomposition.verify` is the one-solution form: it
reports the same check keys and stops where this checker stops.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from . import params as P
from .catalog import InequalityTemplate, build_inequalities
from .decomposition import (INCOMPARABLE_PAIRS, PATTERN_ARGS, X_VALUES,
                            function_source, layered_gcds, pattern_data,
                            product_expr, quotient_lines)
from .enumeration import iter_raw_solutions
from .errors import check_integer
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
    """Source of the compiled per-solution checker (one function)."""
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


@lru_cache(maxsize=None)
def compiled_checker(convention: str = "standard") -> Callable:
    """Compile the checker; returns failing check keys per solution."""
    source = checker_source(convention)
    namespace: Dict[str, object] = {"_gcd": math.gcd}
    exec(compile(source, "<%s checker>" % convention, "exec"), namespace)
    func = namespace[_CHECKER_NAME]
    func.source = source
    return func


@dataclass(frozen=True)
class SweepFailure:
    """One failed check on one enumerated solution."""

    m: int
    n: int
    denominators: Tuple[int, int, int, int]
    check: str

    def __str__(self) -> str:
        return "%s for %d/%d on %s" % (self.check, self.m, self.n,
                                       self.denominators)


@dataclass
class SweepReport:
    """Outcome of a soundness sweep."""

    n_max: int
    m_factor: int
    convention: str
    fractions: int = 0
    solutions: int = 0
    skipped: int = 0
    failures: List[SweepFailure] = field(default_factory=list)
    elapsed: float = 0.0
    complete: bool = True  # False when fail_limit stopped the sweep

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
    checker = compiled_checker(convention)
    skip_integrality = convention == "reduced"
    report = SweepReport(n_max=n_max, m_factor=m_factor,
                         convention=convention)
    gcd = math.gcd
    n_x = len(P.X_PARAMS)
    started = time.perf_counter()
    for n in range(1, n_max + 1):
        data_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for m in range(1, m_factor * n + 1):
            if gcd(m, n) != 1:
                continue
            report.fractions += 1
            for a in iter_raw_solutions(m, n, 4):
                report.solutions += 1
                pattern = (gcd(a[0], n), gcd(a[1], n),
                           gcd(a[2], n), gcd(a[3], n))
                data = data_cache.get(pattern)
                if data is None:
                    data = pattern_data(n, pattern)
                    data_cache[pattern] = data
                t = (a[0] // pattern[0], a[1] // pattern[1],
                     a[2] // pattern[2], a[3] // pattern[3])
                x = layered_gcds(*t)
                if x[n_x:] != (1, 1, 1, 1):
                    fails = ["singleton:" + name for name, value
                             in zip(X_VALUES[n_x:], x[n_x:]) if value != 1]
                else:
                    fails = checker(m, n, *data, *x[:n_x], *t)
                for key in fails:
                    if skip_integrality and key.startswith("zint:"):
                        report.skipped += 1
                    else:
                        report.failures.append(SweepFailure(m, n, a, key))
                if fail_limit is not None and len(report.failures) >= fail_limit:
                    report.complete = False
                    report.elapsed = time.perf_counter() - started
                    return report
        if progress is not None:
            report.elapsed = time.perf_counter() - started
            progress(n, report)
    report.elapsed = time.perf_counter() - started
    return report
