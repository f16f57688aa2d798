"""Decomposition of 4-term solutions into pattern and relative-gcd data.

A nondecreasing tuple (a_1,..,a_4) with 1/a_1 + .. + 1/a_4 = m/n determines

* the pattern n_i = gcd(a_i, n) and cofactors t_i = a_i / n_i,
* the layered relative gcds x_J over index subsets J (x_J captures the
  common factor shared by exactly the cofactors t_i with i in J),
* the pattern constants d_J = gcd(n/n_i : i in J), and
* the integer quotients z_J certifying divisibility relations between the
  terms of the cleared master equation
      m * prod(x_J : |J| >= 2) = sum_i (n/n_i) * prod(x_J : i not in J).

Two quotient normalizations are supported.  Under the default "standard"
convention the pair quotient is

    z_ij = (term_i + term_j) / (d_ij * x_kl * x_ij),

which is always an integer for valid solutions.  The alternative "reduced"
convention divides by one more factor of x_kl; it is *not* always integral,
and a failure raises IntegralityError naming the offending parameter (such
a failure is a reportable finding, not a bug).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from . import params as P
from .catalog import build_inequalities
from .codegen import (  # noqa: F401 - the generators, re-exported
    INCOMPARABLE_PAIRS, PATTERN_ARGS, X_VALUES, function_source,
    layered_gcd_lines, pattern_data, product_expr, quotient_lines)
from .errors import (InputError, IntegralityError, InvariantError,
                     check_integer)
from .params import check_convention

def _define(name: str, args: Sequence[str], body: List[str],
            namespace: Dict[str, object]) -> Callable:
    exec(compile(function_source(name, args, body), "<%s>" % name, "exec"),
         namespace)
    return namespace[name]


def pattern_of(denominators: Sequence[int], n: int) -> Tuple[int, ...]:
    """Componentwise gcd of the denominators with n."""
    check_integer(n, "n", 1)
    return tuple(math.gcd(check_integer(a, "denominators[%d]" % i, 1), n)
                 for i, a in enumerate(denominators))


layered_gcds: Callable[..., Tuple[int, ...]] = _define(
    "layered_gcds", ("t1", "t2", "t3", "t4"), layered_gcd_lines(),
    {"_gcd": math.gcd, "_InvariantError": InvariantError},
)


def relative_gcds(t: Sequence[int]) -> Dict[str, int]:
    """Layered gcds of the cofactors over all nonempty index subsets.

    For each subset J, gcd(t_i : i in J) splits exactly as the product of
    x_K over supersets K of J; the value assigned to J is the leftover once
    all strictly larger layers are divided out.  Returns a dict keyed by
    x-parameter names ("x1" .. "x1234").
    """
    values = tuple(check_integer(v, "t[%d]" % i, 1) for i, v in enumerate(t))
    if len(values) != 4:
        raise InputError("expected four positive cofactors, got %r" % (values,))
    return dict(zip(X_VALUES, layered_gcds(*values)))


def _raise_lines(check: str, num: str, den: str) -> List[str]:
    if check == "master":
        return ["raise _InvariantError("
                "'master equation violated for %s' % (a,))"]
    return ["raise _IntegralityError(%r, %s, %s, a)" % (check, num, den)]


@lru_cache(maxsize=None)
def _quotient_kernel(convention: str) -> Callable:
    """(a, m, *pattern_data, **relative_gcds) -> (terms, z in Z_PARAMS order)"""
    master, quotients = quotient_lines(convention, _raise_lines)
    body = master + quotients + [
        "return (term1, term2, term3, term4), (%s)" % ", ".join(P.Z_PARAMS)]
    return _define(
        "_quotients", ("a", "m") + PATTERN_ARGS + X_VALUES, body,
        {"_InvariantError": InvariantError,
         "_IntegralityError": IntegralityError},
    )


@dataclass(frozen=True)
class Decomposition:
    """Full parameter data of one 4-term solution."""

    denominators: Tuple[int, int, int, int]
    fraction: Fraction
    pattern: Tuple[int, int, int, int]
    t: Tuple[int, int, int, int]
    x: Mapping[str, int]  # keys x1..x4 and x12..x1234
    z: Mapping[str, int]  # keys z12..z34, z123..z234
    terms: Tuple[int, int, int, int]  # master-equation summands
    convention: str

    @property
    def m(self) -> int:
        return self.fraction.numerator

    @property
    def n(self) -> int:
        return self.fraction.denominator

    def env(self) -> Dict[str, int]:
        """Flat evaluation environment for the inequality templates.

        Keys: m, n, n1..n4, nn1..nn4 (nn_i = n/n_i), the ten d-constants,
        the eleven x-parameters, the ten z-parameters, plus the two sides
        of the master equation: mT (the full product m * prod x_J) and
        term1..term4 (the four summands).
        """
        env: Dict[str, int] = {"m": self.m, "n": self.n}
        env.update(zip(PATTERN_ARGS, pattern_data(self.n, self.pattern)))
        for name in P.X_PARAMS:
            env[name] = self.x[name]
        env.update(self.z)
        env["mT"] = self.m * self.master_product()
        for i in P.INDICES:
            env["term%d" % i] = self.terms[i - 1]
        return env

    def master_product(self) -> int:
        return math.prod(self.x[name] for name in P.X_PARAMS)


def decompose(
    denominators: Sequence[int],
    fraction: Fraction | int,
    convention: str = "standard",
) -> Decomposition:
    """Compute the full decomposition of a 4-term solution of `fraction`."""
    check_convention(convention)
    a = tuple(check_integer(v, "denominators[%d]" % i, 1)
              for i, v in enumerate(denominators))
    if len(a) != 4:
        raise InputError("expected exactly 4 denominators, got %d" % len(a))
    if any(a[i] > a[i + 1] for i in range(3)):
        raise InputError("denominators must be nondecreasing: %s" % (a,))
    if isinstance(fraction, bool) or not isinstance(fraction, (int, Fraction)):
        raise InputError("fraction must be an int or a Fraction, got %r"
                         % (fraction,))
    f = Fraction(fraction)
    if sum(Fraction(1, v) for v in a) != f:
        raise InputError("%s does not solve %s" % (a, f))
    m, n = f.numerator, f.denominator

    pattern = pattern_of(a, n)
    t = tuple(ai // ni for ai, ni in zip(a, pattern))
    x = relative_gcds(t)
    for i in P.INDICES:
        if x["x%d" % i] != 1:
            raise InvariantError(
                "singleton x%d = %d != 1 for %s" % (i, x["x%d" % i], a)
            )
    data = pattern_data(n, pattern)
    terms, z = _quotient_kernel(convention)(a, m, *data, **x)

    return Decomposition(
        denominators=a,
        fraction=f,
        pattern=pattern,
        t=t,
        x=x,
        z=dict(zip(P.Z_PARAMS, z)),
        terms=terms,
        convention=convention,
    )


def reconstruct(dec: Decomposition) -> Tuple[int, ...]:
    """Rebuild the denominators: a_i = n_i * prod(x_J : i in J)."""
    return tuple(
        dec.pattern[i - 1]
        * dec.x["x%d" % i]
        * math.prod(dec.x[name] for name in P.CONTAINING[i])
        for i in P.INDICES
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        return "\n".join(
            "%s %s: %s" % ("PASS" if c.passed else "FAIL", c.name, c.detail)
            for c in self.checks
        )


def verify(dec: Decomposition) -> VerificationReport:
    """Re-check a Decomposition against the sweep's per-solution contract.

    Each check carries the key `sweep_soundness` reports for it, and the
    report stops where the sweep does: after a failed singleton, a failed
    master equation or the first non-integral quotient.  Terms and z are
    recomputed from m, the pattern and x, not read from the dataclass.
    """
    checks = [CheckResult("singleton:x%d" % i, dec.x["x%d" % i] == 1,
                          "x%d = %d" % (i, dec.x["x%d" % i]))
              for i in P.INDICES]
    if not all(c.passed for c in checks):
        return VerificationReport(tuple(checks))
    data = pattern_data(dec.n, dec.pattern)
    non_integral, master = None, "term1 + term2 + term3 + term4"
    try:
        terms, z = _quotient_kernel(dec.convention)(
            dec.denominators, dec.m, *data, **dec.x)
    except InvariantError as exc:
        checks.append(CheckResult("master", False, str(exc)))
        return VerificationReport(tuple(checks))
    except IntegralityError as exc:
        non_integral = exc
    else:
        master = " + ".join(map(str, terms))
    checks.append(CheckResult(
        "master", True, "%d = %s" % (dec.m * dec.master_product(), master)))
    for i, nn in zip(P.INDICES, data[4:8]):
        g = math.gcd(dec.t[i - 1], nn)
        checks.append(CheckResult("coprime:t%d" % i, g == 1,
                                  "gcd(t%d, n/n%d) = %d" % (i, i, g)))
    for a, b in INCOMPARABLE_PAIRS:
        g = math.gcd(dec.x[a], dec.x[b])
        checks.append(CheckResult("coprime:%s*%s" % (a, b), g == 1,
                                  "gcd(%s, %s) = %d" % (a, b, g)))
    if non_integral is not None:
        checks.append(CheckResult("zint:" + non_integral.param, False,
                                  str(non_integral)))
        return VerificationReport(tuple(checks))
    checks += [CheckResult("zint:" + name, True, "%s = %d" % (name, value))
               for name, value in zip(P.Z_PARAMS, z)]
    env = dict(zip(("m", "n") + PATTERN_ARGS, (dec.m, dec.n) + data))
    env.update(dec.x)
    env.update(zip(P.Z_PARAMS, z))
    for tmpl in build_inequalities():
        left, right = tmpl.evaluate_sides(env)
        checks.append(CheckResult("ineq:" + tmpl.key, left <= right,
                                  "%d <= %d" % (left, right)))
    return VerificationReport(tuple(checks))
