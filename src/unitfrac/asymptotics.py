"""Bound formulas, regime breakpoints, k >= 5 lifting, Sylvester constant.

Writing m = n^c with 0 <= c <= 1, each known upper bound for the 4-term
representation count takes the shape n^(a + b*c) (up to n^epsilon).  Five
affine exponent formulas compete; two pairs of them enter as the larger
exponent of a two-part sum, so the sharpest bound at a given c is

    best(c) = min(f1, f2, max(f3, f5), max(f4, f5))

over f1 = 3/2 - 3c/4, f2 = 8/5 - c, f3 = 28/17 - 8c/5, f4 = 5/3 - 5c/3,
f5 = 4/3 - 2c/3.  The module computes the exact rational crossover points
of this piecewise-affine minimum, evaluates regimes for concrete (m, n)
by exact integer power comparisons, exposes the doubly-exponential bound
for k >= 5 terms, tabulates exact 5-term counts against the asymptotic
shape, and encloses the Sylvester-sequence growth constant in certified
rational brackets (no floating point in any certification path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Tuple

from .enumeration import count_representations
from .errors import InputError, check_integer


@dataclass(frozen=True)
class BoundFormula:
    """Exponent formula intercept + slope*c for the bound n^exponent."""

    label: str
    intercept: Fraction
    slope: Fraction

    def n_exp(self, c: Fraction) -> Fraction:
        return self.intercept + self.slope * c

    def __str__(self) -> str:
        return "%s: %s %s %s*c" % (
            self.label,
            self.intercept,
            "-" if self.slope < 0 else "+",
            abs(self.slope),
        )


FORMULAS: Tuple[BoundFormula, ...] = (
    BoundFormula("n^(3/2)/m^(3/4)", Fraction(3, 2), Fraction(-3, 4)),
    BoundFormula("n^(8/5)/m", Fraction(8, 5), Fraction(-1)),
    BoundFormula("n^(28/17)/m^(8/5)", Fraction(28, 17), Fraction(-8, 5)),
    BoundFormula("n^(5/3)/m^(5/3)", Fraction(5, 3), Fraction(-5, 3)),
    BoundFormula("n^(4/3)/m^(2/3)", Fraction(4, 3), Fraction(-2, 3)),
)

# the two-part bounds contribute the larger of their exponents
_GROUPS: Tuple[Tuple[int, ...], ...] = ((0,), (1,), (2, 4), (3, 4))


def pairwise_crossings() -> Tuple[Fraction, ...]:
    """All c in (0, 1) where two formulas agree, ascending (raw, unfiltered).

    Between two adjacent crossings no two formulas change order, so these
    points with 0 and 1 cut [0, 1] into the pieces regime_table() is
    evaluated on.
    """
    points = set()
    for i, f in enumerate(FORMULAS):
        for g in FORMULAS[i + 1:]:
            if f.slope == g.slope:
                continue
            c = (g.intercept - f.intercept) / (f.slope - g.slope)
            if 0 < c < 1:
                points.add(c)
    return tuple(sorted(points))


def best_value(c: Fraction) -> Fraction:
    """min over sources of the exponent at c (groups enter as their max)."""
    values = [f.n_exp(c) for f in FORMULAS]
    return min(max(values[i] for i in group) for group in _GROUPS)


@lru_cache(maxsize=None)
def regime_table() -> Tuple[Tuple[Fraction, Fraction, BoundFormula], ...]:
    """(c_low, c_high, active formula) for the six regions of [0, 1].

    On each piece between adjacent cuts (0, the pairwise crossings, 1) the
    sources attaining best(c) and the member binding each of them are
    fixed, so they are read off at the piece's midpoint.  A breakpoint is
    a cut where that set of (source, binding formula) pairs changes; the
    region's formula is the one binding formula (it is the only formula
    attaining best(c) away from the crossings).
    """
    cuts = (Fraction(0),) + pairwise_crossings() + (Fraction(1),)
    starts: List[Fraction] = []
    formulas: List[BoundFormula] = []
    previous = None
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        values = [f.n_exp(mid) for f in FORMULAS]
        best = best_value(mid)
        pairs = frozenset(
            (group, max(group, key=values.__getitem__))
            for group in _GROUPS if max(values[i] for i in group) == best)
        if pairs != previous:
            (binding,) = {i for _, i in pairs}
            starts.append(lo)
            formulas.append(FORMULAS[binding])
            previous = pairs
    return tuple(zip(starts, starts[1:] + [Fraction(1)], formulas))


def breakpoints() -> Tuple[Fraction, ...]:
    """The exact transition points of best(c), ascending."""
    return tuple(lo for lo, _, _ in regime_table()[1:])


def alpha_scale() -> int:
    """The least integer scaling every breakpoint to an integer."""
    return math.lcm(*(c.denominator for c in breakpoints()))


def breakpoint_alphas() -> Tuple[Fraction, ...]:
    """Breakpoints scaled by alpha_scale() (all integral at that scale)."""
    return tuple(c * alpha_scale() for c in breakpoints())


def _rational(value, name: str) -> Fraction:
    """`value` as an exact Fraction; a bool, None, NaN or inf is InputError."""
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise InputError("%s must be a rational number, got %r" % (name, value))


def _check_c(c) -> Fraction:
    c = _rational(c, "c")
    if c < 0 or c > 1:
        raise InputError("c must lie in [0, 1], got %s" % c)
    return c


@dataclass(frozen=True)
class Regime:
    """Active bound at c: f_4(n^c, n) << n^(value + epsilon)."""

    c: Fraction
    formula: BoundFormula
    value: Fraction


def regime(c) -> Regime:
    """The sharpest formula and its exponent at c = log_n(m), exact.

    c lies in the region numbered by the breakpoints strictly below it, so
    a breakpoint belongs to the region on its left.
    """
    c = _check_c(c)
    region = sum(c > p for p in breakpoints())
    return Regime(
        c=c,
        formula=regime_table()[region][2],
        value=best_value(c),
    )


@dataclass(frozen=True)
class BoundReport:
    """Regime evaluation for a concrete pair (m, n) with m <= n."""

    m: int
    n: int
    c_float: float
    region: int
    formula: BoundFormula
    values: Tuple[float, ...]

    def value(self) -> float:
        idx = FORMULAS.index(self.formula)
        return self.values[idx]

    def candidates(self) -> Tuple[Tuple[str, float], ...]:
        """(label, value) per competing source; two-part sources as max."""
        out = []
        for group in _GROUPS:
            if len(group) == 1:
                formula = FORMULAS[group[0]]
                out.append((formula.label, self.values[group[0]]))
            else:
                label = "max(%s)" % ", ".join(
                    FORMULAS[i].label for i in group)
                out.append((label, max(self.values[i] for i in group)))
        return tuple(out)


def bound_report(m: int, n: int) -> BoundReport:
    """Locate (m, n) among the regimes by exact power comparisons.

    c = log(m)/log(n) is irrational in general; the region is the number
    of breakpoints p/q with m^q > n^p, compared exactly, so a c on a
    breakpoint falls in the region on its left as in regime().  Floats
    appear only in the reported magnitudes; an n whose magnitudes do not
    fit a float is an InputError.
    """
    check_integer(n, "n", 2)  # c = log(m)/log(n) needs n >= 2
    check_integer(m, "m", 1, n)
    region = sum(m ** p.denominator > n ** p.numerator for p in breakpoints())
    c_float = math.log(m) / math.log(n)
    formula = regime_table()[region][2]
    try:
        values = tuple(
            float(n) ** float(f.intercept) * float(m) ** float(f.slope)
            for f in FORMULAS
        )
    except OverflowError:
        raise InputError("n is too large (%d bits): the bound magnitudes"
                         " do not fit a float" % n.bit_length())
    return BoundReport(m=m, n=n, c_float=c_float, region=region,
                       formula=formula, values=values)


# ---------------------------------------------------------------------------
# k >= 5 lifting


@dataclass(frozen=True)
class FkBound:
    """f_k(m,n) << (kn)^eps * (k^(4/3) * n^2/m)^exponent."""

    k: int
    m: int
    n: int
    exponent: Fraction
    log10: float

    def describe(self) -> str:
        return ("(k^(4/3)*n^2/m)^(%s) with k=%d, n=%d, m=%d "
                "(about 10^%.4g)"
                % (self.exponent, self.k, self.n, self.m, self.log10))


def fk_exponent(k: int) -> Fraction:
    check_integer(k, "k", 5)
    return Fraction(8, 5) * 2 ** (k - 5)


def fk_bound(k: int, m: int = 1, n: int = 1) -> FkBound:
    """Exponent and order of magnitude of the k-term bound."""
    check_integer(m, "m", 1)
    check_integer(n, "n", 1)
    exponent = fk_exponent(k)
    log10_base = (Fraction(4, 3) * math.log10(k) + 2 * math.log10(n)
                  - math.log10(m))
    return FkBound(k=k, m=m, n=n, exponent=exponent,
                   log10=float(exponent) * float(log10_base))


@dataclass(frozen=True)
class LiftRow:
    """Exact 5-term count next to the asymptotic shape (n^2/m)^(8/5)."""

    m: int
    n: int
    count: int
    shape: float


def lift_report(n_max: int) -> Tuple[LiftRow, ...]:
    """Exact f_5 counts for all reduced m/n with n <= n_max, m <= 5n + 1.

    Informational only: the asymptotic shape hides constants and the
    n^epsilon factor, so no inequality is asserted at desk scale.  Rows
    with m/n > 5 demonstrate the vanishing tail.
    """
    check_integer(n_max, "n_max", 1, 8)  # beyond 8 is not desk-scale
    rows: List[LiftRow] = []
    exponent = float(fk_exponent(5))
    for n in range(1, n_max + 1):
        for m in range(1, 5 * n + 2):
            if math.gcd(m, n) != 1:
                continue
            count = count_representations(m, n, 5)
            shape = (n * n / m) ** exponent
            rows.append(LiftRow(m=m, n=n, count=count, shape=shape))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Sylvester-sequence constant


def sqrt_bracket(value: Fraction, scale: int) -> Tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(value) <= hi with hi - lo = 1/scale, certified.

    With r = isqrt(floor(value * scale^2)): lo = r/scale has
    lo^2 <= value, and hi = (r+1)/scale has hi^2 >= value because
    (r+1)^2 >= floor(value * scale^2) + 1 > value * scale^2 - 1 + 1.
    """
    if value < 0:
        raise InputError("cannot bracket the square root of %s" % value)
    num = value.numerator * scale * scale
    den = value.denominator
    root = isqrt(num // den)
    return Fraction(root, scale), Fraction(root + 1, scale)


@dataclass(frozen=True)
class SylvesterState:
    """Certified enclosure of c0 = lim u_k^(1/2^k), u_{k+1} = u_k(u_k+1)."""

    u: Tuple[int, ...]
    brackets: Tuple[Tuple[Fraction, Fraction], ...]

    @property
    def bracket(self) -> Tuple[Fraction, Fraction]:
        return self.brackets[-1]

    @property
    def width(self) -> Fraction:
        lo, hi = self.bracket
        return hi - lo

    def decimal_prefix(self, digits: int) -> Optional[int]:
        """floor(c0 * 10^digits) when both ends agree on it, else None."""
        lo, hi = self.bracket
        scale = 10 ** check_integer(digits, "digits", 0)
        lo_floor = (lo.numerator * scale) // lo.denominator
        hi_floor = (hi.numerator * scale) // hi.denominator
        return lo_floor if lo_floor == hi_floor else None


def _root_bracket(base_lo: Fraction, base_hi: Fraction, halvings: int,
                  scale: int) -> Tuple[Fraction, Fraction]:
    """Certified bracket of [base_lo, base_hi]^(1/2^halvings)."""
    lo, hi = base_lo, base_hi
    for _ in range(halvings):
        lo = sqrt_bracket(lo, scale)[0]
        hi = sqrt_bracket(hi, scale)[1]
    return lo, hi


def sylvester(target_width) -> SylvesterState:
    """Iterate the sequence until the c0 enclosure is at most target_width.

    Level k encloses c0 in [u_k^(1/2^k), (u_k+1)^(1/2^k)]; the nested
    roots are taken as certified rational brackets, so the returned
    interval provably contains the constant.
    """
    target = _rational(target_width, "target width")
    if target <= 0:
        raise InputError("target width must be positive, got %s" % target)
    # bracket rounding must stay well below the target interval width
    scale = 10
    while Fraction(64, scale) > target:
        scale *= 10
    u = [1]
    brackets: List[Tuple[Fraction, Fraction]] = [
        (Fraction(1), Fraction(2)),
    ]
    while brackets[-1][1] - brackets[-1][0] > target:
        u.append(u[-1] * (u[-1] + 1))
        k = len(u) - 1
        lo, hi = _root_bracket(Fraction(u[-1]), Fraction(u[-1] + 1), k, scale)
        brackets.append((lo, hi))
    return SylvesterState(u=tuple(u), brackets=tuple(brackets))
