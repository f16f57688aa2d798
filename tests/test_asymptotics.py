"""Regime analysis, many-term lifting, Sylvester constant enclosure."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from unitfrac.asymptotics import (
    FORMULAS,
    best_value,
    bound_report,
    breakpoint_alphas,
    breakpoints,
    fk_bound,
    fk_exponent,
    lift_report,
    pairwise_crossings,
    regime,
    regime_table,
    sqrt_bracket,
    sylvester,
)
from unitfrac.errors import InputError

EPS = Fraction(1, 10 ** 9)


def test_breakpoints_exact():
    assert breakpoints() == (Fraction(50, 289), Fraction(5, 17),
                             Fraction(1, 3), Fraction(40, 119),
                             Fraction(4, 5))
    assert breakpoint_alphas() == (5250, 8925, 10115, 10200, 24276)
    assert all(a.denominator == 1 for a in breakpoint_alphas())


def test_breakpoints_derivable_from_formula_crossings():
    # a crossing is published iff the piecewise-affine best value changes
    # slope there, or the binding member of an attaining two-part source
    # switches (the one same-shape transition)
    derived = []
    for c in pairwise_crossings():
        left = (best_value(c) - best_value(c - EPS)) / EPS
        right = (best_value(c + EPS) - best_value(c)) / EPS
        if left != right:
            derived.append(c)
            continue
        values = [f.n_exp(c) for f in FORMULAS]
        for i, j in ((2, 4), (3, 4)):
            group_max = max(values[i], values[j])
            if group_max == best_value(c) and values[i] == values[j]:
                before = [f.n_exp(c - EPS) for f in FORMULAS]
                after = [f.n_exp(c + EPS) for f in FORMULAS]
                if (before[i] > before[j]) != (after[i] > after[j]):
                    derived.append(c)
                    break
    assert tuple(derived) == breakpoints()


def test_best_value_continuous_at_breakpoints():
    # slopes lie in [-5/3, -3/4], so each one-sided difference over a step
    # of EPS is positive and below 2*EPS; a jump would exceed that bound
    for c in breakpoints():
        left = best_value(c - EPS) - best_value(c)
        right = best_value(c) - best_value(c + EPS)
        assert 0 < left < 2 * EPS
        assert 0 < right < 2 * EPS


def test_adjacent_region_formulas_agree_exactly_at_breakpoints():
    table = regime_table()
    for (lo, hi, before), (lo2, hi2, after) in zip(table, table[1:]):
        assert before.n_exp(hi) == after.n_exp(hi)


def test_regime_endpoint_values():
    r0 = regime(0)
    assert r0.value == Fraction(3, 2)
    assert r0.formula.label == "n^(3/2)/m^(3/4)"
    r1 = regime(1)
    assert r1.value == Fraction(3, 5)
    assert r1.formula.label == "n^(8/5)/m"
    rb = regime(Fraction(50, 289))
    assert rb.value == Fraction(396, 289)


def test_regime_table_covers_unit_interval():
    table = regime_table()
    assert len(table) == 6
    assert table[0][0] == 0 and table[-1][1] == 1
    for (lo, hi, formula), (lo2, _, _) in zip(table, table[1:]):
        assert hi == lo2
    labels = [f.label for _, _, f in table]
    assert labels == ["n^(3/2)/m^(3/4)", "n^(28/17)/m^(8/5)",
                      "n^(5/3)/m^(5/3)", "n^(4/3)/m^(2/3)",
                      "n^(4/3)/m^(2/3)", "n^(8/5)/m"]
    # interior of each region: the table formula attains the best value
    for lo, hi, formula in table:
        mid = (lo + hi) / 2
        assert formula.n_exp(mid) == best_value(mid)


def test_regime_rejects_out_of_range():
    with pytest.raises(InputError):
        regime(Fraction(-1, 10))
    with pytest.raises(InputError):
        regime(Fraction(11, 10))


def test_bound_report_locates_regions_exactly():
    assert bound_report(1, 50).region == 0
    assert bound_report(7, 100).region == 4
    assert bound_report(4, 32).region == 4  # c = 2/5 exactly
    assert bound_report(9, 10).region == 5
    report = bound_report(7, 100)
    assert report.formula.label == "n^(4/3)/m^(2/3)"
    labels = [label for label, _ in report.candidates()]
    assert labels == [
        "n^(3/2)/m^(3/4)",
        "n^(8/5)/m",
        "max(n^(28/17)/m^(8/5), n^(4/3)/m^(2/3))",
        "max(n^(5/3)/m^(5/3), n^(4/3)/m^(2/3))",
    ]
    values = dict(report.candidates())
    assert report.value() == pytest.approx(min(values.values()))


def test_bound_report_exact_breakpoint_hit():
    # m = 2, n = 32: c = 1/5 lands between 50/289 and 5/17
    assert bound_report(2, 32).region == 1
    # m = 4, n = 8: c = 2/3 sits in the wide fourth region
    assert bound_report(4, 8).region == 4
    # m = n exactly: c = 1
    assert bound_report(10, 10).region == 5


def test_bound_report_on_each_breakpoint():
    # m^q == n^p for the i-th breakpoint p/q: c sits on it exactly and
    # belongs to the region on its left
    hits = ((2 ** 50, 2 ** 289), (2 ** 5, 2 ** 17), (2, 8),
            (2 ** 40, 2 ** 119), (16, 32))
    table = regime_table()
    for i, ((m, n), c) in enumerate(zip(hits, breakpoints())):
        assert m ** c.denominator == n ** c.numerator
        report = bound_report(m, n)
        assert report.region == i
        assert report.formula == table[i][2]
        assert regime(c).formula == table[i][2]
        assert table[i][2].n_exp(c) == best_value(c)


@given(st.one_of(
    st.sampled_from((Fraction(0), Fraction(1)) + pairwise_crossings()),
    st.fractions(min_value=0, max_value=1),
))
def test_regime_formula_is_its_regions_and_attains_best(c):
    table = regime_table()
    region = next(i for i, (_, hi, _) in enumerate(table) if c <= hi)
    formula = regime(c).formula
    assert formula == table[region][2]
    assert formula.n_exp(c) == best_value(c)


def test_non_integer_arguments_are_input_errors():
    for bad in (2.5, True, "3"):
        calls = ((lambda: fk_exponent(bad), "k"), (lambda: fk_bound(bad), "k"),
                 (lambda: fk_bound(5, bad), "m"),
                 (lambda: fk_bound(5, 1, bad), "n"),
                 (lambda: bound_report(bad, 10), "m"),
                 (lambda: bound_report(2, bad), "n"),
                 (lambda: lift_report(bad), "n_max"))
        for call, name in calls:
            with pytest.raises(InputError, match=name + " must be an integer"):
                call()
    # whole floats were read as their value before
    state = sylvester(Fraction(1, 10 ** 7))
    for call in (lambda: fk_bound(5.0), lambda: lift_report(2.0),
                 lambda: state.decimal_prefix(2.0)):
        with pytest.raises(InputError):
            call()


def test_non_rational_arguments_are_input_errors():
    for bad in (float("inf"), float("-inf"), float("nan"), None, True, "c"):
        with pytest.raises(InputError, match="c must be a rational number"):
            regime(bad)
        with pytest.raises(InputError,
                           match="target width must be a rational number"):
            sylvester(bad)
    # range checks stay as they were
    with pytest.raises(InputError, match=r"c must lie in \[0, 1\]"):
        regime(2)
    with pytest.raises(InputError, match="target width must be positive"):
        sylvester(-1)


def test_bound_report_validation():
    with pytest.raises(InputError):
        bound_report(0, 10)
    with pytest.raises(InputError):
        bound_report(11, 10)
    with pytest.raises(InputError):
        bound_report(1, 1)
    # past the int-to-str limit, the overflow message states n in bits
    with pytest.raises(InputError, match="too large"):
        bound_report(2, 10**5000)


def test_fk_exponents_double_per_term():
    assert fk_exponent(5) == Fraction(8, 5)
    assert fk_exponent(6) == Fraction(16, 5)
    assert fk_exponent(7) == Fraction(32, 5)
    with pytest.raises(InputError):
        fk_exponent(4)


def test_fk_bound_magnitude():
    b5 = fk_bound(5, 1, 100)
    assert b5.exponent == Fraction(8, 5)
    # (5^(4/3) * 100^2 / 1)^(8/5) = 10^(log10(5^(4/3)) + 4) * 8/5
    assert b5.log10 == pytest.approx((4 + 4 / 3 * 0.6989700043360187) * 1.6)
    assert "k=5" in b5.describe()
    b6 = fk_bound(6)
    assert b6.exponent == Fraction(16, 5)
    with pytest.raises(InputError):
        fk_bound(5, 0, 1)


def test_lift_report_rows():
    rows = lift_report(2)
    table = {(r.m, r.n): r for r in rows}
    # reduced fractions only, m up to 5n + 1
    assert set(table) == {(m, 1) for m in range(1, 7)} | {
        (m, 2) for m in range(1, 12, 2)}
    assert table[(1, 1)].count == 147
    assert table[(1, 2)].count == 2892
    assert table[(5, 1)].count == 1  # five unit terms
    assert table[(6, 1)].count == 0  # beyond the k = 5 ceiling
    assert table[(11, 2)].count == 0
    assert table[(1, 2)].shape == pytest.approx(4 ** 1.6)
    with pytest.raises(InputError):
        lift_report(0)
    with pytest.raises(InputError):
        lift_report(9)
    with pytest.raises(InputError):
        lift_report(31)


def test_sqrt_bracket_certificates():
    for value, scale in ((Fraction(2), 10 ** 6), (Fraction(3, 7), 10 ** 4),
                         (Fraction(1806), 100), (Fraction(0), 10)):
        lo, hi = sqrt_bracket(value, scale)
        assert lo * lo <= value <= hi * hi
        assert hi - lo == Fraction(1, scale)
    exact_lo, exact_hi = sqrt_bracket(Fraction(49), 10)
    assert exact_lo == 7
    with pytest.raises(InputError):
        sqrt_bracket(Fraction(-1), 10)


def test_sylvester_sequence_prefix():
    state = sylvester(Fraction(1, 10 ** 7))
    assert state.u == (1, 2, 6, 42, 1806, 3263442)
    for a, b in zip(state.u, state.u[1:]):
        assert b == a * (a + 1)


def test_sylvester_enclosure_certifies_seven_digits():
    state = sylvester(Fraction(1, 10 ** 7))
    lo, hi = state.bracket
    assert state.width <= Fraction(1, 10 ** 7)
    assert lo <= hi
    assert state.decimal_prefix(7) == 15979102
    assert state.decimal_prefix(2) == 159
    # the constant's first digits as rationals bracket the enclosure
    assert Fraction(15979102, 10 ** 7) <= lo
    assert hi <= Fraction(15979103, 10 ** 7)


def test_sylvester_brackets_nest_and_roots_increase():
    state = sylvester(Fraction(1, 10 ** 7))
    for (lo1, hi1), (lo2, hi2) in zip(state.brackets, state.brackets[1:]):
        assert lo1 <= lo2 <= hi2 <= hi1
    # u_k^(1/2^k) is nondecreasing and bounded by 2, certified on integers:
    # u_{k+1} >= u_k^2 gives monotonicity, u_k <= 2^(2^k)/2 gives the bound
    for k, u in enumerate(state.u):
        assert u <= 2 ** (2 ** k) // 2
        if k + 1 < len(state.u):
            assert state.u[k + 1] >= u * u


def test_sylvester_digits_by_interval_logarithms():
    # Independent of sqrt_bracket: with u_{k+1} = u_k(u_k + 1),
    # log u_{k+1} = 2 log u_k + log(1 + 1/u_k), so L = log of the constant
    # satisfies 0 <= L - log(u_k)/2^k <= sum_{i>=k} 1/(2^(i+1) u_i)
    # <= 1/(2^k u_k).  Everything below is mpmath interval arithmetic at
    # its default precision.
    k, u = 6, 1
    for _ in range(k):
        u *= u + 1
    base = iv.log(iv.mpf(u)) / 2 ** k
    constant = iv.exp(base + iv.mpf([0, 1]) / (2 ** k * u))
    prefix = sylvester(Fraction(1, 10 ** 7)).decimal_prefix(7)
    assert prefix == 15979102
    # comparisons of intervals are True only when certain
    assert constant.a >= iv.mpf(prefix) / 10 ** 7
    assert constant.b < iv.mpf(prefix + 1) / 10 ** 7
    assert constant.delta < iv.mpf(1) / 10 ** 12


def test_sylvester_larger_width_stops_earlier():
    state = sylvester(Fraction(1, 100))
    assert state.u == (1, 2, 6, 42)
    assert state.width <= Fraction(1, 100)
    with pytest.raises(InputError):
        sylvester(0)


def test_formula_rendering():
    assert str(FORMULAS[0]) == "n^(3/2)/m^(3/4): 3/2 - 3/4*c"
    assert str(FORMULAS[4]) == "n^(4/3)/m^(2/3): 4/3 - 2/3*c"
