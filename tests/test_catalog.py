"""Generated closure-rule catalog and inequality templates."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from unitfrac import params as P
from unitfrac.catalog import (
    FAMILY_NAMES,
    build_inequalities,
    build_rules,
    export_rules,
    family_counts,
    inequality_index,
)
from unitfrac.decomposition import decompose
from unitfrac.enumeration import enumerate_representations
from unitfrac.errors import InputError
from unitfrac.sweep import checker_source


def rule_index(convention="standard"):
    return {rule.key: rule for rule in build_rules(convention)}


def test_rule_count_and_family_sizes():
    rules = build_rules()
    assert len(rules) == 96
    assert family_counts(rules) == (55, 6, 4, 12, 4, 6, 3, 6)
    assert sorted(FAMILY_NAMES) == [1, 2, 3, 4, 5, 6, 7, 8]
    # rules come out grouped by family, in family order
    families = [r.family for r in rules]
    assert families == sorted(families)


def test_rule_keys_unique_and_indexable():
    rules = build_rules()
    keys = [r.key for r in rules]
    assert len(set(keys)) == 96
    index = rule_index()
    for rule in rules:
        assert index[rule.key] == rule


def test_known_rule_shapes():
    index = rule_index()
    assert index["zpair:z23"].equation == (
        "z23*x23 = (n/(n2*d23))*x13*x34*x134 + (n/(n3*d23))*x12*x24*x124")
    assert index["tprod:z234"].equation == (
        "m*x12*x13*x14*x123*x124*x134*x1234 = d234*z234 + (n/n1)")
    assert index["split:z12+z34"].equation == (
        "m*x13*x14*x23*x24*x123*x124*x134*x234*x1234 = d12*z12 + d34*z34")
    assert index["zprod:z134*z234"].inputs == frozenset(
        {"z34", "x12", "x123", "x124", "x1234"})
    assert index["zprod:z134*z234"].outputs == frozenset({"z134", "z234"})


def test_factor_family_structure():
    rules = [r for r in build_rules() if r.family == 1]
    assert len(rules) == 55  # one per unordered pair of the 11 x-parameters
    for rule in rules:
        assert len(rule.outputs) == 2
        assert rule.inputs == frozenset(P.X_PARAMS) - rule.outputs


def test_conventions_differ_only_where_pair_quotients_appear():
    std = {r.key: r.equation for r in build_rules("standard")}
    red = {r.key: r.equation for r in build_rules("reduced")}
    assert set(std) == set(red)
    changed = {k for k in std if std[k] != red[k]}
    assert changed  # the pair-quotient rescaling is visible somewhere
    pair_zs = {"z12", "z13", "z14", "z23", "z24", "z34"}
    index = rule_index()
    for key in changed:
        rule = index[key]
        assert (rule.inputs | rule.outputs) & pair_zs, key


def test_export_format():
    text = export_rules(build_rules())
    lines = text.strip().split("\n")
    assert len(lines) == 96
    first = lines[0].split("|")
    assert first[0] == "1"
    assert set(first[1].split(",")) | set(first[2].split(",")) == set(
        P.X_PARAMS)
    for line in lines:
        family, inputs, outputs = line.split("|")
        assert 1 <= int(family) <= 8
        assert inputs and outputs


def test_inequality_templates():
    templates = build_inequalities()
    assert len(templates) == 13
    assert [t.key for t in templates] == [
        "z12", "z13", "z14", "z23", "z24", "z34",
        "z123", "z124", "z134", "z234", "t1", "t2", "t3"]
    index = inequality_index()
    t1, t2, t3 = index["t1"], index["t2"], index["t3"]
    assert (t1.n_exp, t1.m_exp, t1.constant) == (1, -1, 4)
    assert (t2.n_exp, t2.m_exp, t2.constant) == (2, -1, 12)
    assert (t3.n_exp, t3.m_exp, t3.constant) == (4, -2, 96)
    # the pair template for indices (1,4) uses the x-parameters containing
    # 4 but not 1 on the right
    z14 = index["z14"]
    assert z14.rhs == {"x24": 1, "x34": 1, "x234": 1}
    z23 = index["z23"]
    assert z23.lhs == {"z23": 1, "x23": 1}
    assert z23.pattern == {"n2": 1, "d23": 1}
    assert z23.constant == 2 and z23.n_exp == 1 and z23.m_exp == 0


def test_inequalities_hold_on_enumerated_solutions():
    templates = build_inequalities()
    for m, n in ((1, 1), (3, 7)):
        for sol in enumerate_representations(m, n, 4).solutions[:30]:
            env = decompose(tuple(sol), Fraction(m, n)).env()
            for template in templates:
                lhs, rhs = template.evaluate_sides(env)
                assert lhs <= rhs, (tuple(sol), template.key)


def test_inequality_worked_values():
    env = decompose((2, 4, 6, 12), 1).env()
    index = inequality_index()
    assert index["z234"].evaluate_sides(env) == (2, 3)
    assert index["t1"].evaluate_sides(env) == (2, 4)


# sha256 of the rules (family, key, equation, terms) and of the generated
# sweep checker per convention, and of the inequality templates.  The
# frozenset fields are left out: their repr order follows the hash seed.
_PINS = {
    "standard": (
        "6f39f5cf696f9efaf19dd318490859201a5899f972a690694b2dff1786cc90d6",
        "b016c94acb22eb01d9b2a1f0d92e9b0ba4bdae79978dcbf8865005fb9fe2746a"),
    "reduced": (
        "e300ec071acf17e71fc4e88ed134c7f1dc2493b72ca6a5f0591137422f8f68f5",
        "649154828e672f246f4389d468e6c91790a3a8cd063c2c0c2aae70f08421247d"),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_catalog_and_checker_are_pinned(convention):
    rules = "\n".join(repr((r.family, r.key, r.equation, r.terms))
                      for r in build_rules(convention))
    assert (_sha(rules), _sha(checker_source(convention))) == _PINS[convention]


def test_inequality_templates_are_pinned():
    assert _sha(repr(build_inequalities())) == (
        "0ad4f82bab56eb21025e5b4e995801c4ab3bf583f28d857a858e0c103a289387")


def test_convention_validation():
    with pytest.raises(InputError):
        build_rules("other")


# ---------------------------------------------------------------------------
# symbolic proof: every rule follows from the master equation and the
# definitions of the z-quotients, so no solution can break one without
# breaking those first.  Everything below is built from the paper's
# parametrization directly; it reads only the rules' own data: the Term
# fields of families 2-8, and the inputs and outputs of family 1.

_INDICES = (1, 2, 3, 4)
_X_SETS = tuple(J for r in (2, 3, 4) for J in combinations(_INDICES, r))
_Z_SETS = tuple(J for r in (2, 3) for J in combinations(_INDICES, r))


def _name(prefix, J):
    return prefix + "".join(str(i) for i in J)


_SYM = {s: sympy.Symbol(s, positive=True, integer=True)
        for s in ["m"] + ["nn%d" % i for i in _INDICES]
        + [_name("x", J) for J in _X_SETS] + [_name("d", J) for J in _Z_SETS]}
_X = {J: _SYM[_name("x", J)] for J in _X_SETS}
# master equation  m * prod(x_J) = sum_i nn_i * prod(x_J : i not in J)
_TERMS = {i: _SYM["nn%d" % i] * sympy.prod(x for J, x in _X.items()
                                            if i not in J)
          for i in _INDICES}
_M_SOLVED = sum(_TERMS.values()) / sympy.prod(_X.values())


def _quotients(convention):
    """Each z_J as its defining quotient: sum(term_i : i in J) over its divisor."""
    z = {}
    for J in _Z_SETS:
        den = _SYM[_name("d", J)] * _X[J]
        if len(J) == 2:
            kl = tuple(i for i in _INDICES if i not in J)
            den *= _X[kl] ** (2 if convention == "reduced" else 1)
        else:
            den *= sympy.prod(_X[pair] for pair in combinations(J, 2))
        z[_name("z", J)] = sum(_TERMS[i] for i in J) / den
    return z


def _term_value(term, values):
    num = values["m"] ** term.m_exp
    for s in term.num_syms + term.params:
        num *= values[s]
    return num / sympy.prod(values[s] for s in term.den_syms)


# the master difference m * prod(x_J) - sum(term_i), zero on every solution
_MASTER = _SYM["m"] * sympy.prod(_X.values()) - sum(_TERMS.values())


def _assert_factors(diff, xj, xk, inputs, key):
    """diff = C11*xj*xk + C10*xj + C01*xk + C00 factors for {xj, xk}.

    C11 is nonzero and no C holds an x-parameter outside `inputs`, so
    diff = 0 gives (C11*xj + C01)(C11*xk + C10) = C01*C10 - C11*C00 with
    both sides known once the inputs are.
    """
    poly = sympy.Poly(diff, xj, xk)
    assert poly.degree(xj) <= 1 and poly.degree(xk) <= 1, key
    c11, c10, c01, c00 = (poly.coeff_monomial(mono)
                          for mono in (xj * xk, xj, xk, 1))
    assert c11 != 0, key
    factored = (c11 * xj + c01) * (c11 * xk + c10) - (c01 * c10 - c11 * c00)
    assert sympy.expand(factored - c11 * diff) == 0, key
    known = {_SYM[p] for p in inputs}
    for c in (c11, c10, c01, c00):
        assert c.free_symbols & set(_X.values()) <= known, key


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_every_rule_follows_from_master_and_quotient_definitions(convention):
    # Every denominator is a monomial, so expand() reaches a canonical
    # Laurent polynomial: an identity expands to exactly 0.
    values = dict(_SYM, m=_M_SOLVED, **_quotients(convention))
    for rule in build_rules(convention):
        if rule.family == 1:
            # the master equation, bilinear in the unknown pair, factors
            pair = [_SYM[p] for p in rule.outputs]
            assert len(pair) == 2, rule.key
            _assert_factors(_MASTER, *pair, rule.inputs, rule.key)
        else:
            lhs, rhs = rule.terms
            diff = _term_value(lhs, values) - sum(_term_value(t, values)
                                                  for t in rhs)
            assert sympy.expand(diff) == 0, rule.key
