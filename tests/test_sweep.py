"""Soundness sweeps: the compiled checker against reference evaluators."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import params as P
from unitfrac.catalog import build_inequalities
from unitfrac.decomposition import decompose
from unitfrac.enumeration import enumerate_representations
from unitfrac.errors import InputError
from unitfrac.sweep import (checker_source, compiled_checker, layered_gcds,
                            sweep_soundness)

ARG_ORDER = (("m", "n")
             + tuple("n%d" % i for i in P.INDICES)
             + tuple("nn%d" % i for i in P.INDICES)
             + P.D_SYMBOLS + P.X_PARAMS)


def _checker_args(dec):
    env = dec.env()
    return [env[name] for name in ARG_ORDER] + list(dec.t)


def test_checker_source_compiles_and_is_cached():
    fn = compiled_checker("standard")
    assert fn is compiled_checker("standard")
    assert fn.source == checker_source("standard")
    assert "def _check_solution" in fn.source


def test_checker_passes_worked_example():
    dec = decompose((2, 4, 6, 12), 1)
    assert compiled_checker("standard")(*_checker_args(dec)) == []


def test_checker_agrees_with_reference_evaluators():
    templates = build_inequalities()
    checker = compiled_checker("standard")
    for m, n in ((1, 1), (3, 7), (5, 6), (1, 2)):
        for sol in enumerate_representations(m, n, 4).solutions:
            dec = decompose(tuple(sol), Fraction(m, n))
            env = dec.env()
            fails = checker(*_checker_args(dec))
            assert fails == [], (tuple(sol), fails)
            assert all(t.evaluate(env) for t in templates)


def test_checker_flags_corrupted_solution():
    dec = decompose((2, 4, 6, 12), 1)
    args = _checker_args(dec)
    good = list(args)
    # corrupt one relative gcd: many identities must break, none crash
    pos = ARG_ORDER.index("x24")
    args[pos] += 1
    fails = compiled_checker("standard")(*args)
    assert fails
    assert all(isinstance(key, str) for key in fails)
    assert compiled_checker("standard")(*good) == []


# A reference for the checker's contract, from plain integer arithmetic
# and the catalog's own inequality evaluator (no generated code).
_SUBSETS = tuple(J for r in (2, 3, 4) for J in combinations(P.INDICES, r))
_XNAME = {J: "x" + "".join(map(str, J)) for J in _SUBSETS}
_INCOMPARABLE = tuple((J, K) for J, K in combinations(_SUBSETS, 2)
                      if not set(J) <= set(K) and not set(K) <= set(J))
_SOLUTIONS = tuple((m, n, tuple(sol)) for m, n in ((1, 1), (3, 7), (5, 6), (2, 5))
                   for sol in enumerate_representations(m, n, 4).solutions)


def _reference_keys(env, t, convention):
    x = {J: env[_XNAME[J]] for J in _SUBSETS}
    terms = {i: env["nn%d" % i] * math.prod(v for J, v in x.items()
                                            if i not in J)
             for i in P.INDICES}
    env["mT"] = env["m"] * math.prod(x.values())
    if env["mT"] != sum(terms.values()):
        return ["master"]
    fails = ["coprime:t%d" % i for i in P.INDICES
             if math.gcd(t[i - 1], env["nn%d" % i]) != 1]
    fails += ["coprime:%s*%s" % (_XNAME[J], _XNAME[K])
              for J, K in _INCOMPARABLE if math.gcd(x[J], x[K]) != 1]
    for J in P.PAIRS + P.TRIPLES:
        name = "".join(map(str, J))
        den = env["d" + name] * x[J]
        if len(J) == 2:
            kl = P.complement_pair(J)
            den *= x[kl] ** (2 if convention == "reduced" else 1)
        else:
            den *= math.prod(x[pair] for pair in combinations(J, 2))
        env["z" + name], r = divmod(sum(terms[i] for i in J), den)
        if r:
            return fails + ["zint:z" + name]
    for tmpl in build_inequalities():
        left, right = tmpl.evaluate_sides(env)
        if left > right:
            fails.append("ineq:" + tmpl.key)
    return fails


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_SOLUTIONS), st.sampled_from(P.CONVENTIONS),
       st.integers(0, len(ARG_ORDER) + 3), st.integers(1, 60))
def test_checker_matches_reference_on_corrupted_arguments(
        solution, convention, pos, value):
    m, n, sol = solution
    args = _checker_args(decompose(sol, Fraction(m, n)))
    args[pos] = value
    env = dict(zip(ARG_ORDER, args))
    assert (compiled_checker(convention)(*args)
            == _reference_keys(env, args[len(ARG_ORDER):], convention))


def test_sweep_small_rectangle_standard():
    report = sweep_soundness(n_max=8, m_factor=4)
    assert report.ok
    assert report.failures == []
    assert report.skipped == 0
    assert report.convention == "standard"
    assert report.fractions == 88
    assert report.solutions == 12330
    assert "0 failures" in report.summary()


def test_sweep_medium_rectangle_standard():
    report = sweep_soundness(n_max=25, m_factor=4)
    assert report.ok
    assert report.fractions == 800
    assert report.solutions == 343205
    assert report.skipped == 0


def test_sweep_full_rectangle_reduced():
    # solutions with a non-integral reduced pair quotient have no
    # decomposition under this convention and are skipped, not failed
    report = sweep_soundness(n_max=50, m_factor=4, convention="reduced")
    assert report.ok
    assert report.fractions == 3096
    assert report.solutions == 2314392
    assert report.skipped == 2215345
    assert report.solutions - report.skipped == 99047


def test_progress_callback_sees_every_n():
    seen = []
    sweep_soundness(n_max=5, progress=lambda n, rep: seen.append(n))
    assert seen == [1, 2, 3, 4, 5]


def test_sweep_input_validation():
    with pytest.raises(InputError):
        sweep_soundness(n_max=0)
    with pytest.raises(InputError):
        sweep_soundness(n_max=5, m_factor=0)
    with pytest.raises(InputError):
        sweep_soundness(n_max=5, convention="other")
    with pytest.raises(InputError):
        sweep_soundness(n_max=5, fail_limit=0)


def test_sweep_rejects_non_integer_arguments():
    for bad in (2.5, 3.0, True):
        for kwargs in ({"n_max": bad}, {"n_max": 3, "m_factor": bad},
                       {"n_max": 3, "fail_limit": bad}):
            with pytest.raises(InputError, match="must be an integer"):
                sweep_soundness(**kwargs)
    for bad in (2.5, True, "3"):
        for name in ("n_max", "m_factor", "fail_limit"):
            with pytest.raises(InputError,
                               match=name + " must be an integer >= 1"):
                sweep_soundness(**{"n_max": 3, name: bad})


def test_fail_limit_marks_sweep_incomplete(monkeypatch):
    full = sweep_soundness(n_max=5)
    assert full.complete and "PARTIAL" not in full.summary()
    monkeypatch.setattr("unitfrac.sweep.compiled_checker",
                        lambda convention: lambda *args: ["master"])
    report = sweep_soundness(n_max=5, fail_limit=1)
    assert not report.complete
    assert len(report.failures) == 1 and report.solutions == 1
    assert report.summary().endswith("; PARTIAL: stopped at the fail limit")
    # a failed singleton gcd counts against the limit too
    real = layered_gcds
    monkeypatch.setattr("unitfrac.sweep.layered_gcds",
                        lambda *t: real(*t)[:-1] + (2,))
    report = sweep_soundness(n_max=5, fail_limit=1)
    assert not report.complete
    assert [f.check for f in report.failures] == ["singleton:x4"]
