"""Soundness sweeps: the compiled checker against reference evaluators."""

from __future__ import annotations

import copy
import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitfrac
from unitfrac import params as P
from unitfrac.catalog import build_inequalities
from unitfrac.decomposition import (INCOMPARABLE_PAIRS, decompose,
                                    layered_gcd_lines, layered_gcds,
                                    pattern_data)
from unitfrac.enumeration import (_iter_raw, count_representations,
                                  enumerate_representations)
from unitfrac.errors import InputError
from unitfrac.sweep import (STATS_KEYS, SweepFailure, SweepReport,
                            checker_source, compiled_walk, sweep_soundness,
                            walk_source)

ARG_ORDER = (("m", "n")
             + tuple("n%d" % i for i in P.INDICES)
             + tuple("nn%d" % i for i in P.INDICES)
             + P.D_SYMBOLS + P.X_PARAMS)


def _checker_args(dec):
    env = dec.env()
    return [env[name] for name in ARG_ORDER] + list(dec.t)


def test_checker_source_compiles_and_is_cached(compile_checker):
    fn = compile_checker(checker_source("standard"))
    assert fn.__name__ == "_check_solution"
    assert "def _check_solution" in checker_source("standard")
    walk = compiled_walk("reduced")
    assert walk is compiled_walk("reduced") and walk is not compiled_walk()
    # the walk runs the checker's body line for line, in order
    walk_lines = iter(line.strip() for line in walk.source.splitlines())
    assert all(line.strip() in walk_lines
               for line in checker_source("reduced").splitlines()[1:]
               if line.strip() != "return fails")


def test_checker_passes_worked_example(compile_checker):
    dec = decompose((2, 4, 6, 12), 1)
    assert compile_checker(checker_source("standard"))(
        *_checker_args(dec)) == []


def test_checker_agrees_with_reference_evaluators(compile_checker):
    templates = build_inequalities()
    checker = compile_checker(checker_source("standard"))
    for m, n in ((1, 1), (3, 7), (5, 6), (1, 2)):
        for sol in enumerate_representations(m, n, 4).solutions:
            dec = decompose(tuple(sol), Fraction(m, n))
            env = dec.env()
            fails = checker(*_checker_args(dec))
            assert fails == [], (tuple(sol), fails)
            assert all(left <= right for left, right
                       in (t.evaluate_sides(env) for t in templates))


def test_checker_flags_corrupted_solution(compile_checker):
    checker = compile_checker(checker_source("standard"))
    dec = decompose((2, 4, 6, 12), 1)
    args = _checker_args(dec)
    good = list(args)
    # corrupt one relative gcd: many identities must break, none crash
    pos = ARG_ORDER.index("x24")
    args[pos] += 1
    fails = checker(*args)
    assert fails
    assert all(isinstance(key, str) for key in fails)
    assert checker(*good) == []


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
        compile_checker, solution, convention, pos, value):
    m, n, sol = solution
    args = _checker_args(decompose(sol, Fraction(m, n)))
    args[pos] = value
    env = dict(zip(ARG_ORDER, args))
    assert (compile_checker(checker_source(convention))(*args)
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


# A check body that fails every solution, in the shape of checker_source.
_ALWAYS_MASTER = "def _check_solution():\n    fails = ['master']\n    return fails\n"


def test_fail_limit_marks_sweep_incomplete(monkeypatch):
    full = sweep_soundness(n_max=5)
    assert full.complete and "PARTIAL" not in full.summary()
    monkeypatch.setattr("unitfrac.sweep.compiled_walk", compiled_walk.__wrapped__)
    monkeypatch.setattr("unitfrac.sweep.checker_source",
                        lambda convention: _ALWAYS_MASTER)
    report = sweep_soundness(n_max=5, fail_limit=1)
    assert not report.complete
    assert len(report.failures) == 1 and report.solutions == 1
    assert report.summary().endswith("; PARTIAL: stopped at the fail limit")
    # a failed singleton gcd counts against the limit too
    real = layered_gcd_lines()
    monkeypatch.setattr("unitfrac.sweep.layered_gcd_lines",
                        lambda: real[:-1] + ["x4 = 2"] + real[-1:])
    report = sweep_soundness(n_max=5, fail_limit=1)
    assert not report.complete
    assert [f.check for f in report.failures] == ["singleton:x4"]


def _per_solution_sweep(n_max, convention, checker, fail_limit):
    # The sweep as one loop per solution: enumerate, decompose, check.
    failures, solutions, skipped = [], 0, 0
    for n in range(1, n_max + 1):
        for m in range(1, 4 * n + 1):
            if math.gcd(m, n) != 1:
                continue
            for a in _iter_raw(1, m, n, 4):
                solutions += 1
                pattern = tuple(math.gcd(ai, n) for ai in a)
                t = tuple(ai // ni for ai, ni in zip(a, pattern))
                x = layered_gcds(*t)
                if x[-4:] != (1, 1, 1, 1):
                    keys = ["singleton:x%d" % i for i in P.INDICES
                            if x[-5 + i] != 1]
                else:
                    keys = checker(m, n, *pattern_data(n, pattern), *x[:-4], *t)
                for key in keys:
                    if convention == "reduced" and key.startswith("zint:"):
                        skipped += 1
                    else:
                        failures.append(SweepFailure(m, n, a, key))
                if len(failures) >= fail_limit:
                    return failures, solutions, skipped
    return failures, solutions, skipped


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_fail_limit_stops_mid_fraction_as_a_per_solution_loop(
        monkeypatch, compile_checker, convention):
    # the real check plus one probe failure on some solutions
    real = checker_source(convention)
    probed = real.replace("    fails = []\n",
                          "    fails = ['probe'] if t3 % 5 == 2 else []\n", 1)
    assert probed != real
    monkeypatch.setattr("unitfrac.sweep.checker_source", lambda c: probed)
    monkeypatch.setattr("unitfrac.sweep.compiled_walk", compiled_walk.__wrapped__)
    checker = compile_checker(probed)
    for limit in (1, 7, 40):
        report = sweep_soundness(n_max=8, convention=convention,
                                 fail_limit=limit)
        failures, solutions, skipped = _per_solution_sweep(
            8, convention, checker, limit)
        assert not report.complete
        assert report.failures == failures and len(failures) == limit
        assert (report.solutions, report.skipped) == (solutions, skipped)
        # the stop falls inside the fraction, not at its end
        last = failures[-1]
        seen = list(_iter_raw(1, last.m, last.n, 4))
        assert seen.index(last.denominators) < len(seen) - 1


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_walk_counts_every_solution(convention):
    walk = compiled_walk(convention)
    for n in range(1, 13):
        patterns = {}
        for m in range(1, 4 * n + 1):
            if math.gcd(m, n) == 1:
                solutions, skipped, _, _, found = walk(m, n, patterns, math.inf)
                assert solutions == count_representations(m, n, 4), (m, n)
                assert found == []
                assert skipped <= solutions


def test_sweep_stats_shape():
    report = sweep_soundness(n_max=6, convention="reduced")
    stats = report.stats
    assert list(stats) == list(STATS_KEYS)
    assert all(type(value) is int for value in stats.values())
    assert stats["solutions"] == report.solutions
    assert stats["skipped"] == report.skipped > 0
    assert 0 < stats["a1_nodes"] <= stats["a2_nodes"] == stats["tail_calls"]
    assert sweep_soundness(n_max=6).stats == dict(stats, skipped=0)


def test_sweep_failure_is_a_value():
    failure = SweepFailure(1, 2, (4, 8, 16, 16), "master")
    assert str(failure) == "master for 1/2 on (4, 8, 16, 16)"
    assert "  FAIL %s" % (failure,) == "  FAIL " + str(failure)
    twin = SweepFailure(m=1, n=2, denominators=(4, 8, 16, 16), check="master")
    assert failure == twin and hash(failure) == hash(twin)
    assert failure != failure._replace(check="coprime:t1")
    for clone in (copy.copy(failure), copy.deepcopy(failure),
                  pickle.loads(pickle.dumps(failure))):
        assert clone == failure and type(clone) is SweepFailure
    with pytest.raises(AttributeError):
        failure.check = "coprime:t1"


def test_sweep_report_fields_and_defaults():
    report = SweepReport(n_max=5, m_factor=4, convention="reduced")
    assert (report.n_max, report.m_factor, report.convention) == (
        5, 4, "reduced")
    assert (report.fractions, report.solutions, report.skipped,
            report.failures, report.elapsed, report.complete) == (
        0, 0, 0, [], 0.0, True)
    assert list(report.stats.items()) == [(key, 0) for key in STATS_KEYS]
    assert report.ok
    assert report.summary() == (
        "swept 0 fractions / 0 solutions (n <= 5, m <= 4n, reduced): "
        "0 failures, 0 skipped, 0.0s")
    # each report owns its failures and stats
    other = SweepReport(5, 4, "reduced")
    other.failures.append(SweepFailure(1, 2, (4, 8, 16, 16), "master"))
    other.stats["solutions"] = 1
    assert report.failures == [] and report.stats["solutions"] == 0
    assert not other.ok
    other.complete = False
    assert other.summary().endswith(
        "1 failures, 0 skipped, 0.0s; PARTIAL: stopped at the fail limit")


def test_mfactor_past_four_counts_fractions_without_walking():
    # no m/n > 4 has a 4-term solution, so past m = 4n only fractions count
    four = sweep_soundness(n_max=8)
    phi = sum(1 for n in range(1, 9) for m in range(1, n + 1)
              if math.gcd(m, n) == 1)
    for m_factor in (5, 7, 10 ** 20):
        report = sweep_soundness(n_max=8, m_factor=m_factor)
        assert report.fractions == four.fractions + (m_factor - 4) * phi
        assert (report.solutions, report.skipped, report.stats) == (
            four.solutions, four.skipped, four.stats)
    assert sweep_soundness(n_max=8, m_factor=7).fractions == sum(
        1 for n in range(1, 9) for m in range(1, 7 * n + 1)
        if math.gcd(m, n) == 1)


_KEY = re.compile(r"fails\.append\('([^']*)'\)")


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_walk_keeps_every_check_key_in_order(convention):
    # staging moves conditions and guards checks, never drops or reorders one
    keys = _KEY.findall(checker_source(convention))
    assert len(keys) == 1 + 4 + len(INCOMPARABLE_PAIRS) + 10 + 13
    assert _KEY.findall(walk_source(convention)) == keys


def test_walk_guards_pair_gcd_checks_at_the_leaf():
    lines = walk_source().splitlines()
    # the leaf's `while True:` block is indented 20 spaces
    assert lines.count("                    g13 = _gcd(t1, t3)") == 1
    assert "                    if x12 != 1 and x34 != 1:" in lines


_GUARD = re.compile(r"( *)if (\w+) != 1 and (\w+) != 1:")


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_each_guard_wraps_its_own_pair_gcd_and_nothing_else(
        monkeypatch, convention):
    lines = walk_source(convention).splitlines()
    monkeypatch.setattr("unitfrac.sweep._guarded", lambda block: block)
    unguarded = walk_source(convention).splitlines()
    kept, indent, guards = [], None, 0
    for i, line in enumerate(lines):
        guard = _GUARD.fullmatch(line)
        if guard:
            pad, a, b = guard.groups()
            assert lines[i + 1] == "%s    if _gcd(%s, %s) != 1:" % (pad, a, b)
            indent, guards = pad, guards + 1
            continue
        if indent is not None and line.startswith(indent + "    "):
            line = line[4:]
        else:
            indent = None
        kept.append(line)
    # the four coprime:t<i> checks and the incomparable pairs
    assert guards == 4 + len(INCOMPARABLE_PAIRS)
    assert kept == unguarded


# sha256 of walk_source(convention): the guarded walk, byte for byte
_WALK_PINS = {
    "standard": (291, "ab9b3824f77d61c9ee72760e4f1801ab"
                      "3228fef7f0a072dfff4379d2d6138a0d"),
    "reduced": (294, "57267835d8bd9a868054b362a73c371f"
                     "cdd1c241f03f001038bc50d21a78384e"),
}


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_walk_source_is_pinned(convention):
    source = walk_source(convention)
    assert (len(source.splitlines()),
            hashlib.sha256(source.encode()).hexdigest()) == _WALK_PINS[convention]


def test_walk_source_does_not_depend_on_the_hash_seed():
    script = ("import hashlib; from unitfrac.sweep import walk_source; "
              "print(*(hashlib.sha256(walk_source(c).encode()).hexdigest() "
              "for c in %r))" % (P.CONVENTIONS,))
    src = os.path.dirname(os.path.dirname(unitfrac.__file__))
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == [_WALK_PINS[c][1] for c in P.CONVENTIONS]


def _staging_probe(source):
    # coprime:t1 fails on even t1 and coprime:t2 on t2 divisible by 3.  The
    # pair check x13*x24 reads y13 = 2 * x13 and y24, which is 2 * x24 for
    # odd t4 and x24 otherwise: its gcd exceeds 1 only where neither
    # guarded value is 1, as on a real decomposition
    probed = source.replace(
        "    if _gcd(t1, nn1) != 1:\n", "    if _gcd(t1, 2 * nn1) != 1:\n", 1
    ).replace(
        "    if _gcd(t2, nn2) != 1:\n", "    if _gcd(t2, 3 * nn2) != 1:\n", 1
    ).replace(
        "    if _gcd(x13, x24) != 1:\n", "    if _gcd(y13, y24) != 1:\n", 1
    ).replace(
        "    fails = []\n", "    fails = []\n    y13 = 2 * x13\n"
        "    y24 = x24 * (1 + t4 % 2)\n", 1)
    assert probed.count("\n") == source.count("\n") + 2
    return probed


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_fail_limit_stops_staged_checks_as_a_per_solution_loop(
        monkeypatch, compile_checker, convention):
    probed = _staging_probe(checker_source(convention))
    monkeypatch.setattr("unitfrac.sweep.checker_source", lambda c: probed)
    monkeypatch.setattr("unitfrac.sweep.compiled_walk", compiled_walk.__wrapped__)
    source = walk_source(convention)
    assert "                    if _gcd(t1, 2 * nn1) != 1:\n" in source
    assert "                    if _gcd(t2, 3 * nn2) != 1:\n" in source
    assert "                    if y13 != 1 and y24 != 1:\n" in source
    checker = compile_checker(probed)
    for limit in (1, 7, 40, math.inf):
        report = sweep_soundness(n_max=8, convention=convention,
                                 fail_limit=None if limit == math.inf else limit)
        failures, solutions, skipped = _per_solution_sweep(
            8, convention, checker, limit)
        assert report.failures == failures
        assert (report.solutions, report.skipped) == (solutions, skipped)
        assert report.complete == (limit == math.inf)
    assert {f.check for f in failures} >= {
        "coprime:t1", "coprime:t2", "coprime:x13*x24"}
