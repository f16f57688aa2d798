"""Acceptance checks.

Each test is one headline criterion for the workbench, so `pytest -v`
prints one pass/fail line per criterion.  Expected values are frozen
from independent derivations in the per-module test files.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from unitfrac.asymptotics import breakpoint_alphas, regime_table, sylvester
from unitfrac.boundsearch import replay_witness, search, witness_to_json
from unitfrac.catalog import build_rules, family_counts
from unitfrac.closure import closure, is_defining
from unitfrac.enumeration import count_representations
from unitfrac.params import PARAM_ORDER, X_PARAMS
from unitfrac.sweep import sweep_soundness

from oracles import _iter_scan

CORE_SETS = (
    {"z23", "z234"},
    {"x23", "x24", "z234"},
    {"x23", "x234", "z234"},
    {"x12", "x123", "x124", "x1234", "z34"},
    {"x12", "x13", "x24", "x34", "x123", "x124", "x134", "x1234"},
    {"x12", "x13", "x14", "x23", "x123", "x124", "x134", "x234", "x1234"},
)

EXPONENTS_A = {
    "x12": 3, "x13": 1, "x23": 2, "x24": 1, "x34": 1,
    "x123": 3, "x124": 2, "x134": 1, "x234": 2, "x1234": 3,
    "z34": 1, "z234": 2,
}
EXPONENTS_B = {
    "x12": 5, "x13": 2, "x14": 2, "x23": 3, "x24": 1,
    "x123": 5, "x124": 4, "x134": 2, "x234": 2, "x1234": 5,
    "z23": 1, "z34": 1, "z234": 2,
}


def test_criterion_1_catalog_has_96_rules_in_8_families_under_1s():
    build_rules.cache_clear()
    start = time.perf_counter()
    rules = build_rules()
    elapsed = time.perf_counter() - start
    assert len(rules) == 96
    assert family_counts(rules) == (55, 6, 4, 12, 4, 6, 3, 6)
    assert elapsed < 1.0


def test_criterion_2_six_core_sets_are_defining_under_1s():
    start = time.perf_counter()
    for names in CORE_SETS:
        assert is_defining(names), sorted(names)
    assert time.perf_counter() - start < 1.0


def test_criterion_3_search_recovers_both_witness_bounds_and_replays():
    start = time.perf_counter()
    result = search(10, g_max=6)
    elapsed = time.perf_counter() - start
    assert result.complete
    by_score = {(b.A, b.B, b.g): b for b in result.frontier}
    assert (Fraction(6), Fraction(3), 4) in by_score
    assert (Fraction(8), Fraction(5), 5) in by_score
    first = by_score[(Fraction(6), Fraction(3), 4)]
    second = by_score[(Fraction(8), Fraction(5), 5)]
    assert dict(first.exponents()) == EXPONENTS_A
    assert dict(second.exponents()) == EXPONENTS_B
    for bound, frozen in ((first, EXPONENTS_A), (second, EXPONENTS_B)):
        replayed = replay_witness(json.loads(witness_to_json(bound)))
        assert dict(replayed.exponents()) == frozen
        assert (replayed.A, replayed.B, replayed.g) == \
            (bound.A, bound.B, bound.g)
    assert elapsed < 180.0


def test_criterion_4_every_4term_solution_to_n50_passes_every_check():
    start = time.perf_counter()
    report = sweep_soundness(n_max=50, m_factor=4, convention="standard")
    elapsed = time.perf_counter() - start
    assert report.ok
    assert report.failures == []
    assert report.skipped == 0
    assert report.fractions == 3096
    assert report.solutions == 2314392
    assert elapsed < 600.0


def test_criterion_5_divisor_trick_counts_match_naive_scan_to_n30():
    start = time.perf_counter()
    for n in range(1, 31):
        for m in range(1, 4 * n + 1):
            if math.gcd(m, n) != 1:
                continue
            for k in range(0, 5):
                fast = count_representations(m, n, k)
                naive = sum(1 for _ in _iter_scan(1, m, n, k))
                assert fast == naive, (m, n, k)
    assert count_representations(1, 1, 3) == 3
    assert count_representations(1, 1, 4) == 14
    assert count_representations(1, 1, 5) == 147
    assert time.perf_counter() - start < 300.0


def test_criterion_6_breakpoints_exact_and_regimes_continuous():
    assert breakpoint_alphas() == (5250, 8925, 10115, 10200, 24276)
    assert all(a.denominator == 1 for a in breakpoint_alphas())
    table = regime_table()
    for (_, hi, before), (lo, _, after) in zip(table, table[1:]):
        assert hi == lo
        assert before.n_exp(hi) == after.n_exp(hi)  # exact rationals


def test_criterion_7_sylvester_enclosure_certifies_prefix_under_1s():
    start = time.perf_counter()
    state = sylvester(Fraction(1, 10 ** 7))
    elapsed = time.perf_counter() - start
    assert state.u[:5] == (1, 2, 6, 42, 1806)
    assert state.width <= Fraction(1, 10 ** 7)
    assert state.decimal_prefix(7) == 15979102
    assert elapsed < 1.0


def test_criterion_8_closure_laws_hold_on_1000_random_sets():
    rng = random.Random(1009)
    for _ in range(1000):
        base = rng.sample(PARAM_ORDER, rng.randint(0, 8))
        extra = rng.sample(PARAM_ORDER, rng.randint(0, 4))
        small = frozenset(base)
        large = small | frozenset(extra)
        closed = closure(small)
        assert small <= closed                       # extensive
        assert closure(closed) == closed            # idempotent
        assert closed <= closure(large)              # monotone
        if is_defining(small):
            assert is_defining(large)                # supersets stay defining
            assert set(X_PARAMS) <= closed
