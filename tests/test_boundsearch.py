"""Inequality combination, pattern reduction, partitioning, Pareto search."""

from __future__ import annotations

import hashlib
import json
import re
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import boundsearch
from unitfrac import params as P
from unitfrac.boundsearch import (
    TEMPLATE_ORDER,
    _Frontier,
    combination_sort_key,
    combine,
    default_library,
    max_feasible_g,
    normalize_combination,
    partition,
    pattern_reductions,
    replay_witness,
    search,
    witness_to_json,
)
from unitfrac.catalog import build_inequalities
from unitfrac.closure import (CORE_DEFINING_SETS, is_defining,
                              minimal_defining_sets, sort_sets)
from unitfrac.errors import (InputError, InvariantError,
                             UnclearedDenominatorError)

# the two reference combinations rebuilt throughout this module
COMBO_A = {"z34": 1, "z234": 2, "t1": 3}
COMBO_B = {"z23": 1, "z34": 1, "z234": 2, "t1": 5}

EXPONENTS_A = {
    "x12": 3, "x13": 1, "x23": 2, "x24": 1, "x34": 1,
    "x123": 3, "x124": 2, "x134": 1, "x234": 2, "x1234": 3,
    "z34": 1, "z234": 2,
}
# the paper's second pair, reached first at budget 9 by COMBO_B
SCORE_B = (Fraction(8, 5), Fraction(1))

EXPONENTS_B = {
    "x12": 5, "x13": 2, "x14": 2, "x23": 3, "x24": 1,
    "x123": 5, "x124": 4, "x134": 2, "x234": 2, "x1234": 5,
    "z23": 1, "z34": 1, "z234": 2,
}


def test_normalize_combination():
    combo = normalize_combination({"t1": 3, "z234": 2, "z34": 1})
    assert list(combo) == ["z34", "z234", "t1"]  # template order
    assert normalize_combination({"z12": 0}) == {}
    with pytest.raises(InputError):
        normalize_combination({"bogus": 1})
    with pytest.raises(InputError):
        normalize_combination({"z12": -1})


def test_combination_sort_key_orders_by_total_first():
    assert combination_sort_key({"t1": 1}) < combination_sort_key(
        {"z12": 1, "t1": 1})
    # at equal total the multiplicity vector in template order decides
    assert combination_sort_key({"t1": 1}) < combination_sort_key(
        {"z12": 1})


def test_combine_reference_combination_a():
    raw = combine(COMBO_A)
    assert raw.exponents == EXPONENTS_A
    assert raw.constant == 1152
    assert (raw.n_exp, raw.m_exp) == (6, 3)
    assert raw.pattern == {"n1": 3, "n2": 2, "n3": 1, "d34": 1, "d234": 2}
    assert str(raw) == (
        "x12^3*x13*x23^2*x24*x34*x123^3*x124^2*x134*x234^2*x1234^3"
        "*z34*z234^2 <= 1152*n^6/(m^3*n1^3*n2^2*n3*d34*d234^2)")


def test_combine_reference_combination_b():
    raw = combine(COMBO_B)
    assert raw.exponents == EXPONENTS_B
    assert raw.constant == 36864
    assert (raw.n_exp, raw.m_exp) == (9, 5)
    assert raw.pattern == {"n1": 5, "n2": 3, "n3": 1, "d23": 1, "d34": 1,
                           "d234": 2}


def test_combine_rejects_uncleared_denominator():
    with pytest.raises(UnclearedDenominatorError) as err:
        combine({"z13": 1})
    assert "x23" in str(err.value)
    with pytest.raises(InputError):
        combine({})


def test_combination_that_is_not_a_mapping_is_refused():
    for bad in (None, [("t1", 1)], 3):
        with pytest.raises(InputError, match="combination must map"):
            combine(bad)
        with pytest.raises(InputError, match="combination must map"):
            normalize_combination(bad)


def test_exponents_that_are_not_a_mapping_are_refused():
    for bad in (None, [("z23", 1)], 3):
        with pytest.raises(InputError, match="exponents must map"):
            partition(bad, 1)
        with pytest.raises(InputError, match="exponents must map"):
            max_feasible_g(bad, 2)


def test_pattern_that_is_not_a_mapping_is_refused():
    for bad in (None, 5, [("n1", 1)]):
        with pytest.raises(InputError, match="pattern must map"):
            pattern_reductions(bad)
    # a mapping that is not a dict takes the full check and is accepted
    pattern = {"n1": 1, "n2": 1, "d12": 1}
    assert pattern_reductions(MappingProxyType(pattern)) == (
        pattern_reductions(pattern))


def test_pattern_reductions():
    # no complete instance inside combination A's pattern
    assert pattern_reductions({"n1": 3, "n2": 2, "n3": 1, "d34": 1,
                               "d234": 2}) == (0, ())
    # combination B's pattern admits exactly one pair instance
    count, applications = pattern_reductions(
        {"n1": 5, "n2": 3, "n3": 1, "d23": 1, "d34": 1, "d234": 2})
    assert count == 1
    assert applications == (("n2", "n3", "d23"),)
    # two disjoint instances when symbols allow it
    count, applications = pattern_reductions(
        {"n1": 1, "n2": 1, "n3": 1, "n4": 1, "d12": 1, "d34": 1})
    assert count == 2
    assert set(applications) == {("n1", "n2", "d12"), ("n3", "n4", "d34")}
    # a triple instance
    count, applications = pattern_reductions(
        {"n2": 1, "n3": 1, "n4": 1, "d234": 1})
    assert count == 1
    assert applications == (("n2", "n3", "n4", "d234"),)
    with pytest.raises(InputError):
        pattern_reductions({"n5": 1})


def _first_matching(pattern):
    """Exhaustive matcher over all ten instances, symbols looked up by name.

    Depth first in instance order, an instance may repeat, and a longer
    matching replaces the best so far only when strictly longer.
    """
    instances = [tuple("n%d" % i for i in J) + (P.d_name(J),)
                 for J in P.Z_SUBSETS]
    symbols = P.PATTERN_SYMBOLS

    def best(avail, start):
        result = ()
        for idx in range(start, len(instances)):
            inst = instances[idx]
            if min(avail[symbols.index(s)] for s in inst) < 1:
                continue
            taken = list(avail)
            for s in inst:
                taken[symbols.index(s)] -= 1
            cand = (inst,) + best(tuple(taken), idx)
            if len(cand) > len(result):
                result = cand
        return result

    apps = best(tuple(pattern.get(s, 0) for s in symbols), 0)
    return len(apps), apps


@settings(deadline=None)
@given(st.dictionaries(st.sampled_from(P.PATTERN_SYMBOLS), st.integers(0, 5)))
def test_pattern_reductions_matches_exhaustive_matcher(pattern):
    # equal applications, order included: witnesses store them
    assert pattern_reductions(pattern) == _first_matching(pattern)


ALL_K_SYMBOLS = ("n1", "n2", "n3", "n4", "d12", "d13", "d23", "d123", "d14",
                 "d234", "d24")


def test_pattern_reductions_prunes_short_branches():
    # With every symbol at count k the largest matching is 2k, and it uses
    # no d12: the scan must leave the many d12 branches without exhausting
    # them, yet return the first matching an exhaustive scan finds.
    for k in range(1, 9):
        pattern = dict.fromkeys(ALL_K_SYMBOLS, k)
        assert pattern_reductions(pattern) == _first_matching(pattern)
    start = time.perf_counter()
    count, apps = pattern_reductions(dict.fromkeys(ALL_K_SYMBOLS, 32))
    assert time.perf_counter() - start < 2.0
    assert count == 64
    assert apps == ((("n1", "n3", "d13"),) * 32 + (("n2", "n4", "d24"),) * 32)


def test_default_library():
    library = default_library()
    assert len(library) == 48
    assert all(is_defining(s) for s in library)
    sizes = sorted(len(s) for s in library)
    assert sizes[:2] == [2, 2] and sizes[-2:] == [8, 9]
    assert default_library() is library


def test_stored_default_library_is_the_derived_one():
    derived = set(minimal_defining_sets(3)) | set(CORE_DEFINING_SETS)
    assert boundsearch._DEFAULT_LIBRARY == tuple(sort_sets(derived))


def test_partition_reference_a():
    lhs = dict(EXPONENTS_A)
    result = partition(lhs, 4)
    assert result is not None
    assert len(result.bases) == 4
    assert sorted(len(b) for b in result.bases) == [3, 3, 5, 8]
    assert result.leftover == {"x12": 1, "x123": 1, "x1234": 1}
    parts = result.parts()
    assert len(parts) == 4
    # leftover is folded into the first part; totals cover the vector
    total = {}
    for part in parts:
        for key, mult in part.items():
            total[key] = total.get(key, 0) + mult
    assert total == lhs
    assert partition(lhs, 5) is None


def test_partition_reference_b():
    result = partition(dict(EXPONENTS_B), 5)
    assert result is not None
    assert sorted(len(b) for b in result.bases) == [2, 3, 5, 9, 9]
    assert result.leftover == {"x12": 2, "x123": 2, "x124": 1, "x1234": 2}
    assert partition(dict(EXPONENTS_B), 6) is None


def test_max_feasible_g():
    assert max_feasible_g(dict(EXPONENTS_A), 6) == 4
    assert max_feasible_g(dict(EXPONENTS_B), 6) == 5
    assert max_feasible_g({"x12": 1}, 6) == 0


def test_packings_deeper_than_the_recursion_limit_are_refused():
    # each needs one level of the packing scan per set: 1500 or more
    for call in (lambda: pattern_reductions({"n1": 1500, "n2": 1500,
                                             "d12": 1500}),
                 lambda: partition({"z12": 2000, "z34": 2000}, 1500),
                 lambda: max_feasible_g({"z12": 2000, "z34": 2000}, 5000)):
        with pytest.raises(InputError, match="too deep to scan"):
            call()


# zero-heavy exponents, so that every packing number 0..6 turns up
@settings(deadline=None)
@given(st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=len(P.PARAM_ORDER),
                max_size=len(P.PARAM_ORDER)))
def test_partition_packs_every_feasible_g(exps):
    lhs = {p: e for p, e in zip(P.PARAM_ORDER, exps) if e}
    library = default_library()
    top = max_feasible_g(lhs, 6)
    for g in range(1, top + 1):
        result = partition(lhs, g)
        assert result is not None and result.g == g
        used = {}
        for base in result.bases:
            assert base in library and is_defining(base)
            for p in base:
                used[p] = used.get(p, 0) + 1
        assert all(lhs.get(p, 0) - used.get(p, 0) == result.leftover.get(p, 0)
                   >= 0 for p in P.PARAM_ORDER)
        total = {}
        for part in result.parts():
            for p, mult in part.items():
                total[p] = total.get(p, 0) + mult
        assert total == lhs
    if top < 6:
        assert partition(lhs, top + 1) is None


# a random sub-library, kept in default order, and a zero-heavy vector
@settings(deadline=None)
@given(st.lists(st.booleans(), min_size=len(default_library()),
                max_size=len(default_library())),
       st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=len(P.PARAM_ORDER),
                max_size=len(P.PARAM_ORDER)),
       st.integers(1, 3))
def test_partition_is_the_first_fitting_combination(keep, exps, g):
    library = [s for s, k in zip(default_library(), keep) if k]
    lhs = {p: e for p, e in zip(P.PARAM_ORDER, exps) if e}
    expected = None
    for combo in combinations_with_replacement(range(len(library)), g):
        left = dict(lhs)
        for idx in combo:
            for p in library[idx]:
                left[p] = left.get(p, 0) - 1
        if all(v >= 0 for v in left.values()):
            expected = ([library[idx] for idx in combo],
                        {p: v for p, v in left.items() if v})
            break
    result = partition(lhs, g, library=library)
    if expected is None:
        assert result is None
    else:
        assert (list(result.bases), dict(result.leftover)) == expected


def _cover_weights(cover):
    """A stored cover as exact weights by parameter name."""
    ones, halves = cover
    weights = dict.fromkeys(ones.split(), Fraction(1))
    weights.update(dict.fromkeys(halves.split(), Fraction(1, 2)))
    return weights


def _covers_every_set(weights, library):
    return all(sum(weights.get(p, 0) for p in s) >= 1 for s in library)


@lru_cache(maxsize=None)
def _minimal_five():
    return tuple(minimal_defining_sets(5))


def test_stored_covers_are_tight_fractional_covers_of_the_default_library():
    library = default_library()
    for cover in boundsearch._COVERS:
        ones, halves = (group.split() for group in cover)
        assert set(ones + halves) <= set(P.PARAM_ORDER)
        assert len(set(ones + halves)) == len(ones) + len(halves)
        weights = _cover_weights(cover)
        assert _covers_every_set(weights, library), cover
        # every weight is needed: half of it less leaves some set under 1
        for p in weights:
            assert not _covers_every_set(
                dict(weights, **{p: weights[p] - Fraction(1, 2)}), library), p
    assert len(set(boundsearch._COVERS)) == len(boundsearch._COVERS)


def test_each_library_keeps_exactly_the_covers_valid_for_it():
    for library, kept in ((default_library(), 10), (_minimal_five(), 4)):
        expected = [_cover_weights(c) for c in boundsearch._COVERS
                    if _covers_every_set(_cover_weights(c), library)]
        covers = boundsearch._library_supports(library)[2]
        assert [{P.PARAM_ORDER[pos]: Fraction(w, 2) for pos, w in cover}
                for cover in covers] == expected
        assert len(expected) == kept


# the cap leaves every partition and packing number as the plain scan has them
@settings(deadline=None, max_examples=60)
@given(st.sampled_from(("default", "minimal five")),
       st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=len(P.PARAM_ORDER),
                max_size=len(P.PARAM_ORDER)))
def test_capped_partitions_match_the_uncapped_scan(which, exps):
    library = default_library() if which == "default" else _minimal_five()
    lhs = {p: e for p, e in zip(P.PARAM_ORDER, exps) if e}
    supports = [tuple(sorted(P.PARAM_ORDER.index(p) for p in s))
                for s in library]
    firsts = boundsearch._first_packings(supports, exps, 7)
    for g in range(1, 8):
        result = partition(lhs, g, library=library)
        if g > len(firsts):
            assert result is None
            continue
        bases = [library[idx] for idx in firsts[g - 1]]
        left = dict(lhs)
        for base in bases:
            for p in base:
                left[p] -= 1
        assert (list(result.bases), dict(result.leftover)) == (
            bases, {p: v for p, v in left.items() if v})
    assert max_feasible_g(lhs, 7, library=library) == len(firsts)


def test_search_scans_stop_at_the_cover_cap(monkeypatch):
    # at budget 9 the covers refute every g above the packing number, so
    # each scan that runs reaches its cap
    scans = []
    real = boundsearch._first_packings

    def recording(supports, vec, limit, covers=()):
        firsts = real(supports, vec, limit, covers)
        if not covers:  # a partition scan, not a pattern reduction
            scans.append((limit, len(firsts)))
        return firsts

    monkeypatch.setattr(boundsearch, "_first_packings", recording)
    assert search(9).examined == 14312
    assert len(scans) == 272
    assert all(limit == depth for limit, depth in scans)


def test_search_tiny_budget():
    result = search(4)
    assert result.complete
    assert result.examined == 178
    assert len(result.frontier) == 10
    head = result.frontier[0]
    assert dict(head.combination) == {"z234": 1, "t1": 1}
    assert head.score == (Fraction(2), Fraction(1))


def test_search_budget_six_reaches_first_reference_bound():
    result = search(6)
    assert result.complete
    assert result.examined == 1261
    scores = [b.score for b in result.frontier]
    assert scores[0] == (Fraction(3, 2), Fraction(3, 4))
    assert scores == sorted(scores, key=lambda s: (s[0], -s[1]))


def test_search_reproduces_both_reference_bounds():
    result = search(10, g_max=6)
    assert result.complete
    assert result.examined == 29136
    by_score = {b.score: b for b in result.frontier}
    w1 = by_score[(Fraction(3, 2), Fraction(3, 4))]
    assert dict(w1.combination) == COMBO_A
    assert dict(w1.exponents()) == EXPONENTS_A
    assert (w1.A, w1.B, w1.g) == (6, 3, 4)
    assert w1.inequality.constant == 1152
    assert str(w1.inequality).endswith("<= 1152*n^6/m^3")
    w2 = by_score[(Fraction(8, 5), Fraction(1))]
    assert dict(w2.combination) == COMBO_B
    assert dict(w2.exponents()) == EXPONENTS_B
    assert (w2.A, w2.B, w2.g) == (8, 5, 5)
    assert w2.inequality.constant == 36864
    assert str(w2.inequality).endswith("<= 36864*n^8/m^5")
    assert w2.reductions == (("n2", "n3", "d23"),)
    # nothing on the frontier dominates either reference point
    for bound in result.frontier:
        for target in (w1, w2):
            if bound.score != target.score:
                assert not (bound.score[0] <= target.score[0]
                            and bound.score[1] >= target.score[1])
    # every witness re-derives through combine() and pattern_reductions()
    witnesses = [witness_to_json(b) for b in result.frontier]
    assert len(witnesses) == 34
    for w in witnesses:
        assert witness_to_json(replay_witness(json.loads(w))) == w


def _most_disjoint_instances(pattern, instances):
    """Most disjoint copies of the instances: every multiplicity of each."""
    if not instances:
        return 0
    first, rest = instances[0], instances[1:]
    best = _most_disjoint_instances(pattern, rest)
    for k in range(1, min(pattern.get(s, 0) for s in first) + 1):
        left = dict(pattern)
        for s in first:
            left[s] -= k
        best = max(best, k + _most_disjoint_instances(left, rest))
    return best


def _packing_number(exps, library, g_max):
    """Largest g <= g_max such that g library sets, repeats allowed, fit."""
    best = 0

    def grow(left, start, depth):
        nonlocal best
        best = max(best, depth)
        for idx in range(start, len(library)):
            if best < g_max and all(left.get(p, 0) >= 1 for p in library[idx]):
                for p in library[idx]:
                    left[p] -= 1
                grow(left, idx, depth + 1)
                for p in library[idx]:
                    left[p] += 1

    grow(dict(exps), 0, 0)
    return best


def _pareto_by_hand(budget, g_max):
    """(clearable combinations, Pareto set of their scores), by hand.

    Every multiset of templates is multiplied out by hand and scored at
    every packable g; the Pareto set comes from pairwise comparison.
    """
    library = default_library()
    instances = [tuple("n%d" % i for i in J) + ("d" + "".join(map(str, J)),)
                 for r in (2, 3) for J in combinations(P.INDICES, r)]
    points = set()
    clearable = 0
    for total in range(1, budget + 1):
        for multiset in combinations_with_replacement(build_inequalities(),
                                                      total):
            exps, pattern = {}, {}
            n_exp = m_exp = 0
            for tmpl in multiset:
                for p, e in tmpl.lhs.items():
                    exps[p] = exps.get(p, 0) + e
                for p, e in tmpl.rhs.items():
                    exps[p] = exps.get(p, 0) - e
                for s, e in tmpl.pattern.items():
                    pattern[s] = pattern.get(s, 0) + e
                n_exp += tmpl.n_exp
                m_exp -= tmpl.m_exp
            if min(exps.values()) < 0:
                continue
            clearable += 1
            a = n_exp - _most_disjoint_instances(pattern, instances)
            for g in range(1, _packing_number(exps, library, g_max) + 1):
                points.add((Fraction(a, g), Fraction(m_exp, g)))
    pareto = {p for p in points
              if not any(q != p and q[0] <= p[0] and q[1] >= p[1]
                         for q in points)}
    return clearable, pareto


def test_search_frontier_is_complete_at_budget_six():
    clearable, pareto = _pareto_by_hand(6, 6)
    result = search(6, g_max=6)
    assert clearable + 1 == result.examined  # search also visits the empty one
    assert {b.score for b in result.frontier} == pareto


@pytest.mark.parametrize("g_max", [1, 2, 3, 4, 5])
def test_search_frontier_is_complete_for_smaller_g_max(g_max):
    # the pre-check skips a candidate only when its keys at every g up to
    # g_max are covered, so each g_max exercises it on other keys
    _, pareto = _pareto_by_hand(6, g_max)
    assert {b.score for b in search(6, g_max=g_max).frontier} == pareto


@pytest.fixture(scope="module")
def budget_nine():
    return search(9)


def test_search_output_is_pinned(budget_nine):
    # figures of the unpruned search; pruning must leave every one as is
    examined = [search(b).examined for b in range(1, 9)]
    examined.append(budget_nine.examined)
    assert examined == [4, 17, 57, 178, 492, 1261, 2996, 6726, 14312]
    assert budget_nine.complete and len(budget_nine.frontier) == 29
    text = "\n".join(witness_to_json(b) for b in budget_nine.frontier) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "187d08dfa943802d420af98ef53987736e25fbf154de6aae096ccb650baefa71")
    assert not search(9, node_limit=14311).complete
    at_limit = search(9, node_limit=14312)
    assert at_limit.complete and at_limit.examined == 14312


def test_search_budget_ten_is_pinned():
    # a budget where the optimistic pre-check decides most candidates
    result = search(10)
    assert result.complete and result.examined == 29136
    assert len(result.frontier) == 34
    text = "".join(witness_to_json(b) + "\n" for b in result.frontier)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0bd5211a1cb0c404c8cefcdbf3031b9b2a255a27a836bab2bdda44a08c3c0d25")


@pytest.mark.parametrize("limit, skipped, points, digest", [
    (1000, 336, 28,
     "7edb561e9023e370e7662e2342f7cf2cc1b7144b013c17aee2bc24b66811c233"),
    (5000, 2893, 30,
     "1100089113b950318a5b429788c5ba6889f3d5a2000861c33135f52ff83c8af2"),
    (12000, 8358, 29,
     "187d08dfa943802d420af98ef53987736e25fbf154de6aae096ccb650baefa71"),
])
def test_partial_search_visits_combinations_in_order(limit, skipped, points,
                                                     digest):
    # a node limit cuts the walk at a fixed place in its visiting order,
    # so the partial frontier and the pre-check's count pin that order
    result = search(9, node_limit=limit)
    assert not result.complete and result.examined == limit
    assert result.skipped == skipped and len(result.frontier) == points
    text = "".join(witness_to_json(b) + "\n" for b in result.frontier)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_search_skipped_counts_are_pinned(budget_nine):
    assert budget_nine.skipped == 10128
    assert search(10).skipped == 22449


def test_search_budget_twelve_is_pinned():
    # the budget where remembering decided pairs saves the most
    result = search(12)
    assert result.complete and result.examined == 107528
    assert result.skipped == 94678 and len(result.frontier) == 40
    text = "".join(witness_to_json(b) + "\n" for b in result.frontier)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cb8285c172756cce309c454ad3bc3cab293316cd64a36bd973cfbf90db5eeeab")


def test_walk_decides_each_covered_pair_once():
    # with every key covered, each leaf is skipped, and only a pair's
    # first leaf asks `covered`, once per g
    keys = []

    def covered(key):
        keys.append(key)
        return True

    def candidate(mults, row):
        raise AssertionError("a covered leaf reached candidate")

    steps = ((1, 2), (2, 1))
    decided = set()
    examined, skipped, complete = boundsearch.compiled_walk()(
        4, None, steps, covered, decided, candidate)
    assert complete and examined == skipped == search(4).examined
    assert 1 < len(decided) < examined
    assert sorted(keys) == sorted((a * s, b * s) for a, b in decided
                                  for _, s in steps)
    # a pair already decided takes no `covered` call at all
    keys.clear()
    assert boundsearch.compiled_walk()(
        4, None, steps, covered, decided, candidate)[:2] == (examined,
                                                             examined)
    assert keys == []


def test_walk_source_nests_one_loop_per_row(monkeypatch):
    source = boundsearch.walk_source()
    assert source == boundsearch.walk_source()
    compile(source, "<walk>", "exec")
    assert boundsearch.compiled_walk() is boundsearch.compiled_walk()
    loops = [line for line in source.splitlines()
             if line.lstrip().startswith(("while ", "for "))]
    indents = [len(line) - len(line.lstrip()) for line in loops]
    assert indents == sorted(set(indents))  # each inside the one before
    assert [line.strip() for line in loops].count("while True:") == len(
        boundsearch._ROWS)
    # the rows' loops and the leaf's, under CPython's limit of 20
    assert len(loops) == len(boundsearch._ROWS) + 1 <= 20
    monkeypatch.setattr(boundsearch, "_ROWS", boundsearch._ROWS * 2)
    with pytest.raises(InvariantError, match="at most 20"):
        boundsearch.walk_source()


def test_walk_source_is_pinned():
    # the generated walk, byte for byte: a rewrite of the generator must
    # emit the same source, so the compiled search stays the same code
    source = boundsearch.walk_source()
    assert len(source.splitlines()) == 444
    assert hashlib.sha256(source.encode()).hexdigest() == (
        "0868001616f046aca3194ee0850dc48fddc4f3e47fbc284cc5e0328d46edc2b7")


@pytest.mark.parametrize("depth, compiles", [(20, True), (21, False)])
def test_cpython_limits_statically_nested_loops(depth, compiles):
    # the limit the walk's guard states; it fails at compile time
    source = "".join("    " * i + "for _ in ():\n" for i in range(depth))
    source += "    " * depth + "pass\n"
    if compiles:
        compile(source, "<nested>", "exec")
    else:
        with pytest.raises(SyntaxError, match="nested blocks"):
            compile(source, "<nested>", "exec")


def test_search_skips_pattern_reductions_for_covered_candidates(monkeypatch):
    calls = []
    real = boundsearch.pattern_reductions

    def counting(pattern):
        calls.append(pattern)
        return real(pattern)

    monkeypatch.setattr(boundsearch, "pattern_reductions", counting)
    result = search(9)
    assert result.examined == 14312
    assert result.skipped > 0
    assert len(calls) == result.examined - result.skipped


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(
    st.integers(0, 5), st.integers(0, 5),
    st.dictionaries(st.sampled_from(TEMPLATE_ORDER[:3]), st.integers(1, 2),
                    min_size=1)), max_size=25))
def test_frontier_staircase_matches_pairwise_rule(steps):
    # the search inserts exactly the keys that are not covered; keys tie
    # often on this small grid, with different combinations
    frontier = _Frontier()
    reference = []  # (key, combination) pairs
    grid = [(a, b) for a in range(-1, 7) for b in range(-1, 7)]
    for a, b, combo in steps:
        for key in grid:
            pairwise = any(pa <= key[0] and pb >= key[1] and (pa, pb) != key
                           for (pa, pb), _ in reference)
            assert frontier.covered(key) == pairwise, key
        if frontier.covered((a, b)):
            continue
        frontier.insert((a, b), SimpleNamespace(combination=combo))
        tie = [entry for entry in reference if entry[0] == (a, b)]
        if tie and (combination_sort_key(tie[0][1])
                    <= combination_sort_key(combo)):
            continue
        reference = [entry for entry in reference
                     if not (a <= entry[0][0] and b >= entry[0][1])]
        reference.append(((a, b), combo))
    assert ([bound.combination for bound in frontier.sorted()]
            == [combo for _, combo in sorted(reference,
                                              key=lambda e: e[0])])
    assert sorted(frontier.points) == sorted(key for key, _ in reference)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
                max_size=30))
def test_frontier_coverage_only_grows(keys):
    # the search remembers pairs found covered, which is sound only if
    # inserting an uncovered key never uncovers another key
    frontier = _Frontier()
    grid = [(a, b) for a in range(-3, 8) for b in range(-3, 8)]
    before = set()
    for key in keys:
        if frontier.covered(key):
            continue
        frontier.insert(key, SimpleNamespace(combination={"t1": 1}))
        after = {k for k in grid if frontier.covered(k)}
        assert before <= after
        before = after


def test_witness_roundtrip_and_tamper_detection(budget_nine):
    result = search(6)
    bound = result.frontier[0]
    doc = json.loads(witness_to_json(bound))
    replayed = replay_witness(doc)
    assert replayed.score == bound.score
    assert dict(replayed.exponents()) == dict(bound.exponents())
    bad = json.loads(witness_to_json(bound))
    bad["exponents"]["x12"] = 99
    with pytest.raises(InputError):
        replay_witness(bad)
    worse = json.loads(witness_to_json(bound))
    worse["A"] = worse["A"] - 1
    with pytest.raises(InputError):
        replay_witness(worse)
    empty = json.loads(witness_to_json(bound))
    empty["g"] = 0
    empty["partition"]["bases"] = []
    with pytest.raises(InputError):
        replay_witness(empty)
    # stored reductions are checked, not re-derived over
    with_apps = next(b for b in budget_nine.frontier if b.score == SCORE_B)
    assert with_apps.reductions == (("n2", "n3", "d23"),)
    doc = json.loads(witness_to_json(with_apps))
    assert witness_to_json(replay_witness(doc)) == witness_to_json(with_apps)
    swapped = dict(doc, reductions=[["n1", "n2", "d12"]])
    with pytest.raises(InputError, match="reductions do not replay"):
        replay_witness(swapped)
    garbage = dict(doc, reductions="garbage")
    with pytest.raises(InputError, match="malformed witness"):
        replay_witness(garbage)
    missing = dict(doc)
    del missing["reductions"]
    with pytest.raises(InputError, match="no 'reductions' field"):
        replay_witness(missing)
    # every number is a JSON integer; none is truncated into shape
    line = json.loads(witness_to_json(search(4).frontier[0]))
    for field, value in (("A", 2.9), ("constant", 12.7), ("g", True)):
        with pytest.raises(InputError, match="malformed witness"):
            replay_witness(dict(line, **{field: value}))
    fractional = dict(line, combination=dict(line["combination"], z234=1.5))
    with pytest.raises(InputError, match="malformed witness"):
        replay_witness(fractional)
    # a base given as a str is refused whole, not read as its letters
    spelled = dict(line, partition=dict(line["partition"], bases=[
        " ".join(base) for base in line["partition"]["bases"]]))
    with pytest.raises(InputError, match="is a string"):
        replay_witness(spelled)


def test_witness_json_is_deterministic():
    result = search(4)
    first = [witness_to_json(b) for b in result.frontier]
    second = [witness_to_json(b) for b in search(4).frontier]
    assert first == second
    for line in first:
        assert "\n" not in line
        assert json.dumps(json.loads(line), sort_keys=True) == line


def test_search_clamps_g_max_to_the_largest_possible_packing():
    # budget 2 adds at most 14 occurrences, so no g above 14 can fit
    start = time.perf_counter()
    huge = search(2, g_max=300000)
    assert time.perf_counter() - start < 1.0
    assert ([witness_to_json(b) for b in huge.frontier]
            == [witness_to_json(b) for b in search(2, g_max=14).frontier])


def test_node_limit_marks_partial():
    result = search(10, node_limit=100)
    assert not result.complete
    assert result.examined <= 100
    full = search(4)
    assert full.complete
    for bad in (0, -5):
        with pytest.raises(InputError):
            search(4, node_limit=bad)


def test_search_examines_exactly_the_clearable_combinations():
    # every multiset of templates through combine(), which shares no code
    # with the search's row recursion; the search also visits the empty one
    keys = [t.key for t in build_inequalities()]
    clearable = 0
    for budget in range(1, 7):
        for multiset in combinations_with_replacement(keys, budget):
            combo = {}
            for key in multiset:
                combo[key] = combo.get(key, 0) + 1
            try:
                combine(combo)
            except UnclearedDenominatorError:
                continue
            clearable += 1
        assert search(budget).examined == clearable + 1


def test_node_limit_contract():
    # the search's least multiplicities clear a deficit at the last
    # template touching it, so that template must raise it
    net = [{p: t.lhs.get(p, 0) - t.rhs.get(p, 0) for p in P.PARAM_ORDER}
           for t in build_inequalities()]
    for p in P.PARAM_ORDER:
        if any(row[p] < 0 for row in net):
            assert [row[p] for row in net if row[p]][-1] > 0, p
    for budget in (3, 5, 7, 8):
        total = search(budget).examined
        for limit in (1, 2, 3, 5, 10, total // 3, total // 2, total - 1,
                      total, total + 1):
            result = search(budget, node_limit=limit)
            assert result.examined == min(limit, total)
            assert result.complete == (limit >= total)


def test_counts_exponents_and_sizes_must_be_integers():
    lhs = {"x23": 1, "z23": 1, "z234": 1}
    for bad in (1.5, True, -1):
        with pytest.raises(InputError):
            pattern_reductions({"n1": bad, "n2": 1, "d12": 1})
        with pytest.raises(InputError):
            partition(dict(lhs, x23=bad), 1)
        with pytest.raises(InputError):
            max_feasible_g(dict(lhs, x23=bad), 3)
        with pytest.raises(InputError):
            normalize_combination({"t1": bad})
    for bad in (2.5, True):
        with pytest.raises(InputError):
            partition(lhs, bad)
        with pytest.raises(InputError):
            max_feasible_g(lhs, bad)
        for kwargs in ({"budget": bad}, {"budget": 2, "g_max": bad},
                       {"budget": 2, "node_limit": bad}):
            with pytest.raises(InputError):
                search(**kwargs)
    # pattern_reductions checks a plain int inline and every other value
    # through check_integer: the two must accept and reject alike
    class Count(int):
        pass

    bads = [2.0, False, Count(-1), "1"]
    try:
        import numpy
    except ImportError:  # numpy is not a dependency
        pass
    else:
        bads.append(numpy.int64(1))
    for bad in bads:
        with pytest.raises(InputError):
            pattern_reductions({"n1": bad, "n2": 1, "d12": 1})
    assert pattern_reductions({"n1": Count(1), "n2": 1, "d12": 1}) == (
        1, (("n1", "n2", "d12"),))
    assert pattern_reductions({"n1": Count(0), "n2": 1, "d12": 1}) == (0, ())
    # the message names the argument, a str is no integer either
    for bad in (2.5, True, "3"):
        calls = ((lambda: partition(lhs, bad), "g"),
                 (lambda: max_feasible_g(lhs, bad), "g_max"),
                 (lambda: search(bad), "budget"),
                 (lambda: search(2, g_max=bad), "g_max"),
                 (lambda: search(2, node_limit=bad), "node_limit"),
                 (lambda: partition(dict(lhs, x23=bad), 1), "x23"),
                 (lambda: normalize_combination({"t1": bad}), "t1"),
                 (lambda: pattern_reductions({"n1": bad}), "n1"))
        for call, name in calls:
            with pytest.raises(InputError, match=name + " must be an integer"):
                call()


def test_search_rejects_bad_library():
    with pytest.raises(InputError):
        search(4, library=[frozenset({"x12"})])


def test_library_that_is_not_a_collection_is_refused():
    for bad in (5, 2.5):
        for call in (lambda: search(2, library=bad),
                     lambda: partition({"z12": 1}, 1, library=bad),
                     lambda: max_feasible_g({"z12": 1}, 3, library=bad)):
            with pytest.raises(InputError, match=re.escape(
                    "library %r is not a collection" % (bad,))):
                call()


def test_partition_and_max_feasible_g_reject_bad_library():
    library = [frozenset({"x12"})]
    with pytest.raises(InputError, match="not defining"):
        partition({"x12": 1}, 1, library=library)
    with pytest.raises(InputError, match="not defining"):
        max_feasible_g({"x12": 3}, 6, library=library)


def _counting_is_defining(monkeypatch):
    calls = []

    def counting(s, *args):
        calls.append(frozenset(s))
        return is_defining(s, *args)

    monkeypatch.setattr(boundsearch, "is_defining", counting)
    return calls


def test_custom_library_is_checked_once_and_bad_ones_every_time(monkeypatch):
    calls = _counting_is_defining(monkeypatch)
    boundsearch._checked_library.cache_clear()
    library = list(_minimal_five())  # a list, as a caller may pass
    for g in (1, 2, 3):
        partition(dict(EXPONENTS_B), g, library=library)
    outside = [s for s in library if s not in default_library()]
    assert len(outside) == 17
    assert sorted(calls, key=sorted) == sorted(outside, key=sorted)
    # the default library is trusted as stored: no closure runs for it
    del calls[:]
    search(3)
    search(3, library=default_library())
    partition(dict(EXPONENTS_A), 4, library=list(default_library()))
    assert calls == []
    bad = [frozenset({"z23", "z234"}), frozenset({"x12"})]
    for _ in range(2):
        with pytest.raises(InputError, match="not defining"):
            search(3, library=bad)
        with pytest.raises(InputError, match="not defining"):
            partition({"x12": 1}, 1, library=bad)
        with pytest.raises(InputError, match="not defining"):
            max_feasible_g({"x12": 3}, 6, library=bad)


def test_library_set_given_as_a_string_is_refused():
    library = ["z12 z34"]
    calls = (lambda: search(3, library=library),
             lambda: partition({"z12": 1, "z34": 1}, 1, library=library),
             lambda: max_feasible_g({"z12": 1, "z34": 1}, 6, library=library))
    for call in calls:
        with pytest.raises(InputError, match="'z12 z34'"):
            call()
    assert partition({"z12": 1, "z34": 1}, 1,
                     library=[("z12", "z34")]).bases == (
        frozenset({"z12", "z34"}),)


def test_replay_checks_every_base_with_is_defining(monkeypatch):
    calls = _counting_is_defining(monkeypatch)
    bound = max(search(9).frontier, key=lambda b: b.g)
    replay_witness(json.loads(witness_to_json(bound)))
    assert calls == list(bound.partition.bases)
    assert len(calls) == bound.g > 1


def test_search_rejects_budget_below_one():
    for bad in (0, -1):
        with pytest.raises(InputError):
            search(bad)
