"""Fixpoint closure of parameter sets and minimal defining sets."""

from __future__ import annotations

import random

import pytest

from unitfrac import params as P
from unitfrac.boundsearch import search
from unitfrac.catalog import build_rules
from unitfrac.closure import (
    CORE_DEFINING_SETS,
    closure,
    closure_report,
    is_defining,
    minimal_defining_sets,
    sort_sets,
)
from unitfrac.errors import InputError

ALL_PARAMS = frozenset(P.PARAM_ORDER)


def test_core_sets_are_defining():
    assert len(CORE_DEFINING_SETS) == 6
    for s in CORE_DEFINING_SETS:
        assert is_defining(s), sorted(s)


def test_closure_of_core_set_is_everything():
    assert closure({"z23", "z234"}) == ALL_PARAMS


def test_closure_report_shape():
    report = closure_report({"z23", "z234"})
    assert report == {"set": ["z23", "z234"], "defining": True,
                      "closure_size": 21}
    report = closure_report({"x12", "x13"})
    assert report["defining"] is False
    assert report["closure_size"] == 2


def test_not_defining_examples():
    assert not is_defining(set())
    assert not is_defining({"z12"})
    assert not is_defining({"x12", "x13", "x14", "x23", "x24", "x34"})
    # complement pair of quotients is defining, nested pair of the same
    # triple is not unless the pair sits inside the triple
    assert is_defining({"z12", "z34"})
    assert not is_defining({"z12", "z234"})


def test_non_integer_arguments_are_input_errors():
    for bad in (2.5, True, "3"):
        with pytest.raises(InputError, match="max_size must be an integer"):
            minimal_defining_sets(bad)
    with pytest.raises(InputError, match="max_size must be an integer"):
        minimal_defining_sets(P.N_PARAMS + 1)


def test_parameter_set_given_as_a_string_is_refused():
    for call in (closure, is_defining, closure_report):
        with pytest.raises(InputError, match="'z12'"):
            call("z12")
        with pytest.raises(InputError, match="unknown parameter 'q1'"):
            call({"q1"})
        assert call(("z12", "z34")) == call({"z12", "z34"})
    with pytest.raises(InputError, match="'z12'"):
        sort_sets(["z12"])
    with pytest.raises(InputError, match="unknown parameter 'q1'"):
        sort_sets([{"q1"}])


def test_parameter_set_that_is_not_a_collection_is_refused():
    calls = [lambda: closure(None), lambda: closure(5),
             lambda: is_defining(3), lambda: closure_report(None),
             lambda: sort_sets([None]), lambda: search(2, library=[None])]
    for call in calls:
        with pytest.raises(InputError, match="not a collection"):
            call()


def test_minimal_sets_size_two():
    found = minimal_defining_sets(2)
    assert len(found) == 21
    sets = set(found)
    # the three complement pairs
    for pair in ({"z12", "z34"}, {"z13", "z24"}, {"z14", "z23"}):
        assert frozenset(pair) in sets
    # every pair quotient together with a containing triple quotient
    nested = [s for s in sets
              if any(p in s for p in ("z12", "z13", "z14", "z23", "z24",
                                      "z34"))
              and any(t in s for t in ("z123", "z124", "z134", "z234"))]
    assert len(nested) == 12
    # every pair of distinct triple quotients
    triple_pairs = [s for s in sets
                    if s <= {"z123", "z124", "z134", "z234"}]
    assert len(triple_pairs) == 6


def test_minimal_sets_size_three():
    found = minimal_defining_sets(3)
    assert len(found) == 45
    by_size = {}
    for s in found:
        by_size.setdefault(len(s), []).append(s)
    assert len(by_size[2]) == 21
    assert len(by_size[3]) == 24
    # size-3 sets pair a triple quotient with two x-parameters whose
    # subsets sit inside (or equal) the triple's index set
    for s in by_size[3]:
        zs = [p for p in s if p.startswith("z")]
        assert len(zs) == 1 and len(zs[0]) == 4  # one triple quotient
    # none of the size-3 sets contains a size-2 defining set
    small = set(by_size[2])
    for s in by_size[3]:
        for t in small:
            assert not t <= s


def test_minimal_sets_sizes_four_and_five():
    found = minimal_defining_sets(5)
    by_size = {}
    for s in found:
        by_size[len(s)] = by_size.get(len(s), 0) + 1
    assert by_size == {2: 21, 3: 24, 5: 18}


def test_sort_sets_is_deterministic():
    sets = minimal_defining_sets(3)
    ordered = sort_sets(sets)
    assert ordered == sort_sets(reversed(ordered))
    sizes = [len(s) for s in ordered]
    assert sizes == sorted(sizes)


def _random_subset(rng: random.Random) -> frozenset:
    size = rng.randrange(0, len(P.PARAM_ORDER) + 1)
    return frozenset(rng.sample(P.PARAM_ORDER, size))


def test_closure_laws_on_random_sets():
    rng = random.Random(20260815)
    for _ in range(1200):
        s = _random_subset(rng)
        closed = closure(s)
        # extensive: the closure contains the set
        assert s <= closed
        # idempotent
        assert closure(closed) == closed
        # monotone: closing a superset yields a superset
        extra = _random_subset(rng)
        assert closed <= closure(s | extra)
        # defining is stable under supersets
        if is_defining(s):
            assert closed == ALL_PARAMS
            assert is_defining(s | extra)


def test_defining_iff_closure_contains_all_x_params():
    rng = random.Random(99)
    for _ in range(300):
        s = _random_subset(rng)
        closed = closure(s)
        assert is_defining(s) == (frozenset(P.X_PARAMS) <= closed)


def _reference_closure(s: frozenset, rules) -> frozenset:
    """Least fixpoint over name sets, read straight off the rule list."""
    known = frozenset(s)
    while True:
        grown = known.union(*(r.outputs for r in rules if r.inputs <= known))
        if grown == known:
            return known
        known = grown


@pytest.mark.parametrize("convention", P.CONVENTIONS)
def test_closure_matches_name_set_reference(convention):
    rules = build_rules(convention)
    # a rule with no inputs would fire from the empty set
    assert all(r.inputs for r in rules)
    rng = random.Random(15)
    for _ in range(2000):
        s = _random_subset(rng)
        expected = _reference_closure(s, rules)
        assert closure(s, convention) == expected, sorted(s)
        assert is_defining(s, convention) == (frozenset(P.X_PARAMS) <= expected)
