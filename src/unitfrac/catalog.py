"""Closure-rule catalog and inequality templates over the 21 parameters.

The catalog holds 96 equations in the parameters x_J (|J| >= 2) and z_J
(|J| in {2,3}) whose coefficients depend only on m and the pattern data
(n_i, n/n_i, d_J).  Every equation has the shape

    c_0 * prod(outputs) = sum_i c_i * prod(inputs_i),

so fixing integer values for all input parameters pins the output product
down to divisor-count-many choices.  For families 2-8 the rule is its
equation alone: the inputs are the parameters of the right-hand terms and
the outputs those of the left-hand term, read off the same Term data the
symbolic proof in the tests certifies.

Families 2-7 come from one construction (`_rearranged`): take the master
equation m * prod(x_J) = term_1 + .. + term_4, or the definition of a
quotient z_J * (x-divisor of z_J) = sum(term_i : i in J) / d_J, replace
the terms of some blocks B by d_B * z_B * (x-divisor of z_B), and cancel
the x-monomial common to every side.  The x-divisor is stated once, in
params.quotient_divisor.

1. "factor"  (55): the master equation rearranged for an unknown pair
   {x_J, x_K} and factored into (C*x_J + a)(C*x_K + b) = const; only
   its inputs and its outputs (the pair) are stored.
2. "zpair"    (6): the definition of a pair quotient z_ij.
3. "ztriple"  (4): the definition of a triple quotient z_ijk.
4. "zstep"   (12): the definition of z_ijk with the block {i, j}.
5. "tprod"    (4): the master equation with the block {i, j, k}.
6. "expand"   (6): the master equation with the block {i, j}.
7. "split"    (3): the master equation with the blocks {i, j}, {k, l}.
8. "zprod"    (6): the product of two triple quotients sharing a pair;
   written out.

The module also builds the 13 inequality templates used by the bound
search: the ten z-bounds are the standard definitions of families 2 and 3
with the right side bounded by its number of terms times its largest,
first term; three cofactor size bounds follow.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import params as P
from .params import check_convention

Env = Mapping[str, int]
Subset = Tuple[int, ...]


# ---------------------------------------------------------------------------
# coefficient-times-monomial terms


class Term(NamedTuple):
    """One summand: m^m_exp * prod(num_syms)/prod(den_syms) * prod(params).

    num_syms/den_syms are environment keys for pattern data (nn_i = n/n_i,
    d_J); params are parameter names, listed with multiplicity.
    """

    params: Tuple[str, ...]
    m_exp: int = 0
    num_syms: Tuple[str, ...] = ()
    den_syms: Tuple[str, ...] = ()

    def __str__(self) -> str:
        num: List[str] = []
        den: List[str] = []
        if self.m_exp:
            num.append("m" if self.m_exp == 1 else "m^%d" % self.m_exp)
        for s in self.num_syms:
            if s.startswith("nn"):
                num.append("n")
                den.append("n" + s[2:])
            else:
                num.append(s)
        den.extend(self.den_syms)
        coeff = ""
        if num or den:
            top = "*".join(num) if num else "1"
            if den:
                bottom = "*".join(den)
                coeff = "(%s/%s)" % (top, bottom if len(den) == 1 else "(%s)" % bottom)
            elif num:
                coeff = top
        body = "*".join(self.params)
        if coeff and body:
            return "%s*%s" % (coeff, body)
        return coeff or body or "1"


# ---------------------------------------------------------------------------
# closure rules


class ClosureRule(NamedTuple):
    """One catalog equation with its closure semantics.

    `inputs` are the parameters that must already be known for the rule to
    fire; firing bounds every parameter in `outputs` by a divisor count.
    `terms` holds the symbolic form (lhs, rhs-tuple) for families 2-8,
    whose inputs and outputs are the parameters of the right- and
    left-hand side.  It is empty for family 1, the master equation
    factored for the pair `outputs`, which `equation` only describes.
    """

    family: int
    key: str
    inputs: frozenset
    outputs: frozenset
    equation: str
    terms: Tuple = ()


FAMILY_NAMES = {
    1: "factor",
    2: "zpair",
    3: "ztriple",
    4: "zstep",
    5: "tprod",
    6: "expand",
    7: "split",
    8: "zprod",
}


def _make_rule(family: int, key: str, lhs: Term,
               rhs: Tuple[Term, ...]) -> ClosureRule:
    return ClosureRule(
        family=family,
        key=key,
        inputs=frozenset(p for t in rhs for p in t.params),
        outputs=frozenset(lhs.params),
        equation="%s = %s" % (lhs, " + ".join(str(t) for t in rhs)),
        terms=(lhs, rhs),
    )


def _factor_rule(pj: str, pk: str) -> ClosureRule:
    return ClosureRule(
        family=1,
        key="factor:%s*%s" % (pj, pk),
        inputs=frozenset(p for p in P.X_PARAMS if p not in (pj, pk)),
        outputs=frozenset((pj, pk)),
        equation=(
            "master equation rearranged and factored for the unknown pair "
            "{%s, %s}" % (pj, pk)
        ),
    )


def _rearranged(source: Optional[Subset], blocks: Tuple[Subset, ...],
                convention: str) -> Tuple[Term, Tuple[Term, ...]]:
    """(lhs, rhs) of the master equation or of the definition of a quotient.

    `source` None takes m * prod(x_J) = term_1 + .. + term_4; a subset J
    takes z_J * (x-divisor of z_J) = sum(term_i : i in J) / d_J.  The terms
    of each block B are replaced by d_B * z_B * (x-divisor of z_B), listed
    first; the remaining terms follow in ascending index order.  Finally
    the monomial common to every side, counted with multiplicity, is
    cancelled.
    """
    if source is None:
        lhs, den, indices = Term(P.X_PARAMS, m_exp=1), (), P.INDICES
    else:
        lhs = Term((P.z_name(source),) + P.quotient_divisor(source, convention))
        den, indices = (P.d_name(source),), source
    rhs = [Term((P.z_name(B),) + P.quotient_divisor(B, convention),
                num_syms=(P.d_name(B),), den_syms=den) for B in blocks]
    rhs += [Term(P.TERM_XPART[i], num_syms=("nn%d" % i,), den_syms=den)
            for i in indices if not any(i in B for B in blocks)]
    common = Counter(lhs.params)
    for term in rhs:
        common &= Counter(term.params)
    # repeated parameters sit side by side, so elements() keeps their order
    lhs, *rhs = (t._replace(params=tuple((Counter(t.params) - common).elements()))
                 for t in [lhs] + rhs)
    return lhs, tuple(rhs)


def _derived_rule(family: int, source: Optional[Subset],
                  blocks: Tuple[Subset, ...], convention: str) -> ClosureRule:
    names = ["+".join(P.z_name(B) for B in blocks)] if blocks else []
    if source is not None:
        names.append(P.z_name(source))
    lhs, rhs = _rearranged(source, blocks, convention)
    return _make_rule(family, "%s:%s" % (FAMILY_NAMES[family], "->".join(names)),
                      lhs, rhs)


def _zprod_rule(T1: Tuple[int, int, int], T2: Tuple[int, int, int],
                convention: str) -> ClosureRule:
    shared = tuple(v for v in T1 if v in T2)
    (c1,) = tuple(v for v in T1 if v not in shared)
    (c2,) = tuple(v for v in T2 if v not in shared)
    i, j = shared
    kl = tuple(sorted((c1, c2)))
    x_kl = P.x_name(kl)
    lhs = Term((P.z_name(T1), P.z_name(T2)))
    # the x-divisor of z_ij without its leading x_ij
    cross_params = ((P.z_name(shared),) + P.quotient_divisor(shared, convention)[1:]
                    + (x_kl, P.x_name((i,) + kl), P.x_name((j,) + kl),
                       P.x_name(P.QUAD)))
    den = (P.d_name(T1), P.d_name(T2))
    rhs = (Term((), num_syms=("nn%d" % c1, "nn%d" % c2), den_syms=den),
           Term(cross_params, m_exp=1, num_syms=(P.d_name(shared),),
                den_syms=den))
    return _make_rule(8, "zprod:%s*%s" % (P.z_name(T1), P.z_name(T2)),
                      lhs, rhs)


@lru_cache(maxsize=None)
def build_rules(convention: str = "standard") -> Tuple[ClosureRule, ...]:
    """The full 96-rule catalog in deterministic order (families 1..8)."""
    check_convention(convention)
    rules: List[ClosureRule] = []
    for pj, pk in combinations(P.X_PARAMS, 2):
        rules.append(_factor_rule(pj, pk))
    for J in P.Z_SUBSETS:
        rules.append(_derived_rule(len(J), J, (), convention))
    for T in P.TRIPLES:
        for ij in combinations(T, 2):
            rules.append(_derived_rule(4, T, (ij,), convention))
    for T in P.TRIPLES:
        rules.append(_derived_rule(5, None, (T,), convention))
    for ij in P.PAIRS:
        rules.append(_derived_rule(6, None, (ij,), convention))
    for ij, kl in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
        rules.append(_derived_rule(7, None, (ij, kl), convention))
    for T1, T2 in combinations(P.TRIPLES, 2):
        rules.append(_zprod_rule(T1, T2, convention))
    return tuple(rules)


def family_counts(rules: Sequence[ClosureRule]) -> Tuple[int, ...]:
    counts = [0] * 8
    for rule in rules:
        counts[rule.family - 1] += 1
    return tuple(counts)


def export_rules(rules: Sequence[ClosureRule]) -> str:
    """Line-oriented serialization: `family|inputs|outputs` per rule."""
    lines = []
    for rule in rules:
        lines.append(
            "%d|%s|%s"
            % (
                rule.family,
                ",".join(P.sort_params(rule.inputs)),
                ",".join(P.sort_params(rule.outputs)),
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inequality templates


class InequalityTemplate(NamedTuple):
    """A bound  prod(lhs) <= constant * n^n_exp * m^m_exp * prod(rhs) / pattern.

    lhs/rhs map parameter names to nonnegative exponents; pattern maps
    denominator symbols (n1..n4, d_J) to multiplicities; m_exp <= 0.
    """

    key: str
    lhs: Mapping[str, int]
    rhs: Mapping[str, int]
    n_exp: int
    m_exp: int
    constant: int
    pattern: Mapping[str, int]

    def evaluate_sides(self, env: Env) -> Tuple[int, int]:
        """Cleared integer values (left, right) with left <= right expected."""
        left = 1
        for p, e in self.lhs.items():
            left *= env[p] ** e
        for s, e in self.pattern.items():
            left *= env[s] ** e
        if self.m_exp:
            left *= env["m"] ** (-self.m_exp)
        right = self.constant * env["n"] ** self.n_exp
        for p, e in self.rhs.items():
            right *= env[p] ** e
        return left, right


@lru_cache(maxsize=None)
def build_inequalities() -> Tuple[InequalityTemplate, ...]:
    """The 13 templates: ten z-bounds, then three cofactor sizes.

    The z-bound for J is the standard defining display of z_J with its
    right side bounded by the number of terms times the first: term_i is
    n * prod(x_J) / a_i and a_1 <= .. <= a_4, so the first term is the
    largest.  Factors common to both sides are cancelled.
    """
    templates: List[InequalityTemplate] = []
    for J in P.Z_SUBSETS:
        lhs, rhs = _rearranged(J, (), "standard")
        first = rhs[0]
        (nn,), (d,) = first.num_syms, first.den_syms
        common = Counter(lhs.params) & Counter(first.params)
        templates.append(
            InequalityTemplate(
                key=P.z_name(J),
                lhs=dict(Counter(lhs.params) - common),
                rhs=dict(Counter(first.params) - common),
                n_exp=1,
                m_exp=0,
                constant=len(rhs),
                pattern={"n" + nn[2:]: 1, d: 1},
            )
        )
    for idx, (n_exp, m_exp, constant) in enumerate(
        ((1, -1, 4), (2, -1, 12), (4, -2, 96)), start=1
    ):
        templates.append(
            InequalityTemplate(
                key="t%d" % idx,
                lhs={p: 1 for p in P.CONTAINING[idx]},
                rhs={},
                n_exp=n_exp,
                m_exp=m_exp,
                constant=constant,
                pattern={"n%d" % idx: 1},
            )
        )
    return tuple(templates)


@lru_cache(maxsize=None)
def inequality_index() -> Mapping[str, InequalityTemplate]:
    return {t.key: t for t in build_inequalities()}
