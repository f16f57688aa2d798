"""Closure-rule catalog and inequality templates over the 21 parameters.

The catalog holds 96 equations in the parameters x_J (|J| >= 2) and z_J
(|J| in {2,3}) whose coefficients depend only on m and the pattern data
(n_i, n/n_i, d_J).  Every equation has the shape

    c_0 * prod(outputs) = sum_i c_i * prod(inputs_i),

so fixing integer values for all input parameters pins the output product
down to divisor-count-many choices.  For families 2-8 the rule is its
equation alone: the inputs are the parameters of the right-hand terms and
the outputs those of the left-hand term, read off the same Term data the
symbolic proof in the tests certifies.  Eight construction families:

1. "factor"  (55): the master equation rearranged for an unknown pair
   {x_J, x_K} and factored into (C*x_J + a)(C*x_K + b) = const.
2. "zpair"    (6): the defining display of a pair quotient z_ij.
3. "ztriple"  (4): the defining display of a triple quotient z_ijk.
4. "zstep"   (12): z_ijk expressed through one pair quotient z_ij.
5. "tprod"    (4): m * prod(x_J : l in J) = d_ijk z_ijk + n/n_l.
6. "expand"   (6): the master equation with term_i + term_j collapsed
   into d_ij x_kl z_ij.
7. "split"    (3): both opposite pairs collapsed: m * prod = d z + d z.
8. "zprod"    (6): the product of two triple quotients sharing a pair.

The module also builds the 13 inequality templates (six pair-quotient
bounds, four triple-quotient bounds, three cofactor size bounds) used by
the bound search.  All checks are evaluated in exact integer arithmetic
over an environment dict as produced by Decomposition.env().
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import List, Mapping, Sequence, Tuple

from . import params as P
from .params import check_convention

Env = Mapping[str, int]


# ---------------------------------------------------------------------------
# coefficient-times-monomial terms


@dataclass(frozen=True)
class Term:
    """One summand: m^m_exp * prod(num_syms)/prod(den_syms) * prod(params).

    num_syms/den_syms are environment keys for pattern data (nn_i = n/n_i,
    d_J); params are parameter names, listed with multiplicity.
    """

    params: Tuple[str, ...]
    m_exp: int = 0
    num_syms: Tuple[str, ...] = ()
    den_syms: Tuple[str, ...] = ()

    def value(self, env: Env):
        num = 1
        if self.m_exp:
            num = env["m"] ** self.m_exp
        for s in self.num_syms:
            num *= env[s]
        for p in self.params:
            num *= env[p]
        den = 1
        for s in self.den_syms:
            den *= env[s]
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q

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


@dataclass(frozen=True)
class ClosureRule:
    """One catalog equation with its closure semantics.

    `inputs` are the parameters that must already be known for the rule to
    fire; firing bounds every parameter in `outputs` by a divisor count.
    `terms` holds the symbolic form (lhs, rhs-tuple) for families 2-8,
    whose inputs and outputs are the parameters of the right- and
    left-hand side.  It is empty for family 1, whose constants are
    assembled at evaluation time from the master equation.
    """

    family: int
    key: str
    inputs: frozenset
    outputs: frozenset
    equation: str
    terms: Tuple = ()

    def sides(self, env: Env) -> Tuple:
        """Exact values (left, parts); the rule holds when left == sum(parts)."""
        if self.terms:
            lhs, rhs = self.terms
            return lhs.value(env), tuple(t.value(env) for t in rhs)
        pj, pk = self.outputs  # either order: the factored form is symmetric
        return _factor_sides(pj, pk, env)

    def evaluate(self, env: Env) -> bool:
        left, parts = self.sides(env)
        return left == sum(parts)


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


def _xor_params(i: int, j: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """x-parameters containing j but not i, and i but not j."""
    with_j = tuple(
        P.x_name(B) for B in P.X_SUBSETS if j in B and i not in B
    )
    with_i = tuple(
        P.x_name(B) for B in P.X_SUBSETS if i in B and j not in B
    )
    return with_j, with_i


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


def _factor_sides(pj: str, pk: str, env: Env) -> Tuple:
    """Family 1: master equation factored for the unknown pair {pj, pk}.

    Every master-equation monomial is classified by whether it contains
    pj and/or pk; the four class sums C11, C10, C01, C00 (signed, with the
    left-hand side positive) give C11*xj*xk + C10*xj + C01*xk + C00 = 0,
    checked in the factored form (C11*xj + C01)(C11*xk + C10) =
    C01*C10 - C11*C00, or linearly when C11 vanishes.
    """
    xj = env[pj]
    xk = env[pk]
    c11 = env["mT"] // (xj * xk)
    c10 = c01 = c00 = 0
    for i in P.INDICES:
        v = env["term%d" % i]
        has_j = pj in P.TERM_XPART[i]
        has_k = pk in P.TERM_XPART[i]
        if has_j and has_k:
            c11 -= v // (xj * xk)
        elif has_j:
            c10 -= v // xj
        elif has_k:
            c01 -= v // xk
        else:
            c00 -= v
    if c11:
        return (c11 * xj + c01) * (c11 * xk + c10), (c01 * c10 - c11 * c00,)
    return c10 * xj + c01 * xk, (-c00,)


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


def _zpair_rule(ij: Tuple[int, int], convention: str) -> ClosureRule:
    i, j = ij
    kl = P.complement_pair(ij)
    with_j, with_i = _xor_params(i, j)
    lhs_params = (P.z_name(ij), P.x_name(ij))
    if convention == "reduced":
        lhs_params += (P.x_name(kl),)
    rhs = (
        Term(with_j, num_syms=("nn%d" % i,), den_syms=(P.d_name(ij),)),
        Term(with_i, num_syms=("nn%d" % j,), den_syms=(P.d_name(ij),)),
    )
    return _make_rule(2, "zpair:%s" % P.z_name(ij), Term(lhs_params), rhs)


def _ztriple_rule(T: Tuple[int, int, int]) -> ClosureRule:
    lhs = Term((P.z_name(T),) + tuple(P.x_name(p) for p in combinations(T, 2))
               + (P.x_name(T),))
    rhs = tuple(
        Term(P.TERM_XPART[i], num_syms=("nn%d" % i,), den_syms=(P.d_name(T),))
        for i in T
    )
    return _make_rule(3, "ztriple:%s" % P.z_name(T), lhs, rhs)


def _zstep_rule(ij: Tuple[int, int], T: Tuple[int, int, int],
                convention: str) -> ClosureRule:
    i, j = ij
    (k,) = tuple(v for v in T if v not in ij)
    (l,) = tuple(v for v in P.INDICES if v not in T)
    x_kl = P.x_name((k, l))
    lhs = Term((P.z_name(T), P.x_name((i, k)), P.x_name((j, k)), P.x_name(T)))
    first_params = (P.z_name(ij), x_kl)
    if convention == "reduced":
        first_params += (x_kl,)
    rhs = (
        Term(first_params, num_syms=(P.d_name(ij),), den_syms=(P.d_name(T),)),
        Term(
            (P.x_name((i, l)), P.x_name((j, l)), P.x_name((i, j, l))),
            num_syms=("nn%d" % k,),
            den_syms=(P.d_name(T),),
        ),
    )
    return _make_rule(
        4, "zstep:%s->%s" % (P.z_name(ij), P.z_name(T)), lhs, rhs
    )


def _tprod_rule(T: Tuple[int, int, int]) -> ClosureRule:
    (l,) = tuple(v for v in P.INDICES if v not in T)
    lhs = Term(P.CONTAINING[l], m_exp=1)
    rhs = (
        Term((P.z_name(T),), num_syms=(P.d_name(T),)),
        Term((), num_syms=("nn%d" % l,)),
    )
    return _make_rule(5, "tprod:%s" % P.z_name(T), lhs, rhs)


def _expand_rule(ij: Tuple[int, int], convention: str) -> ClosureRule:
    k, l = P.complement_pair(ij)
    name_ij = P.x_name(ij)
    lhs = Term(tuple(p for p in P.X_PARAMS if p != name_ij), m_exp=1)
    avoid_k = tuple(
        P.x_name(B) for B in P.X_SUBSETS if k not in B and B != ij
    )
    avoid_l = tuple(
        P.x_name(B) for B in P.X_SUBSETS if l not in B and B != ij
    )
    first_params = (P.z_name(ij), P.x_name((k, l)))
    if convention == "reduced":
        first_params += (P.x_name((k, l)),)
    rhs = (
        Term(first_params, num_syms=(P.d_name(ij),)),
        Term(avoid_k, num_syms=("nn%d" % k,)),
        Term(avoid_l, num_syms=("nn%d" % l,)),
    )
    return _make_rule(6, "expand:%s" % P.z_name(ij), lhs, rhs)


def _split_rule(ij: Tuple[int, int], kl: Tuple[int, int],
                convention: str) -> ClosureRule:
    name_ij, name_kl = P.x_name(ij), P.x_name(kl)
    lhs = Term(tuple(p for p in P.X_PARAMS if p not in (name_ij, name_kl)),
               m_exp=1)
    if convention == "reduced":
        rhs = (
            Term((P.z_name(ij), name_kl), num_syms=(P.d_name(ij),)),
            Term((P.z_name(kl), name_ij), num_syms=(P.d_name(kl),)),
        )
    else:
        rhs = (
            Term((P.z_name(ij),), num_syms=(P.d_name(ij),)),
            Term((P.z_name(kl),), num_syms=(P.d_name(kl),)),
        )
    return _make_rule(
        7, "split:%s+%s" % (P.z_name(ij), P.z_name(kl)), lhs, rhs
    )


def _zprod_rule(T1: Tuple[int, int, int], T2: Tuple[int, int, int],
                convention: str) -> ClosureRule:
    shared = tuple(v for v in T1 if v in T2)
    (c1,) = tuple(v for v in T1 if v not in shared)
    (c2,) = tuple(v for v in T2 if v not in shared)
    i, j = shared
    kl = tuple(sorted((c1, c2)))
    x_kl = P.x_name(kl)
    lhs = Term((P.z_name(T1), P.z_name(T2)))
    cross_params = [P.z_name(shared), x_kl, x_kl,
                    P.x_name((i,) + kl), P.x_name((j,) + kl), P.x_name(P.QUAD)]
    if convention == "reduced":
        cross_params.insert(1, x_kl)
    rhs = (
        Term(
            (),
            num_syms=("nn%d" % c1, "nn%d" % c2),
            den_syms=(P.d_name(T1), P.d_name(T2)),
        ),
        Term(
            tuple(cross_params),
            m_exp=1,
            num_syms=(P.d_name(shared),),
            den_syms=(P.d_name(T1), P.d_name(T2)),
        ),
    )
    return _make_rule(
        8, "zprod:%s*%s" % (P.z_name(T1), P.z_name(T2)), lhs, rhs
    )


@lru_cache(maxsize=None)
def build_rules(convention: str = "standard") -> Tuple[ClosureRule, ...]:
    """The full 96-rule catalog in deterministic order (families 1..8)."""
    check_convention(convention)
    rules: List[ClosureRule] = []
    for pj, pk in combinations(P.X_PARAMS, 2):
        rules.append(_factor_rule(pj, pk))
    for ij in P.PAIRS:
        rules.append(_zpair_rule(ij, convention))
    for T in P.TRIPLES:
        rules.append(_ztriple_rule(T))
    for T in P.TRIPLES:
        for ij in combinations(T, 2):
            rules.append(_zstep_rule(ij, T, convention))
    for T in P.TRIPLES:
        rules.append(_tprod_rule(T))
    for ij in P.PAIRS:
        rules.append(_expand_rule(ij, convention))
    for ij, kl in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
        rules.append(_split_rule(ij, kl, convention))
    for T1, T2 in combinations(P.TRIPLES, 2):
        rules.append(_zprod_rule(T1, T2, convention))
    return tuple(rules)


@lru_cache(maxsize=None)
def rule_index(convention: str = "standard") -> Mapping[str, ClosureRule]:
    return {rule.key: rule for rule in build_rules(convention)}


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


@dataclass(frozen=True)
class InequalityTemplate:
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

    def evaluate(self, env: Env) -> bool:
        left, right = self.evaluate_sides(env)
        return left <= right


@lru_cache(maxsize=None)
def build_inequalities() -> Tuple[InequalityTemplate, ...]:
    """The 13 templates: six pair bounds, four triple bounds, three sizes."""
    templates: List[InequalityTemplate] = []
    for ij in P.PAIRS:
        i, j = ij
        with_j, _ = _xor_params(i, j)
        templates.append(
            InequalityTemplate(
                key=P.z_name(ij),
                lhs={P.z_name(ij): 1, P.x_name(ij): 1},
                rhs={p: 1 for p in with_j},
                n_exp=1,
                m_exp=0,
                constant=2,
                pattern={"n%d" % i: 1, P.d_name(ij): 1},
            )
        )
    for T in P.TRIPLES:
        i, j, k = T
        (l,) = tuple(v for v in P.INDICES if v not in T)
        templates.append(
            InequalityTemplate(
                key=P.z_name(T),
                lhs={
                    P.z_name(T): 1,
                    P.x_name((i, j)): 1,
                    P.x_name((i, k)): 1,
                    P.x_name(T): 1,
                },
                rhs={
                    P.x_name((j, l)): 1,
                    P.x_name((k, l)): 1,
                    P.x_name((j, k, l)): 1,
                },
                n_exp=1,
                m_exp=0,
                constant=3,
                pattern={"n%d" % i: 1, P.d_name(T): 1},
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


def evaluate_rule(rule, dec_or_env) -> bool:
    """True iff the rule/template holds on the decomposition (exactly / as <=)."""
    env = dec_or_env.env() if hasattr(dec_or_env, "env") else dec_or_env
    return rule.evaluate(env)
