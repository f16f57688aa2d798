"""Source generators for the decomposition's generated code, each once.

`decomposition` compiles them; the sweep inlines them in its walk.  This
module defines no records, so the sweep loads no `dataclasses`.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, List, Sequence, Tuple

from . import params as P
from .params import check_convention

# Incomparable index-subset pairs among the 11 sets with |J| >= 2: for these
# the corresponding x-values are coprime on any valid decomposition.
INCOMPARABLE_PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    (P.x_name(J), P.x_name(K))
    for J, K in combinations(P.X_SUBSETS, 2)
    if not set(J) <= set(K) and not set(K) <= set(J)
)

# The values layered_gcds(t1, t2, t3, t4) returns: the relative gcds of the
# cofactors, the eleven x-parameters in canonical order, then x1..x4.
X_VALUES: Tuple[str, ...] = P.X_PARAMS + tuple(P.x_name((i,)) for i in P.INDICES)
# The names of the values pattern_data returns, in order.
PATTERN_ARGS: Tuple[str, ...] = (
    "n1", "n2", "n3", "n4", "nn1", "nn2", "nn3", "nn4") + P.D_SYMBOLS


def product_expr(symbols) -> str:
    """Python expression for the product of `symbols` ("1" if none)."""
    return "*".join(symbols) if symbols else "1"


def function_source(name: str, args: Sequence[str], body: List[str]) -> str:
    """Source of a generated function with the given argument names."""
    lines = ["def %s(%s):" % (name, ", ".join(args))]
    lines += ["    " + line for line in body]
    return "\n".join(lines) + "\n"


def pattern_data(n: int, pattern: Tuple[int, ...]) -> Tuple[int, ...]:
    """The pattern n_i, then nn_i = n/n_i, then d_J = gcd(nn_i : i in J)."""
    nn = tuple(n // ni for ni in pattern)
    return pattern + nn + tuple(
        math.gcd(*(nn[i - 1] for i in J)) for J in P.Z_SUBSETS
    )


def layered_gcd_lines() -> List[str]:
    """Statements binding every x_J from t1..t4, then returning X_VALUES.

    First the subset gcds g_J = gcd(t_i : i in J), each of a triple or the
    quad from the g_J one index smaller (1 when that one is 1).  Then from
    x1234 down the subset lattice: x_J is g_J (t_i for J = {i}) with the
    x_K of all strict supersets K of J, each computed before J, divided out.
    """
    lines: List[str] = ["g%s = _gcd(t%d, t%d)" % (P.subset_name(J), *J)
                        for J in P.PAIRS]
    for J in P.TRIPLES + (P.QUAD,):
        smaller = "g" + P.subset_name(J[:-1])
        lines.append("g%s = _gcd(%s, t%d) if %s != 1 else 1"
                     % (P.subset_name(J), smaller, J[-1], smaller))
    layers = (P.QUAD,) + P.TRIPLES + P.PAIRS + tuple((i,) for i in P.INDICES)
    for J in layers:
        above = [P.x_name(K) for K in layers if set(J) < set(K)]
        lines += [
            "%s, _r = divmod(%s, %s)"
            % (P.x_name(J), "t%d" % J if len(J) == 1
               else "g" + P.subset_name(J), product_expr(above)),
            "if _r:",
            "    raise _InvariantError('layered gcd not exact at %s for "
            "cofactors %%s' %% ((t1, t2, t3, t4),))" % P.x_name(J),
        ]
    lines.append("return %s" % ", ".join(X_VALUES))
    return lines


def quotient_lines(
    convention: str, fail: Callable[[str, str, str], List[str]]
) -> Tuple[List[str], List[str]]:
    """Statements binding term1..term4, mT and the ten z_J, with their checks.

    They read m, nn1..nn4, d_J and x_J.  `fail(check, num, den)` gives the
    statements run when a check fails: `check` is "master" (num and den are
    then the two sides) or the z_J whose quotient num/den is not integral.
    The master lines and the quotient lines are returned apart.
    """
    check_convention(convention)
    master = ["term%d = nn%d * %s" % (i, i, product_expr(P.TERM_XPART[i]))
              for i in P.INDICES]
    master += ["mT = m * %s" % product_expr(P.X_PARAMS),
               "if mT != term1 + term2 + term3 + term4:"]
    master += ["    " + line
               for line in fail("master", "mT", "term1 + term2 + term3 + term4")]
    quotients: List[str] = []
    for J in P.Z_SUBSETS:
        num = " + ".join("term%d" % i for i in J)
        den = product_expr((P.d_name(J),) + P.quotient_divisor(J, convention))
        quotients += ["%s, _r = divmod(%s, %s)" % (P.z_name(J), num, den),
                      "if _r:"]
        quotients += ["    " + line for line in fail(P.z_name(J), num, den)]
    return master, quotients
