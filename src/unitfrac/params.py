"""Parameter universe for 4-term decompositions.

Twenty-one parameters: eleven relative-gcd parameters x_J indexed by the
subsets J of {1,2,3,4} with |J| >= 2, and ten quotient parameters z_J for
|J| in {2,3}.  The canonical order (pairs, triples, quad; x before z) is
fixed here and used everywhere: exports, set rendering, bitmask layout.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Tuple

from .errors import InputError

# Quotient-parameter conventions: "standard" divides the pair sum
# term_i + term_j by d_ij * x_kl * x_ij (always integral on solutions);
# "reduced" divides by one extra factor of x_kl (not always integral).
CONVENTIONS = ("standard", "reduced")

PAIRS: Tuple[Tuple[int, ...], ...] = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
TRIPLES: Tuple[Tuple[int, ...], ...] = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
QUAD: Tuple[int, ...] = (1, 2, 3, 4)
INDICES = (1, 2, 3, 4)

X_SUBSETS = PAIRS + TRIPLES + (QUAD,)
Z_SUBSETS = PAIRS + TRIPLES


def subset_name(J: Iterable[int]) -> str:
    return "".join(str(i) for i in sorted(J))


def x_name(J: Iterable[int]) -> str:
    return "x" + subset_name(J)


def z_name(J: Iterable[int]) -> str:
    return "z" + subset_name(J)


def d_name(J: Iterable[int]) -> str:
    return "d" + subset_name(J)


X_PARAMS = tuple(x_name(J) for J in X_SUBSETS)
Z_PARAMS = tuple(z_name(J) for J in Z_SUBSETS)
PARAM_ORDER = X_PARAMS + Z_PARAMS
PARAM_INDEX = {p: i for i, p in enumerate(PARAM_ORDER)}
N_PARAMS = len(PARAM_ORDER)
X_MASK = sum(1 << PARAM_INDEX[p] for p in X_PARAMS)

D_SYMBOLS = tuple(d_name(J) for J in Z_SUBSETS)
PATTERN_SYMBOLS = ("n1", "n2", "n3", "n4") + D_SYMBOLS

# x-monomial of the master equation term for index i: subsets avoiding i
TERM_XPART = {
    i: tuple(x_name(J) for J in X_SUBSETS if i not in J) for i in INDICES
}
# x-parameters containing index i (the factorization of t_i)
CONTAINING = {
    i: tuple(x_name(J) for J in X_SUBSETS if i in J) for i in INDICES
}


def params_to_mask(names: Iterable[str]) -> int:
    """Bitmask of parameter names; InputError on a str, on a value that is
    not a collection, or on an unknown name."""
    if isinstance(names, str):
        raise InputError("parameter set %r is a string, not a collection"
                         " of parameter names" % names)
    try:
        names = iter(names)
    except TypeError:
        raise InputError("parameter set %r is not a collection of parameter"
                         " names" % (names,)) from None
    mask = 0
    for p in names:
        try:
            mask |= 1 << PARAM_INDEX[p]
        except (KeyError, TypeError):
            raise InputError("unknown parameter %r" % (p,)) from None
    return mask


def mask_to_params(mask: int) -> Tuple[str, ...]:
    return tuple(p for i, p in enumerate(PARAM_ORDER) if mask >> i & 1)


def sort_params(names: Iterable[str]) -> Tuple[str, ...]:
    return tuple(sorted(names, key=PARAM_INDEX.__getitem__))


def complement_pair(ij: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(i for i in INDICES if i not in ij)


def quotient_divisor(J: Tuple[int, ...], convention: str) -> Tuple[str, ...]:
    """The x-divisor of z_J: z_J = sum(term_i : i in J) / (d_J * its product).

    x_ij * x_kl for a pair (x_kl twice under "reduced"), and
    x_ij * x_ik * x_jk * x_ijk for a triple.
    """
    if len(J) == 2:
        kl = x_name(complement_pair(J))
        return (x_name(J), kl) + ((kl,) if convention == "reduced" else ())
    return tuple(x_name(p) for p in combinations(J, 2)) + (x_name(J),)


def check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise InputError(
            "unknown z-convention %r (expected one of %s)"
            % (convention, "/".join(CONVENTIONS))
        )
    return convention
