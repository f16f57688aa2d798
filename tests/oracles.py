"""The plain-scan oracle for `unitfrac.enumeration`.

It shares none of the enumeration's recursion: the remainder is never
reduced, and every a with 1/a < num/den <= j/a is tried, the last two
denominators included.  Only the argument checks and the result record
come from the package, so the oracle refuses the same inputs.
"""

from __future__ import annotations

from typing import Iterator

from unitfrac.enumeration import EnumerationResult, _collect


def _iter_scan(prev: int, num: int, den: int, j: int) -> Iterator[tuple]:
    lo = max(prev, den // num + 1)
    hi = j * den // num
    if j == 1:
        if den % num == 0 and den // num >= prev:
            yield (den // num,)
    elif j == 2:
        for a in range(lo, hi + 1):
            r_num, r_den = num * a - den, den * a
            if r_den % r_num == 0 and r_den // r_num >= a:
                yield (a, r_den // r_num)
    else:
        for a in range(lo, hi + 1):
            for tail in _iter_scan(a, num * a - den, den * a, j - 1):
                yield (a,) + tail


def enumerate_naive(m: int, n: int, k: int, cap: int | None = None) -> EnumerationResult:
    """enumerate_representations(m, n, k, cap), from the plain scan."""
    return _collect(m, n, k, cap, _iter_scan)
