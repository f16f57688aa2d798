"""Independent reference counts for the benchmark's checks.

Shares no code with `unitfrac`.  Representations m/n = 1/a_1 + ... + 1/a_k
(a_1 <= ... <= a_k) are found by a plain bounded search: every denominator
but the last is scanned over its admissible range, and the last one is
solved by division.  Gcds, the layered relative gcds and the reduced pair
quotients are computed here with their own arithmetic: the relative gcds by
Moebius inversion over the subset lattice, where `unitfrac` peels them off
layer by layer.

Run as a script to write the committed table anew:

    python3 perfbench/reference.py            # writes perfbench/reference_table.json

It takes under a minute on one core, mostly for the f_4 rows.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import combinations

# OEIS A002966: the number of ways to write 1 as 1/a_1 + ... + 1/a_k, a_1 <= ... <= a_k.
A002966 = (1, 1, 3, 14, 147, 3462)

# The rectangle the table covers: every reduced m/n with n <= N_MAX, m <= M_FACTOR*n.
# It is the largest the workloads read: count draws from n <= 20, sweep
# covers n <= 10.
N_MAX = 20
M_FACTOR = 4

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference_table.json")


def euclid(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def reduced_fractions(n_max: int, m_factor: int):
    """Every (m, n) with gcd 1, 1 <= n <= n_max and 1 <= m <= m_factor*n."""
    return [(m, n) for n in range(1, n_max + 1)
            for m in range(1, m_factor * n + 1) if euclid(m, n) == 1]


def representations(m: int, n: int, k: int):
    """All nondecreasing k-tuples of unit fractions summing to m/n."""
    g = euclid(m, n)
    p, q = m // g, n // g
    out = []

    def walk(prefix, prev, p, q, j):
        # remainder p/q (reduced) to be written with j more terms, each >= prev
        if j == 1:
            if q % p == 0 and q // p >= prev:
                out.append(prefix + (q // p,))
            return
        lo = max(prev, q // p + 1)
        hi = j * q // p
        if j == 2:
            # 1/a + 1/b = p/q  =>  b = q*a / (p*a - q)
            for a in range(lo, hi + 1):
                num = q * a
                den = p * a - q
                if num % den == 0 and num // den >= a:
                    out.append(prefix + (a, num // den))
            return
        for a in range(lo, hi + 1):
            np_, nq = p * a - q, q * a
            h = euclid(np_, nq)
            walk(prefix + (a,), a, np_ // h, nq // h, j - 1)

    if k >= 1:
        walk((), 1, p, q, k)
    return out


def count(m: int, n: int, k: int) -> int:
    return len(representations(m, n, k))


_SUBSETS = tuple(J for r in range(1, 5) for J in combinations(range(4), r))
_PAIRS = tuple(J for J in _SUBSETS if len(J) == 2)


def layered_gcds(t):
    """x_J for every nonempty J of {0,1,2,3}, by Moebius inversion.

    With G_K = gcd(t_i : i in K), x_J = prod over K >= J of G_K^((-1)^|K-J|).
    """
    G = {}
    for K in _SUBSETS:
        g = 0
        for i in K:
            g = euclid(g, t[i])
        G[K] = g
    x = {}
    for J in _SUBSETS:
        num = den = 1
        for K in _SUBSETS:
            if set(J) <= set(K):
                if (len(K) - len(J)) % 2:
                    den *= G[K]
                else:
                    num *= G[K]
        if num % den:
            raise ArithmeticError("layered gcd not exact at %s for %s" % (J, t))
        x[J] = num // den
    return x


def has_fractional_reduced_pair(a, n: int) -> bool:
    """True when some reduced pair quotient of the 4-term solution a of m/n
    is not an integer.

    n_i = gcd(a_i, n), t_i = a_i/n_i, nn_i = n/n_i, X = product of x_J over
    |J| >= 2, term_i = nn_i * X / t_i, d_ij = gcd(nn_i, nn_j), and the
    reduced pair quotient is (term_i + term_j) / (d_ij * x_ij * x_kl^2).
    """
    ni = [euclid(v, n) for v in a]
    t = [a[i] // ni[i] for i in range(4)]
    nn = [n // ni[i] for i in range(4)]
    x = layered_gcds(t)
    if any(x[(i,)] != 1 for i in range(4)):
        raise ArithmeticError("singleton layered gcd != 1 for %s" % (a,))
    X = 1
    for J, v in x.items():
        if len(J) >= 2:
            X *= v
    term = [nn[i] * X // t[i] for i in range(4)]
    for ij in _PAIRS:
        kl = tuple(i for i in range(4) if i not in ij)
        i, j = ij
        den = euclid(nn[i], nn[j]) * x[ij] * x[kl] * x[kl]
        if (term[i] + term[j]) % den:
            return True
    return False


def build_table(log=None) -> dict:
    started = time.perf_counter()
    rows = []
    for m, n in reduced_fractions(N_MAX, M_FACTOR):
        sols = representations(m, n, 4)
        fractional = sum(1 for a in sols if has_fractional_reduced_pair(a, n))
        rows.append([m, n, len(sols), fractional])
    if log:
        log("f_4 over n <= %d, m <= %dn: %d fractions, %d solutions, %.1fs"
            % (N_MAX, M_FACTOR, len(rows), sum(r[2] for r in rows),
               time.perf_counter() - started))
    ones = [count(1, 1, k) for k in range(1, 7)]
    if tuple(ones) != A002966:
        raise SystemExit("reference f_k(1,1) = %s disagrees with A002966 %s"
                         % (ones, A002966))
    f6 = count(1, 2, 6)
    if log:
        log("f_6(1,2) = %d, total %.1fs" % (f6, time.perf_counter() - started))
    return {
        "about": "per-fraction f_4 and the number of those solutions with a "
                 "non-integral reduced pair quotient; made by "
                 "perfbench/reference.py",
        "n_max": N_MAX,
        "m_factor": M_FACTOR,
        "columns": ["m", "n", "f4", "fractional_reduced_pair"],
        "rows": rows,
        "f_k(1,1)": ones,
        "f_6(1,2)": f6,
    }


def load_table(path: str = TABLE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    table = build_table(log=lambda msg: print(msg, file=sys.stderr, flush=True))
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
