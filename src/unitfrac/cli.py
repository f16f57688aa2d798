"""Command-line interface tying the workbench modules together.

Exit codes: 0 on success, 1 on invalid input, 2 when a computation
surfaces an integrality or invariant finding (the interesting outcome
of a soundness check, not a crash).  A closed stdout (the reader of a
pipe exited) ends the run with 1 and nothing on stderr, never 0, so a
cut-off run is not read as a complete one.  All JSON output is
line-delimited with sorted keys, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence

from . import asymptotics as asym
from . import boundsearch as bs
from . import catalog as cat
from . import params as P
from .closure import closure_report, minimal_defining_sets
from .decomposition import decompose
from .enumeration import count_representations, enumerate_representations
from .errors import (
    InputError,
    IntegralityError,
    InvariantError,
    UnclearedDenominatorError,
)
from .sweep import sweep_soundness

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as InputError (exit 1)."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise InputError(message)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _parse_solution(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(
            "solution must be comma-separated integers, got %r" % text)
    return values


def _parse_param_set(text: str) -> List[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise InputError("empty parameter set")
    for name in names:
        if name not in P.PARAM_INDEX:
            raise InputError("unknown parameter name %r" % name)
    return names


def _load_library(path: str) -> List[FrozenSet[str]]:
    sets: List[FrozenSet[str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            sets.append(frozenset(_parse_param_set(line)))
    if not sets:
        raise InputError("library file %s contains no sets" % path)
    return sets


def _parse_width(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("width must be a rational like 1e-7 or 1/10000000")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_enumerate(args) -> int:
    result = enumerate_representations(args.m, args.n, args.k, cap=args.cap)
    for sol in result.solutions:
        if args.json:
            print(_json_line({"denominators": list(sol.denominators)}))
        else:
            print(",".join(str(a) for a in sol.denominators))
    if not result.complete:
        print("warning: output truncated at cap=%d" % args.cap,
              file=sys.stderr)
    return 0


def _cmd_count(args) -> int:
    print(count_representations(args.m, args.n, args.k))
    return 0


def _cmd_decompose(args) -> int:
    if args.n < 1:
        raise InputError("n must be positive, got %d" % args.n)
    values = _parse_solution(args.solution)
    dec = decompose(values, Fraction(args.m, args.n),
                    convention=args.z_convention)
    if args.json:
        print(_json_line({
            "convention": dec.convention,
            "denominators": list(dec.denominators),
            "m": dec.m,
            "n": dec.n,
            "pattern": list(dec.pattern),
            "t": list(dec.t),
            "terms": list(dec.terms),
            "x": {k: dec.x[k] for k in sorted(dec.x)},
            "z": {k: dec.z[k] for k in sorted(dec.z)},
        }))
        return 0
    print("%d/%d = %s" % (dec.m, dec.n,
                          " + ".join("1/%d" % a for a in dec.denominators)))
    print("pattern  n_i = gcd(a_i, n): %s" % (dec.pattern,))
    print("cofactors t_i = a_i/n_i:    %s" % (dec.t,))
    xs = " ".join("%s=%d" % (k, dec.x[k]) for k in P.X_PARAMS if dec.x[k] != 1)
    print("relative gcds: %s" % (xs or "all 1"))
    print("z quotients (%s): %s" % (
        dec.convention,
        " ".join("%s=%d" % (k, dec.z[k]) for k in sorted(dec.z))))
    print("master: %d * %d = %s" % (
        dec.m, dec.master_product(),
        " + ".join(str(t) for t in dec.terms)))
    return 0


def _cmd_catalog(args) -> int:
    rules = cat.build_rules(args.z_convention)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(cat.export_rules(rules))
    if args.json:
        for rule in rules:
            print(_json_line({
                "equation": rule.equation,
                "family": rule.family,
                "inputs": P.sort_params(rule.inputs),
                "key": rule.key,
                "outputs": P.sort_params(rule.outputs),
            }))
        return 0
    counts = cat.family_counts(rules)
    print("%d closure rules (%s convention)" % (len(rules), args.z_convention))
    for family in sorted(cat.FAMILY_NAMES):
        print("  %d %-8s %d"
              % (family, cat.FAMILY_NAMES[family], counts[family - 1]))
    if args.export:
        print("exported to %s" % args.export)
    return 0


def _cmd_closure(args) -> int:
    names = _parse_param_set(args.set)
    print(_json_line(closure_report(names, convention=args.z_convention)))
    return 0


def _cmd_defining_sets(args) -> int:
    if args.max_size < 1:
        raise InputError("--max-size must be >= 1")
    for s in minimal_defining_sets(args.max_size, convention=args.z_convention):
        print(_json_line(closure_report(s, convention=args.z_convention)))
    return 0


def _cmd_search(args) -> int:
    if args.budget < 1:
        raise InputError("--budget must be >= 1")
    library = _load_library(args.library) if args.library else None
    result = bs.search(args.budget, g_max=args.gmax, library=library,
                       node_limit=args.node_limit)
    if args.json:
        for bound in result.frontier:
            print(bs.witness_to_json(bound))
        if not result.complete:
            print("warning: node limit reached; frontier is partial",
                  file=sys.stderr)
        return 0
    print("frontier of %d bounds (budget=%d, g_max=%d, %d combinations"
          " examined%s, %.1fs)"
          % (len(result.frontier), args.budget, args.gmax, result.examined,
             "" if result.complete else ", PARTIAL", result.elapsed))
    for bound in result.frontier:
        print(bound.describe())
        print("    %s" % bound.inequality)
    return 0


def _cmd_replay(args) -> int:
    count = 0
    with open(args.witness, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            bound = bs.replay_witness(doc)
            print("replayed: %s" % bound.describe())
            count += 1
    if count == 0:
        raise InputError("no witnesses found in %s" % args.witness)
    return 0


def _cmd_bound(args) -> int:
    report = asym.bound_report(args.m, args.n)
    if args.json:
        print(_json_line({
            "c": report.c_float,
            "candidates": {label: v for label, v in report.candidates()},
            "formula": report.formula.label,
            "m": report.m,
            "n": report.n,
            "region": report.region,
            "values": {f.label: v
                       for f, v in zip(asym.FORMULAS, report.values)},
        }))
        return 0
    print("m=%d n=%d: c = log(m)/log(n) = %.6f (region %d of 6)"
          % (report.m, report.n, report.c_float, report.region + 1))
    print("sharpest: %s ~ %.6g" % (report.formula.label, report.value()))
    print("bound = min of:")
    for label, value in report.candidates():
        print("  %-42s %.6g" % (label, value))
    return 0


def _cmd_regimes(args) -> int:
    table = asym.regime_table()
    scale = asym.alpha_scale()
    if args.json:
        for lo, hi, formula in table:
            print(_json_line({
                "alpha_high": int(hi * scale),
                "alpha_low": int(lo * scale),
                "c_high": str(hi),
                "c_low": str(lo),
                "exponent_at_c_high": str(formula.n_exp(hi)),
                "exponent_at_c_low": str(formula.n_exp(lo)),
                "formula": formula.label,
            }))
        return 0
    print("six regimes of c = log(m)/log(n) on [0, 1] "
          "(breakpoints scaled by %d):" % scale)
    for lo, hi, formula in table:
        print("  c in [%s, %s]  (alpha %d..%d): %s"
              % (lo, hi, int(lo * scale), int(hi * scale), formula.label))
    return 0


def _cmd_sylvester(args) -> int:
    state = asym.sylvester(_parse_width(args.width))
    lo, hi = state.bracket
    digits = 0
    while digits < 12 and state.decimal_prefix(digits + 1) is not None:
        digits += 1
    prefix = state.decimal_prefix(digits) if digits else None
    if args.json:
        print(_json_line({
            "certified_digits": digits,
            "hi": str(hi),
            "lo": str(lo),
            "prefix": str(prefix) if prefix is not None else None,
            "u": list(state.u),
            "width": str(state.width),
        }))
        return 0
    print("u: %s" % ", ".join(str(v) for v in state.u))
    # round outward, so the printed interval still contains the constant
    scale = 10 ** 12
    lo_12 = lo.numerator * scale // lo.denominator
    hi_12 = -(-hi.numerator * scale // hi.denominator)
    print("enclosure: [%d.%012d, %d.%012d], width %.3g"
          % (*divmod(lo_12, scale), *divmod(hi_12, scale), float(state.width)))
    if prefix is not None:
        text = str(prefix)
        print("certified: %s.%s" % (text[0], text[1:]))
    return 0


def _cmd_lift_report(args) -> int:
    rows = asym.lift_report(args.nmax)
    if args.json:
        for row in rows:
            print(_json_line({"count": row.count, "m": row.m, "n": row.n,
                              "shape": row.shape}))
        return 0
    print("%-8s %10s %16s" % ("m/n", "f5", "(n^2/m)^(8/5)"))
    for row in rows:
        print("%-8s %10d %16.2f"
              % ("%d/%d" % (row.m, row.n), row.count, row.shape))
    return 0


def _cmd_sweep(args) -> int:
    def progress(n: int, report) -> None:
        print("n=%d: %d solutions, %d failures, %d skipped"
              % (n, report.solutions, len(report.failures), report.skipped),
              file=sys.stderr)

    report = sweep_soundness(
        n_max=args.nmax,
        m_factor=args.mfactor,
        convention=args.z_convention,
        fail_limit=args.fail_limit,
        progress=progress if not args.quiet else None,
    )
    if args.json:
        print(_json_line({
            "complete": report.complete,
            "convention": report.convention,
            "failures": [
                {"check": f.check, "denominators": list(f.denominators),
                 "m": f.m, "n": f.n}
                for f in report.failures
            ],
            "fractions": report.fractions,
            "m_factor": report.m_factor,
            "n_max": report.n_max,
            "skipped": report.skipped,
            "solutions": report.solutions,
        }))
    else:
        print(report.summary())
        for failure in report.failures[:20]:
            print("  FAIL %s" % failure)
        if len(report.failures) > 20:
            print("  ... %d more" % (len(report.failures) - 20))
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# parser assembly


def _add_convention(parser: _Parser) -> None:
    parser.add_argument("--z-convention", choices=P.CONVENTIONS,
                        default="standard",
                        help="pair-quotient convention (default: standard)")


def _add_json(parser: _Parser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="line-delimited JSON output")


def build_parser() -> _Parser:
    parser = _Parser(prog="unitfrac",
                     description="unit-fraction representation workbench")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("enumerate",
                       help="list k-term representations of m/n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--cap", type=int, default=None,
                   help="stop after this many solutions")
    _add_json(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count",
                       help="count k-term representations of m/n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("decompose",
                       help="pattern / relative-gcd decomposition of a"
                            " 4-term solution")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--solution", required=True,
                   help="comma-separated nondecreasing denominators")
    _add_convention(p)
    _add_json(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("catalog",
                       help="show or export the closure-rule catalog")
    p.add_argument("--export", metavar="PATH",
                   help="write rules to PATH in family|inputs|outputs form")
    _add_convention(p)
    _add_json(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("closure",
                       help="close a parameter set under the catalog")
    p.add_argument("--set", required=True,
                   help="comma-separated parameter names, e.g. z23,z234")
    _add_convention(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("defining-sets",
                       help="minimal defining sets up to a size bound")
    p.add_argument("--max-size", type=int, required=True)
    _add_convention(p)
    p.set_defaults(func=_cmd_defining_sets)

    p = sub.add_parser("search",
                       help="search inequality combinations for bounds")
    p.add_argument("--budget", type=int, required=True,
                   help="total multiplicity budget")
    p.add_argument("--gmax", type=int, default=6,
                   help="largest part count to certify (default 6)")
    p.add_argument("--library", metavar="PATH",
                   help="defining-set library file (one comma-separated"
                        " set per line)")
    p.add_argument("--node-limit", type=int, default=None,
                   help="abort after examining this many combinations")
    _add_json(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("replay",
                       help="re-derive and verify witness documents")
    p.add_argument("--witness", required=True, metavar="PATH",
                   help="file of witness JSON lines")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("bound",
                       help="asymptotic regime report for concrete m, n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    _add_json(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("regimes",
                       help="regime table with exact breakpoints")
    _add_json(p)
    p.set_defaults(func=_cmd_regimes)

    p = sub.add_parser("sylvester",
                       help="certified enclosure of the Sylvester constant")
    p.add_argument("--width", default="1e-7",
                   help="target enclosure width (default 1e-7)")
    _add_json(p)
    p.set_defaults(func=_cmd_sylvester)

    p = sub.add_parser("lift-report",
                       help="exact 5-term counts vs the asymptotic shape")
    p.add_argument("--nmax", type=int, default=6,
                   help="largest denominator n (default 6, hard cap 8)")
    _add_json(p)
    p.set_defaults(func=_cmd_lift_report)

    p = sub.add_parser("sweep",
                       help="verify every rule on every solution in a"
                            " rectangle of fractions")
    p.add_argument("--nmax", type=int, default=50)
    p.add_argument("--mfactor", type=int, default=4,
                   help="check m up to mfactor*n (default 4)")
    p.add_argument("--fail-limit", type=int, default=None)
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-n progress on stderr")
    _add_convention(p)
    _add_json(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, UnclearedDenominatorError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (IntegralityError, InvariantError) as exc:
        print("finding: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout went away (e.g. `| head`): stop quietly and
        # point stdout at devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry() -> int:
    return main(sys.argv[1:])
