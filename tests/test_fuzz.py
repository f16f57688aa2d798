"""Fuzzed command lines and tampered input files, run through `cli.main`.

Every case must end in exit 0 or 2, or in exit 1 with exactly one line,
an `error:` line, on stderr; none may raise.  Hypothesis starts from a
fixed seed and keeps no example database, so every run tries the same
cases.  The valid values are small, so each case runs in milliseconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from functools import lru_cache

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from unitfrac.boundsearch import default_library
from unitfrac.cli import main

FUZZ = settings(database=None, deadline=None, max_examples=250)

HUGE = str(10 ** 30)
# Tokens no argument may crash on: "３", "٢" and "१" are digits int()
# reads as 3, 2 and 1; "²" is a digit it refuses.
ADVERSARIAL = ("0", "-1", HUGE, "-" + HUGE, "nan", "1e400", "1/0", "",
               "３", "٢", "१", "²", "1.5", "0x10", "--", "-x")
# Where a huge value is a valid request for huge work (a denominator to
# enumerate, a search budget, a sweep bound), only its negative is drawn.
BOUNDED = tuple(t for t in ADVERSARIAL if t != HUGE)


def _value(*small, huge=True):
    # a small valid value two times in three
    valid = st.sampled_from([str(v) for v in small])
    return st.one_of(valid, valid,
                     st.sampled_from(ADVERSARIAL if huge else BOUNDED))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _assert_clean_exit(case, rc, err):
    assert rc in (0, 1, 2), (case, rc, err)
    if rc == 1:
        assert err.startswith("error:") and err.count("\n") == 1, (case, err)
    else:
        assert "error:" not in err, (case, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths a file argument may name: a good file of each kind, an empty
    file, a directory, a missing file, the empty string, and a fresh file
    for `catalog --export` to write."""
    root = tmp_path_factory.mktemp("fuzz")
    witness = root / "witness.jsonl"
    witness.write_text(_witness_lines()[0] + "\n", encoding="utf-8")
    library = root / "library.txt"
    library.write_text("z23,z234\nx23,x24,z234\n", encoding="utf-8")
    empty = root / "empty.txt"
    empty.write_text("", encoding="utf-8")
    return {"witness": str(witness), "library": str(library),
            "empty": str(empty), "dir": str(root),
            "missing": str(root / "missing" / "file"), "none": "",
            "export": str(root / "export.txt")}


# the files a command may read; a file to export to is never among them
READ = ("library", "empty", "dir", "missing", "none", "witness")
CONVENTION = st.sampled_from(("standard", "reduced", "other", ""))
M, N, K = _value(1, 2, 3, 5), _value(1, 2, 3, 6, huge=False), _value(0, 1, 3, 4)

# name: (arguments always given, arguments given or left out); a flag
# with no value strategy is a switch, and a tuple of `files` keys draws a
# path, the first key likeliest.  The sweep's and lift-report's --nmax are
# always given: their defaults (50 and 6) take seconds.
COMMANDS = {
    "enumerate": ([(None, M), (None, N), (None, K)],
                  [("--cap", _value(0, 1, 5)), ("--json", None)]),
    "count": ([(None, M), (None, N), (None, K)], []),
    "decompose": ([(None, _value(1, 2)), (None, _value(1, 2, 6)),
                   ("--solution", st.sampled_from((
                       "2,4,6,12", "3,4,6,12", "2,4,6", "2,4,6,12,",
                       "0,0,0,0", "-2,4,6,12", "12,6,4,2", HUGE + ",1,1,1",
                       "٢,٤,٦,١٢", "a,b,c,d", "", "2.0,4,6,12")))],
                  [("--z-convention", CONVENTION), ("--json", None)]),
    "catalog": ([], [("--export", ("export", "dir", "missing", "none")),
                     ("--z-convention", CONVENTION), ("--json", None)]),
    "closure": ([("--set", st.sampled_from((
                    "z23,z234", "x12", "z23,,z234", ",", "", "x99",
                    "z23 z234", "Z23", "z23,z23")))],
                [("--z-convention", CONVENTION)]),
    "defining-sets": ([("--max-size", _value(0, 1, 2))],
                      [("--z-convention", CONVENTION)]),
    "search": ([("--budget", _value(1, 2, 3, huge=False))],
               [("--gmax", _value(1, 2, 6)), ("--node-limit", _value(1, 5)),
                ("--library", READ), ("--stats", None),
                ("--json", None)]),
    "replay": ([("--witness", READ[::-1])], []),
    "bound": ([(None, _value(1, 2, 5)), (None, _value(2, 3, 7))],
              [("--json", None)]),
    "regimes": ([], [("--json", None)]),
    "sylvester": ([], [("--width", _value("1e-7", "1e-3", "0.5", "1/3")),
                       ("--json", None)]),
    "lift-report": ([("--nmax", _value(1, 2, 3))], [("--json", None)]),
    "sweep": ([("--nmax", _value(1, 3, 6, huge=False))],
              [("--mfactor", _value(1, 4, 9)),
               ("--fail-limit", _value(1, 5)),
               ("--z-convention", CONVENTION), ("--quiet", None),
               ("--stats", None), ("--json", None)]),
}


@st.composite
def _argv(draw, files):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[name]
    argv = [name]
    chosen = required + [slot for slot in optional if draw(st.booleans())]
    for flag, values in chosen:
        if flag is not None:
            argv.append(flag)
        if isinstance(values, tuple):
            argv.append(files[draw(st.sampled_from(values[:1] * 4 + values))])
        elif values is not None:
            argv.append(draw(values))
    if draw(st.integers(0, 9)) == 5:  # a stray token, one time in ten
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(ADVERSARIAL)))
    return argv


@seed(20261020)
@settings(FUZZ, max_examples=500)
@given(data=st.data())
def test_every_subcommand_survives_fuzzed_argv(files, data):
    argv = data.draw(_argv(files))
    rc, _, err = _run(argv)
    _assert_clean_exit(argv, rc, err)


@lru_cache(maxsize=None)
def _witness_lines():
    rc, out, _ = _run(["search", "--budget", "4", "--json"])
    assert rc == 0
    return tuple(out.splitlines())


_DELETE = object()
# What a tampered field may become; _DELETE removes it instead.
TAMPERED = (0, -1, 10 ** 400, 1.5, 2.0, float("nan"), True, False, None,
            "", "z23", "7", [], [1, 2], ["z23", "z234"], {}, {"t1": 1},
            _DELETE)


def _paths(doc, prefix=()):
    # every place below the root: dict keys and list positions
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _tamper(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


@seed(20261021)
@FUZZ
@given(data=st.data())
def test_replay_survives_tampered_witnesses(files, data):
    lines = list(_witness_lines())
    index = data.draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[index])
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        _tamper(doc, data.draw(st.sampled_from(paths)),
                data.draw(st.sampled_from(TAMPERED)))
    lines[index] = json.dumps(doc)
    path = files["dir"] + "/tampered.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    rc, out, err = _run(["replay", "--witness", path])
    _assert_clean_exit(index, rc, err)
    # the lines before the tampered one still replay
    replayed = out.count("replayed: ")
    if rc == 0:
        assert replayed == len(lines)
    else:
        assert replayed == index
        assert err.startswith("error: %s:%d: " % (path, index + 1)), err


LIBRARY = [",".join(sorted(s)) for s in default_library()]
JUNK = ("", "#", ",", "z23", "x99", "Z23", "z23 z234", "z23;z234", "٣",
        "nan", "0", "-1", HUGE, "z23,,z234", "z23,z23,z234", "\x00")


@st.composite
def _damaged_library(draw):
    lines = list(LIBRARY)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("line", "name", "drop-name", "drop-line",
                                    "repeat")))
        names = lines[i].split(",")
        j = draw(st.integers(0, len(names) - 1))
        if how == "line":
            lines[i] = draw(st.sampled_from(JUNK))
        elif how == "name":
            names[j] = draw(st.sampled_from(JUNK))
            lines[i] = ",".join(names)
        elif how == "drop-name":
            lines[i] = ",".join(names[:j] + names[j + 1:])
        elif how == "drop-line":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return ("\n".join(lines) + "\n").encode("utf-8") + draw(
        st.sampled_from((b"", b"", b"\xff\xfe", b"z23,z2\xe9")))


@seed(20261022)
@FUZZ
@given(text=_damaged_library(), budget=st.sampled_from(("1", "3")))
def test_search_survives_damaged_libraries(files, text, budget):
    path = files["dir"] + "/damaged.txt"
    with open(path, "wb") as handle:
        handle.write(text)
    argv = ["search", "--budget", budget, "--library", path, "--json"]
    rc, _, err = _run(argv)
    _assert_clean_exit(text, rc, err)
