"""End-to-end command-line interface behaviour, exit codes, JSON schemas."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import unitfrac
from unitfrac import catalog as cat
from unitfrac.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count_known_value(capsys):
    rc, out, err = run(capsys, "count", "1", "1", "4")
    assert rc == 0
    assert out == "14\n"
    assert err == ""


def test_enumerate_plain_lines(capsys):
    rc, out, _ = run(capsys, "enumerate", "1", "1", "3")
    assert rc == 0
    assert out == "2,3,6\n2,4,4\n3,3,3\n"


def test_enumerate_json_lines(capsys):
    rc, out, _ = run(capsys, "enumerate", "1", "1", "3", "--json")
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs[0] == {"denominators": [2, 3, 6]}
    assert len(docs) == 3


def test_enumerate_cap_warns_on_truncation(capsys):
    rc, out, err = run(capsys, "enumerate", "1", "1", "4", "--cap", "5")
    assert rc == 0
    assert len(out.splitlines()) == 5
    assert "truncated" in err
    rc, out, err = run(capsys, "enumerate", "3", "7", "6", "--cap", "-1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_decompose_human_output(capsys):
    rc, out, _ = run(capsys, "decompose", "1", "1",
                     "--solution", "2,4,6,12")
    assert rc == 0
    assert "1/1 = 1/2 + 1/4 + 1/6 + 1/12" in out
    assert "x24=2" in out and "x34=3" in out and "x1234=2" in out
    assert "master: 1 * 12 = 6 + 3 + 2 + 1" in out


def test_decompose_json_output(capsys):
    rc, out, _ = run(capsys, "decompose", "1", "1",
                     "--solution", "2,4,6,12", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["m"] == 1 and doc["n"] == 1
    assert doc["denominators"] == [2, 4, 6, 12]
    assert doc["pattern"] == [1, 1, 1, 1]
    assert doc["t"] == [2, 4, 6, 12]
    assert doc["terms"] == [6, 3, 2, 1]
    assert doc["convention"] == "standard"
    assert doc["x"]["x24"] == 2 and doc["x"]["x1234"] == 2
    assert set(doc["z"]) == {"z12", "z13", "z14", "z23", "z24", "z34",
                             "z123", "z124", "z134", "z234"}


def test_decompose_integrality_finding_exits_two(capsys):
    rc, out, err = run(capsys, "decompose", "1", "2",
                       "--solution", "4,8,10,40",
                       "--z-convention", "reduced")
    assert rc == 2
    assert err.startswith("finding:")
    assert "z12" in err


def test_decompose_rejects_unsorted_solution(capsys):
    rc, _, err = run(capsys, "decompose", "1", "1",
                     "--solution", "4,2,6,12")
    assert rc == 1
    assert err.startswith("error:")


def test_decompose_rejects_wrong_sum(capsys):
    rc, _, err = run(capsys, "decompose", "1", "1",
                     "--solution", "2,4,6,13")
    assert rc == 1
    assert err.startswith("error:")


def test_decompose_rejects_zero_n(capsys):
    rc, out, err = run(capsys, "decompose", "1", "0",
                       "--solution", "2,4,6,12")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_closure_defining_pair(capsys):
    rc, out, _ = run(capsys, "closure", "--set", "z23,z234")
    assert rc == 0
    assert out == ('{"closure_size": 21, "defining": true,'
                   ' "set": ["z23", "z234"]}\n')


def test_closure_non_defining_set(capsys):
    rc, out, _ = run(capsys, "closure", "--set", "x12,x13")
    assert rc == 0
    doc = json.loads(out)
    assert doc["defining"] is False
    assert doc["closure_size"] == 2


def test_closure_rejects_unknown_parameter(capsys):
    rc, _, err = run(capsys, "closure", "--set", "z23,bogus")
    assert rc == 1
    assert "bogus" in err


def test_catalog_summary(capsys):
    rc, out, _ = run(capsys, "catalog")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "96 closure rules (standard convention)"
    assert lines[1].split() == ["1", "factor", "55"]
    assert lines[8].split() == ["8", "zprod", "6"]


def test_catalog_export_roundtrip(capsys, tmp_path):
    path = tmp_path / "rules.txt"
    rc, out, _ = run(capsys, "catalog", "--export", str(path))
    assert rc == 0
    assert "exported to" in out
    text = path.read_text(encoding="utf-8")
    assert text == cat.export_rules(cat.build_rules())
    assert len(text.splitlines()) == 96
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_catalog_json_lines(capsys):
    rc, out, _ = run(capsys, "catalog", "--json")
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 96
    assert set(docs[0]) == {"equation", "family", "inputs", "key", "outputs"}
    assert sum(1 for d in docs if d["family"] == 1) == 55


# sha256 of the export, of `catalog --json` and of `defining-sets
# --max-size 3` (line count alongside): every rule's inputs and outputs,
# so a derived set that changes shows here
PINNED_CLOSURE_SEMANTICS = {
    "standard": (
        "a3311f6d2b49bffae45ebe3db50946256d7405ecf106242543f77fb552522344",
        "b1f5ad7c38f5c16bbffd8491b3bb5655eb9714d143caf9e9d820f0622e0671d3",
        "454bd324729d258a4efd73d83ba7860f84428563eca605442a4e716b7522fb5c",
        45,
    ),
    "reduced": (
        "278c77acf6d474da799c5d6d70da93e26f3c3685360c3f8f11d0c6c6da1c7d97",
        "503c1fa6f75f6648fa7549d21e450f71fc16d7f7daf2a8e0da92be53b8561792",
        "e101ffb5de5c0f39657c57cd9061e592880bfec7cfa2d652c78cd76d312870a9",
        42,
    ),
}


@pytest.mark.parametrize("convention", sorted(PINNED_CLOSURE_SEMANTICS))
def test_closure_semantics_are_pinned(capsys, convention):
    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    export, as_json, sets, n_sets = PINNED_CLOSURE_SEMANTICS[convention]
    assert sha(cat.export_rules(cat.build_rules(convention))) == export
    rc, out, _ = run(capsys, "catalog", "--json", "--z-convention", convention)
    assert rc == 0 and sha(out) == as_json
    rc, out, _ = run(capsys, "defining-sets", "--max-size", "3",
                     "--z-convention", convention)
    assert rc == 0 and len(out.splitlines()) == n_sets
    assert sha(out) == sets


def test_defining_sets_size_two(capsys):
    rc, out, _ = run(capsys, "defining-sets", "--max-size", "2")
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 21
    assert all(d["defining"] for d in docs)
    assert all(d["closure_size"] == 21 for d in docs)
    assert len({tuple(d["set"]) for d in docs}) == 21


def test_defining_sets_rejects_bad_size(capsys):
    rc, _, err = run(capsys, "defining-sets", "--max-size", "0")
    assert rc == 1
    assert err.startswith("error:")


def test_search_json_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "search", "--budget", "4", "--json")
    rc2, out2, _ = run(capsys, "search", "--budget", "4", "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    docs = [json.loads(line) for line in out1.splitlines()]
    assert len(docs) == 10
    for doc in docs:
        assert set(doc) == {"A", "B", "combination", "constant", "exponents",
                            "g", "partition", "raw_pattern", "reductions"}


def test_search_human_output(capsys):
    rc, out, _ = run(capsys, "search", "--budget", "4")
    assert rc == 0
    assert out.startswith("frontier of 10 bounds (budget=4, g_max=6,"
                          " 178 combinations examined")
    assert "<=" in out


def test_search_stats_line(capsys):
    for mode in (["--json"], []):
        rc, out, err = run(capsys, "search", "--budget", "4", *mode)
        rc_s, out_s, err_s = run(capsys, "search", "--budget", "4", *mode,
                                 "--stats")
        assert rc == rc_s == 0 and err == ""
        # stdout is unchanged; the text header's time may differ
        assert re.sub(r", [0-9.]+s\)", ")", out_s) == re.sub(
            r", [0-9.]+s\)", ")", out)
        assert err_s.count("\n") == 1
        stats = json.loads(err_s)
        assert list(stats) == ["examined", "skipped", "complete", "frontier",
                               "elapsed_s"]
        assert stats["examined"] == 178 and stats["complete"] is True
        assert 0 <= stats["skipped"] < 178 and stats["frontier"] == 10
        assert isinstance(stats["elapsed_s"], float)
    _, _, err = run(capsys, "search", "--budget", "10", "--node-limit",
                    "100", "--json", "--stats")
    stats = json.loads(err.splitlines()[0])
    assert stats["examined"] == 100 and stats["complete"] is False


def test_search_replay_roundtrip(capsys, tmp_path):
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    path = tmp_path / "witnesses.jsonl"
    path.write_text(out, encoding="utf-8")
    rc, replay_out, _ = run(capsys, "replay", "--witness", str(path))
    assert rc == 0
    lines = replay_out.splitlines()
    assert len(lines) == len(out.splitlines())
    assert all(line.startswith("replayed: ") for line in lines)
    # replay certifies each base with is_defining and takes no library
    library = tmp_path / "library.txt"
    library.write_text("z23,z234\n", encoding="utf-8")
    rc, _, err = run(capsys, "replay", "--witness", str(path),
                     "--library", str(library))
    assert rc == 1
    assert err.startswith("error:")


def test_replay_uses_the_search_catalog(capsys, tmp_path):
    # search certifies its library under the standard catalog only, so
    # replay takes no convention: {z12,z34} is defining there, not under
    # the reduced catalog
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    path = tmp_path / "witnesses.jsonl"
    path.write_text(out, encoding="utf-8")
    rc, out, err = run(capsys, "replay", "--witness", str(path),
                       "--z-convention", "reduced")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_search_rejects_zero_gmax(capsys):
    rc, out, err = run(capsys, "search", "--budget", "4", "--gmax", "0")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_search_rejects_zero_budget(capsys):
    rc, out, err = run(capsys, "search", "--budget", "0")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_replay_rejects_tampered_witness(capsys, tmp_path):
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    doc = json.loads(out.splitlines()[0])
    doc["A"] = doc["A"] - 1
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    rc, _, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert err.startswith("error:")
    # g = 0 with no bases certifies nothing
    doc = json.loads(out.splitlines()[0])
    doc["g"] = 0
    doc["partition"]["bases"] = []
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    rc, _, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_replay_rejects_non_object_line(capsys, tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    rc, out, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_replay_rejects_witness_missing_a_key(capsys, tmp_path):
    path = tmp_path / "partial.jsonl"
    path.write_text('{"combination": {"t1": 1}}\n', encoding="utf-8")
    rc, out, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "raw_pattern" in err


def test_replay_rejects_non_integer_numbers(capsys, tmp_path):
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    doc = json.loads(out.splitlines()[0])
    doc.update(A=2.9, constant=12.7, g=True)
    doc["combination"]["z234"] = 1.5
    path = tmp_path / "fractional.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    rc, out, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: %s:1: malformed witness" % path)
    assert err.count("\n") == 1


def test_replay_rejects_witness_too_deep_to_scan(capsys, tmp_path):
    # combine() takes this combination to this raw pattern, whose 1500
    # reductions need one level of recursion each
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    doc = json.loads(out.splitlines()[0])
    doc["combination"] = {"t1": 1500, "t2": 1500, "t3": 1500, "z12": 1500}
    doc["raw_pattern"] = {"n1": 3000, "n2": 1500, "n3": 1500, "d12": 1500}
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    rc, out, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert out == ""
    assert err == "error: %s:1: witness too large to replay\n" % path


def test_replay_scans_a_deep_witness_whose_constant_has_room(capsys, tmp_path):
    # as above, but with a constant of enough bits for 6000 multiplicities:
    # combine() runs and the reduction scan hits the recursion limit
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    doc = json.loads(out.splitlines()[0])
    doc["combination"] = {"t1": 1500, "t2": 1500, "t3": 1500, "z12": 1500}
    doc["raw_pattern"] = {"n1": 3000, "n2": 1500, "n3": 1500, "d12": 1500}
    doc["constant"] = 1 << 6000
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    rc, out, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert out == ""
    assert err == "error: %s:1: witness too large to replay\n" % path


def test_replay_refuses_huge_multiplicities_before_combining(capsys, tmp_path):
    # every template constant is >= 2, so 4 * 10^6 multiplicities need a
    # constant of 4 * 10^6 bits; this one has 4 and is refused at once
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    doc = json.loads(out.splitlines()[0])
    doc["combination"] = {"z12": 10**6, "t1": 10**6, "t2": 10**6, "t3": 10**6}
    path = tmp_path / "huge.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    start = time.perf_counter()
    rc, out, err = run(capsys, "replay", "--witness", str(path))
    assert time.perf_counter() - start < 0.5
    assert rc == 1
    assert out == ""
    assert err.startswith("error: %s:1: " % path) and err.count("\n") == 1


def test_readme_library_example_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_package_exports_resolve():
    names = unitfrac.__all__
    assert [n for n in names if not hasattr(unitfrac, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_replay_error_names_the_line(capsys, tmp_path):
    _, out, _ = run(capsys, "search", "--budget", "4", "--json")
    path = tmp_path / "witnesses.jsonl"
    path.write_text(out + "garbage\n", encoding="utf-8")
    rc, replay_out, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert len(replay_out.splitlines()) == len(out.splitlines()) == 10
    assert err.startswith("error: %s:11: " % path)
    # a witness that parses but does not replay is located the same way
    doc = json.loads(out.splitlines()[0])
    doc["A"] = doc["A"] - 1
    path.write_text(out.splitlines()[0] + "\n" + json.dumps(doc) + "\n",
                    encoding="utf-8")
    rc, _, err = run(capsys, "replay", "--witness", str(path))
    assert rc == 1
    assert ":2: witness A/B do not replay" in err


def test_replay_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "replay", "--witness",
                     str(tmp_path / "nope.jsonl"))
    assert rc == 1
    assert err.startswith("error:")


def test_search_node_limit_warns_partial(capsys):
    rc, out, err = run(capsys, "search", "--budget", "10", "--json",
                       "--node-limit", "100")
    assert rc == 0
    assert "partial" in err
    rc, out, err = run(capsys, "search", "--budget", "2", "--node-limit", "-5")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bound_human_output(capsys):
    rc, out, _ = run(capsys, "bound", "4", "1000000")
    assert rc == 0
    assert "(region 1 of 6)" in out
    assert "sharpest: n^(3/2)/m^(3/4)" in out
    assert "bound = min of:" in out


def test_bound_json_output(capsys):
    rc, out, _ = run(capsys, "bound", "7", "100", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["region"] == 4
    assert doc["formula"] == "n^(4/3)/m^(2/3)"
    assert doc["m"] == 7 and doc["n"] == 100
    assert len(doc["values"]) == 5
    assert len(doc["candidates"]) == 4


def test_bound_rejects_m_above_n(capsys):
    rc, _, err = run(capsys, "bound", "101", "100")
    assert rc == 1
    assert err.startswith("error:")


def test_regimes_json(capsys):
    rc, out, _ = run(capsys, "regimes", "--json")
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 6
    assert docs[0] == {
        "alpha_high": 5250, "alpha_low": 0,
        "c_high": "50/289", "c_low": "0",
        "exponent_at_c_high": "396/289", "exponent_at_c_low": "3/2",
        "formula": "n^(3/2)/m^(3/4)",
    }
    assert [d["alpha_high"] for d in docs] == [5250, 8925, 10115, 10200,
                                               24276, 30345]
    # adjacent regions meet with equal exponents: continuity in JSON form
    for left, right in zip(docs, docs[1:]):
        assert left["alpha_high"] == right["alpha_low"]
        assert left["exponent_at_c_high"] == right["exponent_at_c_low"]


def test_sylvester_json(capsys):
    rc, out, _ = run(capsys, "sylvester", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["u"] == [1, 2, 6, 42, 1806, 3263442]
    assert doc["certified_digits"] == 7
    assert doc["prefix"] == "15979102"
    assert doc["width"] == "1/62500000"


def test_sylvester_human_output(capsys):
    rc, out, _ = run(capsys, "sylvester")
    assert rc == 0
    assert "u: 1, 2, 6, 42, 1806, 3263442" in out
    assert "certified: 1.5979102" in out


def test_sylvester_enclosure_rounds_outward(capsys):
    # the exact ends are 1.59791021803187... and 1.59791021803188...;
    # rounding to nearest printed 1.597910218032 for both
    rc, out, _ = run(capsys, "sylvester", "--width", "1e-40")
    assert rc == 0
    assert "enclosure: [1.597910218031, 1.597910218032], width 2e-42" in out
    assert "certified: 1.597910218031" in out


def test_sylvester_width_below_float_range(capsys):
    # the enclosure width here is about 1e-402, which a float rounds to 0
    rc, out, _ = run(capsys, "sylvester", "--width", "1e-400")
    assert rc == 0
    assert "], width 1e-402\n" in out


def test_sylvester_rejects_bad_width(capsys):
    assert run(capsys, "sylvester", "--width", "abc")[0] == 1
    assert run(capsys, "sylvester", "--width", "0")[0] == 1


def test_sylvester_refuses_width_past_printable_digits(capsys):
    # the last u_k at this width has more digits than str() prints by default
    for extra in ((), ("--json",)):
        rc, out, err = run(capsys, "sylvester", "--width", "1e-3500", *extra)
        assert rc == 1 and out == ""
        assert err.startswith("error: width 1e-3500 ") and err.count("\n") == 1
        assert "%d digits" % sys.get_int_max_str_digits() in err
    # read from the text: refused before the enclosure or the width is built
    for width in ("1e-100000", "1e-999999999"):
        for extra in ((), ("--json",)):
            start = time.perf_counter()
            rc, out, err = run(capsys, "sylvester", "--width", width, *extra)
            assert time.perf_counter() - start < 2
            assert rc == 1 and out == ""
            assert err.startswith("error: width %s " % width)
            assert err.count("\n") == 1


def test_lift_report_json(capsys):
    rc, out, _ = run(capsys, "lift-report", "--nmax", "2", "--json")
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 12
    by_frac = {(d["m"], d["n"]): d["count"] for d in docs}
    assert by_frac[(1, 1)] == 147
    assert by_frac[(1, 2)] == 2892
    assert by_frac[(6, 1)] == 0


def test_lift_report_rejects_large_nmax(capsys):
    rc, _, err = run(capsys, "lift-report", "--nmax", "31")
    assert rc == 1
    assert err.startswith("error:")


def test_sweep_json_quiet(capsys):
    rc, out, err = run(capsys, "sweep", "--nmax", "4", "--quiet", "--json")
    assert rc == 0
    assert out == ('{"complete": true, "convention": "standard",'
                   ' "failures": [], "fractions": 24, "m_factor": 4,'
                   ' "n_max": 4, "skipped": 0, "solutions": 1408}\n')
    assert err == ""


def test_sweep_stopped_at_fail_limit_is_flagged(capsys, monkeypatch):
    from unitfrac.sweep import compiled_walk
    monkeypatch.setattr("unitfrac.sweep.compiled_walk", compiled_walk.__wrapped__)
    monkeypatch.setattr(
        "unitfrac.sweep.checker_source",
        lambda convention: "def _check():\n    fails = ['master']\n"
                           "    return fails\n")
    rc, out, _ = run(capsys, "sweep", "--nmax", "4", "--quiet", "--json",
                     "--fail-limit", "1")
    assert rc == 2
    doc = json.loads(out)
    assert doc["complete"] is False and len(doc["failures"]) == 1
    rc, out, _ = run(capsys, "sweep", "--nmax", "4", "--quiet",
                     "--fail-limit", "1")
    assert rc == 2
    assert "PARTIAL: stopped at the fail limit" in out.splitlines()[0]


def test_sweep_stats_line(capsys):
    rc, out, err = run(capsys, "sweep", "--nmax", "4", "--quiet", "--json")
    rc_s, out_s, err_s = run(capsys, "sweep", "--nmax", "4", "--quiet",
                             "--json", "--stats")
    assert rc == rc_s == 0 and out_s == out and err == ""
    assert err_s.count("\n") == 1
    stats = json.loads(err_s)
    assert list(stats) == ["a1_nodes", "a2_nodes", "tail_calls", "solutions",
                           "skipped"]
    assert stats["solutions"] == 1408 and stats["skipped"] == 0
    rc, out, err = run(capsys, "sweep", "--nmax", "2", "--stats")
    assert rc == 0 and out.startswith("swept 8 fractions / 145 solutions")
    assert json.loads(err.splitlines()[-1])["solutions"] == 145


def test_sweep_huge_mfactor_returns_at_once(capsys):
    started = time.perf_counter()
    rc, out, err = run(capsys, "sweep", "--nmax", "3", "--mfactor",
                       str(10 ** 20), "--quiet", "--json")
    assert time.perf_counter() - started < 2
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["fractions"] == 16 + (10 ** 20 - 4) * 4
    assert doc["solutions"] == 616 and doc["complete"] is True


def test_sweep_progress_on_stderr(capsys):
    rc, out, err = run(capsys, "sweep", "--nmax", "2", "--json")
    assert rc == 0
    assert "n=1:" in err and "n=2:" in err


def test_sweep_rejects_zero_fail_limit(capsys):
    rc, out, err = run(capsys, "sweep", "--nmax", "10", "--fail-limit", "0")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_closed_stdout_exits_one_quietly(capsys, monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
    try:
        rc = main(["count", "1", "1", "3"])
        # the descriptor now points at devnull, so the exit flush succeeds
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert rc == 1
    assert capsys.readouterr().err == ""


def test_invalid_inputs_exit_one(capsys):
    assert run(capsys, "count", "1", "1", "9")[0] == 1  # k beyond ceiling
    assert run(capsys, "count", "1", "0", "3")[0] == 1  # zero denominator
    assert run(capsys, "nonsense")[0] == 1              # unknown command
    assert run(capsys)[0] == 1                          # missing command
    assert run(capsys, "--threads", "2", "count", "1", "1", "3")[0] == 1
    # bound magnitudes that overflow a float: the power, then n itself
    for m, n in ((1, 10 ** 200), (2, 10 ** 400)):
        rc, out, err = run(capsys, "bound", str(m), str(n))
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(unitfrac.__file__))
    ok = subprocess.run([sys.executable, "-m", "unitfrac", "count", "1", "1",
                         "4"], capture_output=True, text=True, env=env)
    assert ok.returncode == 0
    assert ok.stdout == "14\n"
    bad = subprocess.run([sys.executable, "-m", "unitfrac", "count", "1", "0",
                          "3"], capture_output=True, text=True, env=env)
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:") and bad.stderr.count("\n") == 1


def test_library_file_flows_into_search(capsys, tmp_path):
    path = tmp_path / "library.txt"
    path.write_text("# core pair\nz23,z234\nz34,z234\n", encoding="utf-8")
    rc, out, _ = run(capsys, "search", "--budget", "4", "--json",
                     "--library", str(path))
    assert rc == 0
    assert len(out.splitlines()) >= 1


def test_library_rejects_non_defining_set(capsys, tmp_path):
    path = tmp_path / "library.txt"
    path.write_text("x12,x13\n", encoding="utf-8")
    rc, _, err = run(capsys, "search", "--budget", "4", "--json",
                     "--library", str(path))
    assert rc == 1
    assert "not defining" in err
