import importlib.util
import inspect
import json
import os
import pathlib
import random
import re
import runpy
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from bdcoords import bd, surfaces, verification
from bdcoords.cli import build_parser, main, spec_from_dict, spec_to_dict
from bdcoords.surfaces import SLOTS, PantsLamination, SurfaceSpec, SurfaceSpecError

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
DATA = os.path.join(HERE, os.pardir, "data")
SURFACE = os.path.join(DATA, "genus2_surface.json")
SLICE = os.path.join(DATA, "genus2_slice.json")


def test_verify_exact_suite_exits_zero(capsys):
    assert main(["verify", "--suite", "triple-ratio", "--n", "3",
                 "--samples", "25", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] triple-ratio" in out and "worst=0" in out


def test_verify_float_suite(capsys):
    assert main(["verify", "--suite", "double-ratio", "--n", "4",
                 "--samples", "20", "--seed", "3", "--float"]) == 0


def test_verify_rhombus_reports_sign_mismatches(capsys):
    assert main(["verify", "--suite", "rhombus", "--max", "6"]) == 0
    out = capsys.readouterr().out
    assert "sign_mismatches=" in out
    count = int(out.split("sign_mismatches=")[1].split()[0])
    assert count > 0


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "no-such-suite"]) == 2


@pytest.mark.parametrize("argv, bad", [
    pytest.param(["invariants", "--input", SURFACE, "--n", "1"], "--n 1", id="invariants-n"),
    pytest.param(["realize", "--input", SLICE, "--n", "1"], "--n 1", id="realize-n"),
    pytest.param(["verify", "--suite", "pants", "--n", "1"], "--n 1", id="verify-n"),
    pytest.param(["verify", "--suite", "pants", "--samples", "0"], "--samples 0",
                 id="verify-samples"),
    pytest.param(["verify", "--suite", "band", "--max", "0"], "--max 0", id="verify-max-0"),
    pytest.param(["verify", "--suite", "rhombus", "--max", "-1"], "--max -1",
                 id="verify-max-negative"),
    *(pytest.param(["verify", "--suite", suite, "--n", "2"],
                   f"suite {suite} needs n >= 3 for its triple ratios, got --n 2",
                   id=f"verify-{suite}-n2")
      for suite in ("triple-ratio", "permutation", "all")),
    *(pytest.param(["verify", "--suite", suite, "--n", "8", "--samples", "1"],
                   f"suite {suite} does not read --n, got --n 8; it runs {ranks}",
                   id=f"verify-{suite}-fixed-ranks")
      for suite, ranks in (("genus2", "n = 3, 4, 5"), ("roundtrip", "n = 3, 4, 5"),
                           ("pants", "no rank"), ("rhombus", "the ranks set by --max"),
                           ("band", "the ranks set by --max"))),
])
def test_out_of_range_arguments_exit_2(argv, bad, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert bad in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the options each suite reads, and an argv giving each option
READS = {"triple-ratio": "n samples seed mode", "double-ratio": "n samples seed mode",
         "permutation": "n samples seed", "rhombus": "max", "band": "max",
         "pants": "samples seed", "genus2": "samples seed", "roundtrip": "samples seed"}
OPTIONS = {"n": ["--n", "3"], "samples": ["--samples", "1"], "seed": ["--seed", "2"],
           "max": ["--max", "2"], "mode": ["--float"]}


def test_suite_table_matches_the_verify_options():
    assert {name: set(opts.split()) for name, opts in READS.items()} == {
        name: set(inspect.signature(run).parameters)
        for name, run in verification.SUITES.items()}
    assert set().union(*(opts.split() for opts in READS.values())) == set(OPTIONS)
    assert {name for name, opts in READS.items() if "n" not in opts.split()} == set(
        verification.FIXED_RANKS)


@pytest.mark.parametrize("suite, opt, given", [
    pytest.param(suite, opt, " ".join(argv), id=f"{suite}{argv[0]}")
    for suite, opts in READS.items()
    for opt, argv in [*OPTIONS.items(), ("mode", ["--exact"])] if opt not in opts.split()])
def test_verify_refuses_an_option_the_suite_does_not_read(suite, opt, given, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, *given.split(), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if opt == "n":
        assert err.startswith(f"error: suite {suite} does not read --n, got --n 3; it runs ")
    else:
        assert err.startswith(f"error: suite {suite} does not read {given}; it reads --")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suite", [*READS, "all"])
def test_verify_runs_on_every_option_the_suite_reads(suite, tmp_path):
    out = tmp_path / "report.json"
    opts = " ".join(READS.values()) if suite == "all" else READS[suite]
    argv = [a for opt in dict.fromkeys(opts.split()) for a in OPTIONS[opt]]
    assert main(["verify", "--suite", suite, *argv, "--out", str(out)]) == 0
    for report in json.loads(out.read_text()):
        params = report["params"]
        assert params.get("seed", 2) == 2 and params.get("mode", "float") == "float"


def test_invariants_has_no_tolerance_option(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["invariants", "--input", SURFACE, "--n", "3", "--tol", "1e-9"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ("triple-ratio", "double-ratio", "permutation"))
def test_rank_suites_read_n_and_default_to_3(suite, tmp_path):
    out = tmp_path / "report.json"
    for argv, n in (([], 3), (["--n", "5"], 5)):
        assert main(["verify", "--suite", suite, "--samples", "2", *argv,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())[0]["params"]["n"] == n


def test_genus2_suite_without_n_runs_its_ranks(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "genus2", "--samples", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())[0]["params"]["n_values"] == [3, 4, 5]


def test_invariants_command(tmp_path, capsys):
    prefix = str(tmp_path / "inv")
    assert main(["invariants", "--input", SURFACE, "--n", "3",
                 "--out", prefix]) == 0
    data = json.loads((tmp_path / "inv.json").read_text())
    assert len(data["invariants"]["tau"]) == 4
    assert len(data["invariants"]["sigma"]) == 12
    assert len(data["invariants"]["theta"]) == 6
    assert data["slice_membership"] is True
    assert data["polytope_membership"] is True
    csv_lines = (tmp_path / "inv.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 22
    assert csv_lines[0] == "block,object,p,q,r,value"


def test_invariants_n2_has_no_triangle_block(tmp_path):
    prefix = str(tmp_path / "inv2")
    assert main(["invariants", "--input", SURFACE, "--n", "2", "--out", prefix]) == 0
    data = json.loads((tmp_path / "inv2.json").read_text())
    assert data["invariants"]["tau"] == []
    assert len(data["invariants"]["sigma"]) == 6
    assert len(data["invariants"]["theta"]) == 3


def test_invariants_malformed_input(tmp_path, capsys):
    bad = json.loads(open(SURFACE).read())
    bad["curves"][0]["ends"] = [["P0", 1], ["P0", 2]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["invariants", "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "P0" in err  # names the offending slot


def _set_genus(data, value):
    data["genus"] = value


def _set_slot(data, value):
    data["curves"][0]["ends"][1][1] = value


def _set_spiral_sign(data, value):
    data["pants"][0]["spiral_signs"]["2"] = value


def _set_orientation(data, value):
    data["pants"][0]["leaf_orientations"]["B13"] = value


def _set_distinguished(data, value):
    data["pants"][0].update(type="II", distinguished=value)


def _set_kind_I_distinguished(data, value):
    data["pants"][0]["distinguished"] = value


def _set_doubled_leaf_orientation(data, value):
    data["pants"][0].update(type="II", distinguished=1, leaf_orientations={"B11": value})


@pytest.mark.parametrize("command, source", [
    pytest.param("invariants", SURFACE, id="invariants"),
    pytest.param("realize", SLICE, id="realize"),
])
@pytest.mark.parametrize("set_field, value, field", [
    pytest.param(_set_genus, 2.9, "genus", id="genus"),
    pytest.param(_set_slot, 1.7, "curve 'C1' slot", id="slot"),
    pytest.param(_set_slot, True, "curve 'C1' slot", id="slot-bool"),
    pytest.param(_set_spiral_sign, 1.5, "pants 'P0' spiral sign 2", id="spiral-sign"),
    pytest.param(_set_spiral_sign, True, "pants 'P0' spiral sign 2", id="spiral-sign-bool"),
    pytest.param(_set_orientation, 1.0, "pants 'P0' orientation of B13", id="orientation"),
    pytest.param(_set_distinguished, 1.0, "pants 'P0' distinguished", id="distinguished"),
])
def test_integer_field_that_is_not_an_integer_exits_2(command, source, set_field, value, field,
                                                      tmp_path, capsys):
    # int() would truncate 2.9 and 1.7, and read true as 1
    bad = json.loads(open(source).read())
    set_field(bad, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {field} must be an integer, got {value!r}\n"
    assert list(tmp_path.iterdir()) == [path]


def _number_pants_id(data, value):
    data["pants"][0]["id"] = value
    for curve in data["curves"]:
        for end in curve["ends"]:
            if end[0] == "P0":
                end[0] = value


def _number_curve_id(data, value):
    data["curves"][0]["id"] = value


def _number_end_pants_id(data, value):
    data["curves"][0]["ends"][0][0] = value


def _rename_spiral_sign_key(data, value):
    signs = data["pants"][0]["spiral_signs"]
    signs[value] = signs.pop("2")


@pytest.mark.parametrize("command, source", [
    pytest.param("invariants", SURFACE, id="invariants"),
    pytest.param("realize", SLICE, id="realize"),
])
@pytest.mark.parametrize("set_field, value, message", [
    pytest.param(_number_pants_id, 0, "pants id must be a string, got 0", id="pants-id"),
    pytest.param(_number_curve_id, 1, "curve id must be a string, got 1", id="curve-id"),
    pytest.param(_number_end_pants_id, 0, "curve 'C1' pants id must be a string, got 0",
                 id="curve-end-pants-id"),
    pytest.param(_rename_spiral_sign_key, "x",
                 "pants 'P0' spiral_signs key must be a slot 1, 2 or 3, got 'x'",
                 id="spiral-sign-key"),
    pytest.param(_rename_spiral_sign_key, "02",
                 "pants 'P0' spiral_signs key must be a slot 1, 2 or 3, got '02'",
                 id="spiral-sign-key-padded"),
    pytest.param(_set_spiral_sign, 2,
                 "pants 'P0': spiral_signs must map slots 1, 2, 3 to +-1", id="spiral-sign"),
    pytest.param(_set_orientation, 2,
                 "pants 'P0': B13 orientation must be one of (3, 1)", id="orientation"),
    pytest.param(_set_distinguished, 4,
                 "pants 'P0': kind II needs a distinguished boundary 1, 2 or 3",
                 id="distinguished"),
    pytest.param(_set_kind_I_distinguished, 1,
                 "pants 'P0': kind I has no distinguished boundary", id="kind-I-distinguished"),
    pytest.param(_set_doubled_leaf_orientation, 2,
                 "pants 'P0': B11 orientation must be an end id 0 or 1",
                 id="doubled-leaf-orientation"),
])
def test_bad_id_or_lamination_field_is_named_and_exits_2(command, source, set_field, value,
                                                         message, tmp_path, capsys):
    # ids are JSON strings (a number id crashed the id sorting of the report),
    # and every lamination error of a pants entry names the pants
    bad = json.loads(open(source).read())
    set_field(bad, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source", [
    pytest.param("invariants", SURFACE, id="invariants"),
    pytest.param("realize", SLICE, id="realize"),
])
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d["curves"][0].update(ends=[["P0"], ["P1", 1]]),
                 "curve 'C1' ends must be a list of [pants id, slot] pairs, "
                 "got [['P0'], ['P1', 1]]", id="short-end"),
    pytest.param(lambda d: d["curves"][0].update(ends="P0"),
                 "curve 'C1' ends must be a list of [pants id, slot] pairs, got 'P0'",
                 id="ends-string"),
    pytest.param(lambda d: d["curves"][0].pop("ends"), "curve 'C1' has no 'ends'",
                 id="no-ends"),
    pytest.param(lambda d: d["curves"].__setitem__(1, "C2"),
                 "curve entry 1 must be a JSON object, got 'C2'", id="curve-string"),
    pytest.param(lambda d: d["curves"][0].pop("id"), "curve entry 0 has no 'id'",
                 id="no-curve-id"),
    pytest.param(lambda d: d["pants"][0].pop("type"), "pants 'P0' has no 'type'",
                 id="no-type"),
    pytest.param(lambda d: d["pants"].__setitem__(0, "P0"),
                 "pants entry 0 must be a JSON object, got 'P0'", id="pants-string"),
    pytest.param(lambda d: d["pants"][1].pop("id"), "pants entry 1 has no 'id'",
                 id="no-pants-id"),
    pytest.param(lambda d: d.pop("curves"), "surface data has no 'curves'", id="no-curves"),
    pytest.param(lambda d: d.update(pants={p["id"]: p for p in d["pants"]}),
                 "pants must be a JSON array, got a JSON object", id="pants-object"),
    pytest.param(lambda d: d.update(curves="C1"), "curves must be a JSON array, got 'C1'",
                 id="curves-string"),
    pytest.param(lambda d: d.update(pants=5), "pants must be a JSON array, got 5",
                 id="pants-number"),
    pytest.param(lambda d: d["pants"][1].update(id="P0"), "duplicate pants id 'P0'",
                 id="duplicate-pants-id"),
    pytest.param(lambda d: d["curves"][1].update(id="C1"), "duplicate curve id 'C1'",
                 id="duplicate-curve-id"),
])
def test_malformed_entry_is_named_and_exits_2(command, source, edit, message, tmp_path,
                                              capsys):
    # a pants or curve entry of the wrong shape, without a required key or
    # with the id of an earlier entry, is named with the field, not reported
    # as a bare index or key error, nor read over the earlier entry; a
    # "pants" or "curves" section that is not an array is never iterated
    bad = json.loads(open(source).read())
    edit(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source", [
    pytest.param("invariants", SURFACE, id="invariants"),
    pytest.param("realize", SLICE, id="realize"),
])
def test_surface_file_that_is_not_an_object_is_named_and_exits_2(command, source, tmp_path,
                                                                 capsys):
    # the error names the JSON type found rather than echoing the whole file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([json.loads(open(source).read())]))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == \
        "error: surface data must be a JSON object, got a JSON array\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["invariants", "realize"])
def test_deeply_nested_input_is_named_and_exits_2(command, tmp_path, capsys):
    # JSON nested past the parser's recursion limit is bad input, not a
    # failed verification: one error line that names the file
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == \
        f"error: input {str(path)!r} is nested too deeply to read as JSON\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["invariants", "realize"])
@pytest.mark.parametrize("content, reason", [
    pytest.param(b'{"genus": 2,', "Expecting property name enclosed in double quotes: "
                 "line 1 column 13 (char 12)", id="truncated"),
    pytest.param(b"", "Expecting value: line 1 column 1 (char 0)", id="empty"),
    pytest.param(b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                 "invalid start byte", id="not-utf-8"),
])
def test_input_that_is_not_json_is_named_and_exits_2(command, content, reason,
                                                      tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: input {str(path)!r} is not JSON: {reason}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source, section, key", [
    pytest.param("invariants", SURFACE, "twists", "CX", id="invariants-twists"),
    pytest.param("invariants", SURFACE, "shears", "PX", id="invariants-shears"),
    pytest.param("realize", SLICE, "gluing", "CX", id="realize-gluing"),
    pytest.param("realize", SLICE, "shears", "PX", id="realize-shears"),
])
def test_unknown_object_id_exits_2(command, source, section, key, tmp_path, capsys):
    bad = json.loads(open(source).read())
    bad[section][key] = dict(bad[section]["P0"]) if section == "shears" else 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"{section} names unknown" in err and repr(key) in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source, keys, value, name", [
    pytest.param("invariants", SURFACE, ("shears", "P0"), [0.8, 0.6, 1.1],
                 "shears of pants 'P0'", id="invariants-shears-entry"),
    pytest.param("invariants", SURFACE, ("shears",), [0.8], "shears", id="invariants-shears"),
    pytest.param("invariants", SURFACE, ("twists",), [1.0], "twists", id="invariants-twists"),
    pytest.param("invariants", SURFACE, ("pants", 0, "spiral_signs"), [1, 1, 1],
                 "spiral_signs of pants 'P0'", id="invariants-spiral-signs"),
    pytest.param("invariants", SURFACE, ("pants", 0, "leaf_orientations"), [1],
                 "leaf_orientations of pants 'P0'", id="invariants-leaf-orientations"),
    pytest.param("realize", SLICE, ("shears", "P1"), "B12", "shears of pants 'P1'",
                 id="realize-shears-entry"),
    pytest.param("realize", SLICE, ("gluing",), [1.0], "gluing", id="realize-gluing"),
    pytest.param("realize", SLICE, ("pants", 1, "spiral_signs"), 1,
                 "spiral_signs of pants 'P1'", id="realize-spiral-signs"),
    pytest.param("realize", SLICE, ("pants", 1, "leaf_orientations"), "B12",
                 "leaf_orientations of pants 'P1'", id="realize-leaf-orientations"),
])
def test_section_that_is_not_an_object_exits_2(command, source, keys, value, name,
                                               tmp_path, capsys):
    bad = json.loads(open(source).read())
    entry = bad
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    found = "a JSON array" if isinstance(value, list) else repr(value)
    assert capsys.readouterr().err == f"error: {name} must be a JSON object, got {found}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source, section, pants, key, value", [
    pytest.param("invariants", SURFACE, "shears", "P0", "B12", [0.8], id="invariants-shears"),
    pytest.param("invariants", SURFACE, "twists", None, "C1", [1.0], id="invariants-twists"),
    pytest.param("invariants", SURFACE, "twists", None, "C3", 10 ** 400,
                 id="invariants-twists-overflow"),
    pytest.param("realize", SLICE, "shears", "P1", "B23", {"x": 1}, id="realize-shears"),
    pytest.param("realize", SLICE, "gluing", None, "C1", [1.0], id="realize-gluing"),
    pytest.param("realize", SLICE, "gluing", None, "C2", None, id="realize-gluing-null"),
    # JSON true and false are not read as 1.0 and 0.0
    pytest.param("invariants", SURFACE, "shears", "P1", "B13", True, id="invariants-shears-true"),
    pytest.param("invariants", SURFACE, "twists", None, "C2", True, id="invariants-twists-true"),
    pytest.param("realize", SLICE, "shears", "P0", "B12", True, id="realize-shears-true"),
    pytest.param("realize", SLICE, "gluing", None, "C3", False, id="realize-gluing-false"),
    # a JSON string is not read as the number it spells
    pytest.param("invariants", SURFACE, "shears", "P0", "B23", "0.8",
                 id="invariants-shears-string"),
    pytest.param("invariants", SURFACE, "twists", None, "C1", "1", id="invariants-twists-string"),
    pytest.param("realize", SLICE, "shears", "P0", "B12", "0.8", id="realize-shears-string"),
    pytest.param("realize", SLICE, "gluing", None, "C1", " 0.3 ", id="realize-gluing-string"),
])
def test_section_value_that_is_not_a_number_exits_2(command, source, section, pants, key,
                                                    value, tmp_path, capsys):
    bad = json.loads(open(source).read())
    (bad[section] if pants is None else bad[section][pants])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    name = section if pants is None else f"{section} of pants {pants!r}"
    assert (f"error: {name} entry {key!r} must be a number, got {value!r}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source, section, pants, key, text", [
    pytest.param("invariants", SURFACE, "twists", None, "C1", "NaN", id="invariants-twists-nan"),
    pytest.param("invariants", SURFACE, "shears", "P0", "B12", "Infinity",
                 id="invariants-shears-inf"),
    pytest.param("realize", SLICE, "gluing", None, "C2", "-Infinity", id="realize-gluing-inf"),
    pytest.param("realize", SLICE, "shears", "P1", "B13", "NaN", id="realize-shears-nan"),
])
def test_section_value_that_is_not_finite_exits_2(command, source, section, pants, key, text,
                                                  tmp_path, capsys):
    # json reads NaN and Infinity as floats
    bad = json.loads(open(source).read())
    (bad[section] if pants is None else bad[section][pants])[key] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad).replace('"@"', text))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    name = section if pants is None else f"{section} of pants {pants!r}"
    value = float(text.replace("Infinity", "inf"))
    assert (f"error: {name} entry {key!r} must be a finite number, got {value!r}\n"
            == capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source, section, value, message", [
    pytest.param("invariants", SURFACE, "twists", 800.0,
                 "curve 'C1': twist 800 puts zl = -exp(2t) at infinity in double precision",
                 id="twist-zl-infinity"),
    pytest.param("invariants", SURFACE, "twists", -800.0,
                 "curve 'C1': twist -800 puts zl = -exp(2t) at 0 in double precision",
                 id="twist-zl-zero"),
    pytest.param("invariants", SURFACE, "twists", 360.0,
                 "double ratio D_1 at curve 'C1' is outside the double range: its log is 720 "
                 "at n = 3", id="twist-ratio-overflow"),
    pytest.param("invariants", SURFACE, "twists", -360.0,
                 "double ratio D_1 at curve 'C1' is outside the double range: its log is -720 "
                 "at n = 3", id="twist-ratio-subnormal"),
    pytest.param("realize", SLICE, "gluing", -800.0,
                 "curve 'C1': twist -400 puts zl = -exp(2t) at 0 in double precision",
                 id="gluing-zl-zero"),
    pytest.param("realize", SLICE, "gluing", 1600.0,
                 "curve 'C1': twist 800 puts zl = -exp(2t) at infinity in double precision",
                 id="gluing-zl-infinity"),
    pytest.param("realize", SLICE, "gluing", -720.0,
                 "curve 'C1': twist solve residual inf (relative) above 1e-09 at gluing -720.0",
                 id="gluing-residual-overflow"),
])
def test_huge_twist_or_gluing_is_a_named_error(command, source, section, value, message,
                                               tmp_path, capsys):
    bad = json.loads(open(source).read())
    bad[section]["C1"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("drop, message", [
    pytest.param(("gluing",), "missing gluing for curve 'C1'", id="no-gluing"),
    pytest.param(("shears",), "missing shears for pants 'P0'", id="no-shears"),
    pytest.param(("gluing", "C3"), "missing gluing for curve 'C3'", id="no-gluing-entry"),
])
def test_realize_names_a_missing_section(drop, message, tmp_path, capsys):
    bad = json.loads(open(SLICE).read())
    if len(drop) == 1:
        del bad[drop[0]]
    else:
        del bad[drop[0]][drop[1]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["realize", "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source, section, reader", [
    pytest.param("invariants", SLICE, "gluing", "realize", id="invariants-slice"),
    pytest.param("realize", SURFACE, "twists", "invariants", id="realize-surface"),
])
def test_section_the_other_command_reads_exits_2(command, source, section, reader,
                                                 tmp_path, capsys):
    # read as a surface, a slice file would be glued at twist 0 everywhere
    assert main([command, "--input", source, "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (f"error: input {source!r} has a {section!r} "
                                       f"section, which {reader} reads, not {command}\n")
    assert list(tmp_path.iterdir()) == []


def test_missing_twist_defaults_to_zero(tmp_path):
    data = json.loads(open(SURFACE).read())
    for twists, name in (({"C1": 0.15, "C3": 0.9}, "omitted"),
                         ({"C1": 0.15, "C2": 0.0, "C3": 0.9}, "zero")):
        data["twists"] = twists
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
        assert main(["invariants", "--input", str(tmp_path / f"{name}.json"), "--n", "3",
                     "--out", str(tmp_path / f"{name}-out")]) == 0
    assert ((tmp_path / "omitted-out.json").read_bytes()
            == (tmp_path / "zero-out.json").read_bytes())


def test_realize_command(tmp_path):
    prefix = str(tmp_path / "real")
    assert main(["realize", "--input", SLICE, "--n", "3", "--out", prefix]) == 0
    data = json.loads((tmp_path / "real.json").read_text())
    assert float(data["max_roundtrip_deviation"]) < 1e-9
    assert set(data["twists"]) == {"C1", "C2", "C3"}


def test_realize_rejects_invalid_slice_point(tmp_path, capsys):
    bad = json.loads(open(SLICE).read())
    bad["shears"]["P0"]["B12"] = -5.0
    path = tmp_path / "bad_slice.json"
    path.write_text(json.dumps(bad))
    assert main(["realize", "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert "P0" in capsys.readouterr().err


def test_realize_rejects_length_mismatch(tmp_path, capsys):
    bad = json.loads(open(SLICE).read())
    # boundary lengths (x12 + x13, x12 + x23, x13 + x23): only C1's differ
    bad["shears"]["P1"] = {"B12": 1.2, "B13": 1.2, "B23": 0.8}
    path = tmp_path / "bad_slice.json"
    path.write_text(json.dumps(bad))
    assert main(["realize", "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "curve 'C1': boundary lengths differ" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("suite, n, cases, ratio", [
    pytest.param("triple-ratio", 9, 20 * 28, "triple ratio", id="triple-n9"),
    pytest.param("double-ratio", 11, 20 * 10, "double ratio", id="double-n11"),
    pytest.param("triple-ratio", 10, 20 * 36, "triple ratio", id="triple-n10"),
])
def test_float_suite_breakdown_is_a_failed_case(suite, n, cases, ratio, tmp_path, capsys):
    # seed 1 draws configurations whose float wedge factors fall below the
    # 1e-12 genericity threshold at these ranks, the lowest at which the
    # orthonormal float basis breaks down; at n = 10 the triple-ratio suite
    # fails more than 20 cases, and the report keeps 20 messages and one "..."
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--float", "--n", str(n),
                 "--samples", "20", "--seed", "1", "--out", str(out)]) == 1
    assert f"[FAIL] {suite} cases={cases}" in capsys.readouterr().out
    (report,) = json.loads(out.read_text())
    assert report["passed"] is False and report["cases"] == cases
    message = (rf"^case \d+ [TD]_\d+: vanishing wedge factor in {ratio}: "
               rf"wedge \([\d, ]+\) is \S+, not above 1e-12 at n = {n}$")
    assert any(re.match(message, f) for f in report["failures"])
    assert report["failures"][20:] in ([], ["..."])


@pytest.mark.parametrize("seed", (1, 9, 10))
@pytest.mark.parametrize("suite, n", [("triple-ratio", 8), ("double-ratio", 10)])
def test_float_suite_passes_below_its_breakdown_rank(suite, n, seed, capsys):
    # the ranks and seeds whose cases fell under the genericity threshold in
    # the (b X - a Y) monomial basis, before its rows were made orthonormal
    assert main(["verify", "--suite", suite, "--float", "--n", str(n),
                 "--samples", "20", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.startswith(f"[PASS] {suite} ")


def test_verify_prints_every_stored_failure_line(tmp_path, capsys):
    # 40 samples at n = 9 fail more than 20 cases: stdout lists what the
    # report keeps, 20 messages and one "...", line for line as its JSON
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "triple-ratio", "--float", "--n", "9",
                 "--samples", "40", "--out", str(out)]) == 1
    head, *lines = capsys.readouterr().out.splitlines()
    (report,) = json.loads(out.read_text())
    assert head.startswith("[FAIL] triple-ratio ")
    assert len(report["failures"]) == 21 and report["failures"][-1] == "..."
    assert lines == [f"    {f}" for f in report["failures"]]


def test_deviation_above_tolerance_is_a_failed_case(monkeypatch, tmp_path, capsys):
    # every recovered shear off by 0.5: the pants suite fails those cases,
    # one per leaf, names each with its deviation and still counts the rest
    shear = verification.shear_from_quadruple
    monkeypatch.setattr(verification, "shear_from_quadruple", lambda *q: shear(*q) + 0.5)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "pants", "--samples", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith("[FAIL] pants cases=126 worst=0.5\n")
    (report,) = json.loads(out.read_text())
    assert report["failures"][:3] == [f"I/None/(1, 1, 1) case 0 shear {leaf}: deviation 0.5"
                                      for leaf in ("B12", "B13", "B23")]
    assert len(report["failures"]) == 21 and report["failures"][-1] == "..."


def test_outputs_are_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (p1, p2):
        assert main(["realize", "--input", SLICE, "--n", "3", "--out", prefix]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_reports_are_one_line_of_sorted_compact_json(tmp_path):
    outputs = [tmp_path / "verify.json", tmp_path / "inv.json", tmp_path / "real.json"]
    assert main(["verify", "--suite", "all", "--samples", "2", "--max", "2",
                 "--out", str(outputs[0])]) == 0
    assert main(["invariants", "--input", SURFACE, "--n", "3",
                 "--out", str(tmp_path / "inv")]) == 0
    assert main(["realize", "--input", SLICE, "--n", "3", "--out", str(tmp_path / "real")]) == 0
    for path in outputs:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_verify_reports_are_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    for out in (p1, p2):
        assert main(["verify", "--suite", "pants", "--samples", "3",
                     "--seed", "11", "--out", out]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


@st.composite
def pants_laminations(draw):
    """Either kind, any distinguished slot and spiral signs, and each leaf
    oriented either way or left to its default orientation."""
    kind = draw(st.sampled_from(("I", "II")))
    distinguished = draw(st.sampled_from(SLOTS)) if kind == "II" else None
    signs = {slot: draw(st.sampled_from((1, -1))) for slot in SLOTS}
    bare = PantsLamination(kind, signs, {}, distinguished)
    orientations = {}
    for leaf in bare.leaves():
        ends = bare.leaf_end_slots(leaf)
        value = draw(st.none() | st.sampled_from((0, 1) if ends[0] == ends[1] else ends))
        if value is not None:
            orientations[leaf] = value
    return PantsLamination(kind, signs, orientations, distinguished)


@st.composite
def genus2_specs(draw):
    """Two pants glued along three curves in any way: the six boundaries are
    paired off in a random order, the first of each pair the curve's left end."""
    ids = st.text(min_size=1, max_size=3)
    pids = draw(st.lists(ids, min_size=2, max_size=2, unique=True))
    cids = draw(st.lists(ids, min_size=3, max_size=3, unique=True))
    ends = draw(st.permutations([(pid, slot) for pid in pids for slot in SLOTS]))
    return SurfaceSpec(genus=2, pants={pid: draw(pants_laminations()) for pid in pids},
                       curves={cid: (ends[2 * i], ends[2 * i + 1])
                               for i, cid in enumerate(cids)})


@given(genus2_specs())
def test_spec_dict_round_trip(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


class _Deleted:
    def __repr__(self):
        return "<deleted>"


DELETED = _Deleted()
JSON_VALUES = (None, True, False, 0, 7, -2, 0.3, 1e308, -1e308, float("nan"), "P0", "0.8",
               [], {}, DELETED)


def field_paths(doc, path=()):
    """The key path of every value inside a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


EXAMPLES = {"invariants": pathlib.Path(SURFACE).read_text(),
            "realize": pathlib.Path(SLICE).read_text()}
FIELDS = [(command, path) for command, text in EXAMPLES.items()
          for path in field_paths(json.loads(text))]


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(JSON_VALUES))
def test_any_one_field_of_an_example_input_exits_0_or_2(field, value):
    # one property over field path x JSON value in place of more hand-listed
    # cases: whatever one field holds, the command answers and never raises
    command, path = field
    data = json.loads(EXAMPLES[command])
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    if value is DELETED:
        del entry[path[-1]]
    else:
        entry[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        assert main([command, "--input", bad, "--n", "3",
                     "--out", os.path.join(tmp, "x")]) in (0, 2)


def example_inputs_script(data, monkeypatch):
    """The example-input script, loaded as a module that writes into ``data``."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "write_example_inputs.py")
    loader = importlib.util.spec_from_file_location("write_example_inputs", script)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    monkeypatch.setattr(module, "DATA", str(data))
    return module


def test_example_inputs_are_what_the_script_writes(tmp_path, monkeypatch):
    module = example_inputs_script(tmp_path, monkeypatch)
    module.main([])
    shipped = sorted(name for name in os.listdir(DATA) if name.endswith(".json"))
    assert sorted(os.listdir(tmp_path)) == shipped
    for name in shipped:
        with open(os.path.join(DATA, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["--out", "x"], 2)],
                         ids=("help", "unknown-option"))
def test_example_inputs_script_writes_nothing_on_help_or_a_bad_option(
        argv, status, tmp_path, monkeypatch, capsys):
    module = example_inputs_script(tmp_path, monkeypatch)
    with pytest.raises(SystemExit) as caught:
        module.main(argv)
    assert caught.value.code == status
    out, err = capsys.readouterr()
    assert os.listdir(tmp_path) == [] and "wrote" not in out
    assert "usage:" in (out if status == 0 else err)
    if status == 0:
        assert "Regenerate the example input files" in out


def test_demo_script_runs(monkeypatch, capsys):
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "genus2_demo.py")
    monkeypatch.setattr(sys, "argv", [script, "--n", "3"])
    runpy.run_path(script, run_name="__main__")
    assert "slice membership: True" in capsys.readouterr().out


def test_unknown_curve_keys_are_ignored(tmp_path):
    # a curve entry with a key the reader does not know reports as before
    data = json.loads(open(SURFACE).read())
    assert main(["invariants", "--input", SURFACE, "--n", "3",
                 "--out", str(tmp_path / "plain")]) == 0
    for curve in data["curves"]:
        curve["short_arc"] = {"left_triangle": 1, "right_triangle": 1}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    assert main(["invariants", "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "extra")]) == 0
    for ext in ("json", "csv"):
        assert ((tmp_path / f"plain.{ext}").read_bytes()
                == (tmp_path / f"extra.{ext}").read_bytes())


def test_spec_from_dict_rejects_missing_fields():
    with pytest.raises((SurfaceSpecError, KeyError)):
        spec_from_dict({"genus": 2, "pants": []})


@pytest.mark.parametrize("command, source", [
    pytest.param("invariants", SURFACE, id="invariants"),
    pytest.param("realize", SLICE, id="realize"),
])
def test_unknown_leaf_key_names_the_pants(command, source, tmp_path, capsys):
    # the shears of a pants are checked against its leaves once, where the
    # pants is developed, so both commands name the pants the same way
    bad = json.loads(open(source).read())
    bad["shears"]["P0"]["B21"] = bad["shears"]["P0"].pop("B12")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command, "--input", str(path), "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "error: pants 'P0': shears keyed ['B13', 'B21', 'B23'], "
        "lamination has leaves ['B12', 'B13', 'B23']\n")
    assert list(tmp_path.iterdir()) == [path]


def test_unreachable_twist_exits_2(monkeypatch, tmp_path, capsys):
    # a twist solve off by 1e-6 misses C2's target gluing cross ratio
    solve = bd.solve_twist
    monkeypatch.setattr(bd, "solve_twist", lambda w: solve(w) + (1e-6 if w == 0.7 else 0.0))
    assert main(["realize", "--input", SLICE, "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: curve 'C2': twist solve residual 9\.93e-07 \(relative\) "
                        r"above 1e-09 at gluing 0\.7\n", err), err
    assert list(tmp_path.iterdir()) == []


def test_plaque_on_the_wrong_side_of_its_axis_exits_2(monkeypatch, tmp_path, capsys):
    # swapped fixed points put every fan plaque on the wrong side of its axis;
    # the first checked is the triangle-0 plaque of boundary 1 of pants P0
    axis = surfaces.axis_data
    monkeypatch.setattr(surfaces, "axis_data", lambda m: (lambda a, r, l: (r, a, l))(*axis(m)))
    assert main(["invariants", "--input", SURFACE, "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "error: pants 'P0': boundary 1: the short-arc vertex of triangle 0 "
        "developed on the wrong side of the axis\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# one parser per process: each call of ``main`` reads the parser the first
# call built, so nothing one call parses may show in the next


def fresh_process(argv, cwd):
    """``bdcoords`` run in a process of its own, with its stdout, stderr and
    exit code; help is formatted at the width of a terminal-less process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "bdcoords.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"),
                          capture_output=True, text=True, timeout=60)


def test_build_parser_returns_one_parser():
    parser = build_parser()
    assert main(["verify", "--suite", "pants", "--samples", "1"]) == 0
    assert build_parser() is parser


def test_verify_options_do_not_carry_to_the_next_call(tmp_path, monkeypatch, capsys):
    # a plain call after one that set every option reports the defaults,
    # and prints and writes what a fresh process does
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "triple-ratio", "--n", "4", "--samples", "2",
                 "--seed", "5", "--float", "--out", "report.json"]) == 0
    assert json.loads((tmp_path / "report.json").read_text())[0]["params"] == {
        "n": 4, "samples": 2, "seed": 5, "mode": "float"}
    capsys.readouterr()
    argv = ["verify", "--suite", "triple-ratio", "--out", "report.json"]
    assert main(argv) == 0
    report = (tmp_path / "report.json").read_text()
    assert json.loads(report)[0]["params"] == {
        "n": 3, "samples": verification.DEFAULT_SAMPLES, "seed": verification.DEFAULT_SEED,
        "mode": "exact"}
    fresh = fresh_process(argv, tmp_path / "fresh")
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, *capsys.readouterr())
    assert (tmp_path / "fresh" / "report.json").read_text() == report
    args = build_parser().parse_args(["verify", "--suite", "triple-ratio"])
    assert [getattr(args, opt) for opt in ("n", "samples", "seed", "max", "mode", "out")] == [
        None] * 6


def test_a_call_after_an_argparse_refusal_runs_as_in_a_fresh_process(tmp_path, monkeypatch,
                                                                     capsys):
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path)
    refused = ["invariants", "--input", SURFACE, "--n", "3", "--tol", "1e-9"]
    with pytest.raises(SystemExit) as exit_:
        main(refused)
    fresh = fresh_process(refused, tmp_path / "fresh")
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
        exit_.value.code, *capsys.readouterr())
    argv = ["invariants", "--input", SURFACE, "--n", "3"]
    assert main(argv) == 0
    fresh = fresh_process(argv, tmp_path / "fresh")
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, *capsys.readouterr())
    for name in ("invariants.json", "invariants.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_threads_parsing_with_the_shared_parser_keep_their_own_options():
    # more threads than cores, switching as often as the interpreter allows:
    # a parse that leaked into another thread's namespace would show there
    argvs = [["verify", "--suite", "triple-ratio", "--n", str(n), "--float"]
             for n in range(3, 7)] + [["invariants", "--input", SURFACE, "--n", "8"]]
    expected = [vars(build_parser.__wrapped__().parse_args(argv)) for argv in argvs]
    wrong = []

    def parse(argv, want):
        for _ in range(200):
            got = vars(build_parser().parse_args(argv))
            if got != want:
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=pair) for pair in zip(argvs, expected)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("command", [[], ["verify"], ["invariants"], ["realize"]],
                         ids=lambda command: " ".join(command) or "top")
def test_help_after_other_calls_is_a_fresh_parsers_help(command, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "pants", "--samples", "1", "--seed", "3"]) == 0
    assert main(["realize", "--input", SLICE, "--n", "3"]) == 0
    assert main(["verify", "--suite", "pants", "--float"]) == 2
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "triple-ratio", "--float", "--exact"])
    capsys.readouterr()
    helps = []
    for parse in (main, build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exit_:
            parse([*command, "--help"])
        helps.append((exit_.value.code, *capsys.readouterr()))
    fresh = fresh_process([*command, "--help"], tmp_path)
    assert helps[0] == helps[1] == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: bdcoords ")


# the closed-leaf verdict: ``holds`` is max_deviation <= bd.TOL, judged apart
# from polytope membership (R_p = L_p > 0)


def boundary_length_input(path, scale: float, seed: int = 1, section: str = "twists") -> str:
    """The spec and spiral signs of the genus-2 sample of ``seed``, boundary
    lengths (L, 1.1 L, 0.9 L) at L = ``scale`` and 0.15 on every curve in
    ``section`` ("twists" for ``invariants``, "gluing" for ``realize``),
    written as a surface file."""
    spec, _, _ = verification.sample_genus2(random.Random(seed))
    lengths = (scale, 1.1 * scale, 0.9 * scale)
    shears = {pid: verification.shears_from_lengths(
        [lam.spiral_signs[s] for s in SLOTS], lengths) for pid, lam in spec.pants.items()}
    path.write_text(json.dumps({**spec_to_dict(spec), "shears": shears,
                                section: {cid: 0.15 for cid in spec.curves}}))
    return str(path)


@pytest.mark.parametrize("length, n, holds", [
    pytest.param(None, 3, True, id="example-n3"),
    pytest.param(None, 8, True, id="example-n8"),
    pytest.param(11.0, 5, True, id="length-11"),
    # developing in doubles drifts past TOL at L = 12 (4.0e-9), though every
    # R_p and L_p still agree to TOL and are positive
    pytest.param(12.0, 5, False, id="length-12"),
])
def test_closed_leaf_verdict_is_the_deviation_against_tol(length, n, holds, tmp_path):
    source = SURFACE if length is None else boundary_length_input(tmp_path / "in.json", length)
    assert main(["invariants", "--input", source, "--n", str(n),
                 "--out", str(tmp_path / "inv")]) == 0
    data = json.loads((tmp_path / "inv.json").read_text())
    closed_leaf = data["closed_leaf"]
    assert closed_leaf["holds"] is holds
    assert (float(closed_leaf["max_deviation"]) <= bd.TOL) is holds
    assert data["polytope_membership"] is True and data["slice_membership"] is True


SINGULAR_DECK = "boundary 2: the deck map of its fan came out singular in double precision"


@pytest.mark.parametrize("length, seed, command, message", [
    # the developed boundary length drifts off its shear sum by more than its
    # 1e-8 self-check (ROADMAP item 14 moves this edge)
    pytest.param(15.0, 1, "invariants", r"developed length 15\.0000\d+ of boundary 1 does "
                                        r"not match shear sum -15\.0", id="length-15"),
    # a plaque of the fan of boundary 1 lands past its edge, which left a
    # holonomy of det < 0 that only trace normalization refused
    pytest.param(28.0, 1, "invariants",
                 "leaf B12: the plaque developed across it is not counterclockwise",
                 id="length-28"),
    pytest.param(30.0, 1, "invariants",
                 "leaf B12: the plaque developed across it is not counterclockwise",
                 id="length-30"),
    # the last plaque of the fan of boundary 2 gives a deck map of determinant
    # 0 in doubles, which was the bare "singular matrix is not a Moebius map"
    pytest.param(21.5, 5, "invariants", SINGULAR_DECK, id="seed-5-length-21.5-invariants"),
    pytest.param(21.5, 5, "realize", SINGULAR_DECK, id="seed-5-length-21.5-realize"),
])
def test_developing_breakdown_names_the_pants_and_what_failed(length, seed, command, message,
                                                              tmp_path, capsys):
    section = "gluing" if command == "realize" else "twists"
    source = boundary_length_input(tmp_path / "in.json", length, seed, section)
    assert main([command, "--input", source, "--n", "5",
                 "--out", str(tmp_path / "inv")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: pants 'P0': {message}\n", err), err
    assert list(tmp_path.iterdir()) == [tmp_path / "in.json"]
