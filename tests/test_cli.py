import importlib.util
import inspect
import json
import os
import re

import pytest
from hypothesis import given, strategies as st

from bdcoords import bd, surfaces, verification
from bdcoords.cli import main, spec_from_dict, spec_to_dict
from bdcoords.surfaces import SLOTS, PantsLamination, SurfaceSpec, SurfaceSpecError

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
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
    assert capsys.readouterr().err == f"error: {name} must be a JSON object, got {value!r}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, source, section, pants, key, value", [
    pytest.param("invariants", SURFACE, "shears", "P0", "B12", [0.8], id="invariants-shears"),
    pytest.param("invariants", SURFACE, "twists", None, "C1", [1.0], id="invariants-twists"),
    pytest.param("invariants", SURFACE, "twists", None, "C3", 10 ** 400,
                 id="invariants-twists-overflow"),
    pytest.param("realize", SLICE, "shears", "P1", "B23", {"x": 1}, id="realize-shears"),
    pytest.param("realize", SLICE, "gluing", None, "C1", [1.0], id="realize-gluing"),
    pytest.param("realize", SLICE, "gluing", None, "C2", None, id="realize-gluing-null"),
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
                 "curve C1: twist 800 puts zl = -exp(2t) at infinity in double precision",
                 id="twist-zl-infinity"),
    pytest.param("invariants", SURFACE, "twists", -800.0,
                 "curve C1: twist -800 puts zl = -exp(2t) at 0 in double precision",
                 id="twist-zl-zero"),
    pytest.param("invariants", SURFACE, "twists", 360.0,
                 "double ratio D_1 at curve C1 is outside the double range: its log is 720 "
                 "at n = 3", id="twist-ratio-overflow"),
    pytest.param("invariants", SURFACE, "twists", -360.0,
                 "double ratio D_1 at curve C1 is outside the double range: its log is -720 "
                 "at n = 3", id="twist-ratio-subnormal"),
    pytest.param("realize", SLICE, "gluing", -800.0,
                 "curve C1: twist -400 puts zl = -exp(2t) at 0 in double precision",
                 id="gluing-zl-zero"),
    pytest.param("realize", SLICE, "gluing", 1600.0,
                 "curve C1: twist 800 puts zl = -exp(2t) at infinity in double precision",
                 id="gluing-zl-infinity"),
    pytest.param("realize", SLICE, "gluing", -720.0,
                 "curve C1: twist solve residual inf (relative) above 1e-09 at gluing -720.0",
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
    assert "curve C1: boundary lengths differ" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("suite, n, cases, ratio", [
    pytest.param("triple-ratio", 8, 20 * 21, "triple ratio", id="triple-n8"),
    pytest.param("double-ratio", 10, 20 * 9, "double ratio", id="double-n10"),
    pytest.param("triple-ratio", 10, 20 * 36, "triple ratio", id="triple-n10"),
])
def test_float_suite_breakdown_is_a_failed_case(suite, n, cases, ratio, tmp_path, capsys):
    # seed 1 draws configurations whose float wedge factors fall below the
    # 1e-12 genericity threshold at these ranks; at n = 10 the triple-ratio
    # suite fails more than 20 cases, and the report keeps 20 messages and
    # one "..."
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--float", "--n", str(n),
                 "--samples", "20", "--seed", "1", "--out", str(out)]) == 1
    assert f"[FAIL] {suite} cases={cases}" in capsys.readouterr().out
    (report,) = json.loads(out.read_text())
    assert report["passed"] is False and report["cases"] == cases
    assert any(f.startswith("case ") and f.endswith(f"vanishing wedge factor in {ratio} at n = {n}")
               for f in report["failures"])
    assert report["failures"][20:] in ([], ["..."])


def test_outputs_are_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (p1, p2):
        assert main(["realize", "--input", SLICE, "--n", "3", "--out", prefix]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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


def test_example_inputs_are_what_the_script_writes(tmp_path, monkeypatch):
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "write_example_inputs.py")
    loader = importlib.util.spec_from_file_location("write_example_inputs", script)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    monkeypatch.setattr(module, "DATA", str(tmp_path))
    module.main()
    shipped = sorted(name for name in os.listdir(DATA) if name.endswith(".json"))
    assert sorted(os.listdir(tmp_path)) == shipped
    for name in shipped:
        with open(os.path.join(DATA, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


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
        "error: pants P0: shears keyed ['B13', 'B21', 'B23'], "
        "lamination has leaves ['B12', 'B13', 'B23']\n")
    assert list(tmp_path.iterdir()) == [path]


def test_unreachable_twist_exits_2(monkeypatch, tmp_path, capsys):
    # a twist solve off by 1e-6 misses C2's target gluing cross ratio
    solve = bd.solve_twist
    monkeypatch.setattr(bd, "solve_twist", lambda w: solve(w) + (1e-6 if w == 0.7 else 0.0))
    assert main(["realize", "--input", SLICE, "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: curve C2: twist solve residual 9\.93e-07 \(relative\) "
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
        "error: pants P0: boundary 1: the short-arc vertex of triangle 0 "
        "developed on the wrong side of the axis\n")
    assert list(tmp_path.iterdir()) == []
