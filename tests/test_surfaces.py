import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from bdcoords import bd, surfaces
from bdcoords.cli import main
from bdcoords.halfplane import ProjPoint, axis_data, orientation, shear_from_quadruple
from bdcoords.surfaces import (SLOTS, AssemblyError, LaminationError,
                               PantsLamination, SurfaceSpec,
                               SurfaceSpecError, assemble_surface,
                               boundary_lengths, develop_pants, fan_cycle,
                               genus2_spec, solve_twist, validate_shears)
from bdcoords.verification import (DEFAULT_SAMPLES, DEFAULT_SEED, lamination_variants,
                                   sample_genus2, sample_valid_shears)

SURFACE = os.path.join(os.path.dirname(__file__), os.pardir, "data", "genus2_surface.json")


def lam_I(s1=1, s2=1, s3=1):
    return PantsLamination(kind="I", spiral_signs={1: s1, 2: s2, 3: s3},
                           leaf_orientations={})


def lam_II(dist=1, sd=1):
    signs = {s: 1 for s in (1, 2, 3)}
    signs[dist] = sd
    return PantsLamination(kind="II", spiral_signs=signs, leaf_orientations={},
                           distinguished=dist)


def shears_I(x12, x13, x23):
    return {"B12": x12, "B13": x13, "B23": x23}


# -- lamination combinatorics ------------------------------------------------

def test_leaf_sets():
    assert set(lam_I().leaves()) == {"B12", "B13", "B23"}
    assert set(lam_II(1).leaves()) == {"B11", "B12", "B13"}
    assert set(lam_II(3).leaves()) == {"B33", "B13", "B23"}


def test_fan_cycles_type_I():
    lam = lam_I()
    assert [s.leaf for s in fan_cycle(lam, 1)] == ["B13", "B12"]
    assert [s.leaf for s in fan_cycle(lam, 2)] == ["B12", "B23"]
    assert [s.leaf for s in fan_cycle(lam, 3)] == ["B23", "B13"]
    # walked once with the tables of the kind, shared and immutable
    assert type(fan_cycle(lam, 1)) is tuple
    assert fan_cycle(lam, 1) is fan_cycle(lam_I(-1, 1, -1), 1)


def test_fan_cycles_type_II():
    lam = lam_II(1)
    assert sorted(s.leaf for s in fan_cycle(lam, 1)) == ["B11", "B11", "B12", "B13"]
    assert [s.leaf for s in fan_cycle(lam, 2)] == ["B12"]
    assert [s.leaf for s in fan_cycle(lam, 3)] == ["B13"]


@pytest.mark.parametrize("kind, dist, leaves", [
    pytest.param("I", None, ("B12", "B13", "B23"), id="I"),
    pytest.param("II", 1, ("B11", "B12", "B13"), id="II-1"),
    pytest.param("II", 2, ("B22", "B23", "B12"), id="II-2"),
    pytest.param("II", 3, ("B33", "B13", "B23"), id="II-3"),
])
def test_lamination_tables(kind, dist, leaves):
    # the tables are built once, at import, and nothing checks them at run
    # time: each fan must walk every spike corner of its boundary once and
    # close up, the leaf order is the order shears are sampled in, and the
    # first leaf's side A, on triangle 0, leads to triangle 1
    tables = surfaces._TABLES[(kind, dist)]
    lam = lam_I() if kind == "I" else lam_II(dist)
    assert surfaces.tables_for(lam) is tables
    assert lam.leaves() == tuple(tables.leaf_sides) == leaves
    for slot in SLOTS:
        steps = fan_cycle(lam, slot)
        assert steps is tables.fans[slot]
        visited = [(step.tri, step.corner) for step in steps]
        assert sorted(visited) == sorted(c for c, s in tables.corner_slot.items() if s == slot)
        for step, nxt in zip(steps, steps[1:] + steps[:1]):
            other = tables.leaf_sides[step.leaf][step.fan_end]
            assert (other.tri, other.corners[0]) == (nxt.tri, nxt.corner)
    side_a, side_b = tables.leaf_sides[leaves[0]]
    assert (side_a.tri, side_b.tri) == (0, 1)


def test_lamination_validation():
    with pytest.raises(LaminationError):
        PantsLamination(kind="II", spiral_signs={1: 1, 2: 1, 3: 1},
                        leaf_orientations={})  # missing distinguished
    with pytest.raises(LaminationError):
        PantsLamination(kind="I", spiral_signs={1: 2, 2: 1, 3: 1},
                        leaf_orientations={})
    with pytest.raises(LaminationError):
        PantsLamination(kind="I", spiral_signs={1: 1, 2: 1, 3: 1},
                        leaf_orientations={"B99": 1})


# -- shear ranges and boundary lengths ---------------------------------------

def test_validate_shears_type_I():
    lam = lam_I()
    assert validate_shears(lam, shears_I(1, 1, 1))
    assert not validate_shears(lam, shears_I(1, 1, -2))  # slots 2 and 3 fail
    assert not validate_shears(lam, shears_I(math.nan, 1, 1))   # NaN is out of range


def test_validate_shears_type_II():
    lam = lam_II(1)
    ok = {"B11": 0.5, "B12": 1.0, "B13": 1.0}
    bad = {"B11": 0.5, "B12": -1.0, "B13": 1.0}
    assert validate_shears(lam, ok)
    assert not validate_shears(lam, bad)
    assert not validate_shears(lam, {**ok, "B13": math.nan})


def test_boundary_lengths_symmetric():
    s = 0.7
    lengths = boundary_lengths(lam_I(), shears_I(s, s, s))
    for slot in (1, 2, 3):
        assert lengths[slot] == pytest.approx(2 * s)


def test_boundary_lengths_asymmetric():
    lengths = boundary_lengths(lam_I(), shears_I(1.0, 3.0, 2.0))
    assert lengths[1] == pytest.approx(4.0)  # |x12 + x13|
    assert lengths[2] == pytest.approx(3.0)  # |x12 + x23|
    assert lengths[3] == pytest.approx(5.0)  # |x13 + x23|


def test_boundary_lengths_type_II_counts_doubled_leaf_twice():
    lam = lam_II(1)
    s = {"B11": 0.3, "B12": 0.9, "B13": 0.5}
    lengths = boundary_lengths(lam, s)
    assert lengths[1] == pytest.approx(2 * 0.3 + 0.9 + 0.5)
    assert lengths[2] == pytest.approx(0.9)
    assert lengths[3] == pytest.approx(0.5)


def test_boundary_lengths_rejects_invalid():
    with pytest.raises(LaminationError):
        boundary_lengths(lam_I(), shears_I(1, 1, -2))


def test_boundary_lengths_add_each_fan_left_to_right():
    # on the samples of `verify --suite pants` at its defaults, every length
    # is the plain left-to-right sum of its fan's shears, bit for bit:
    # Python 3.12's sum() compensates, and moved 241 of these 8 400 lengths
    rng = random.Random(DEFAULT_SEED)
    for lam in lamination_variants():
        for _ in range(DEFAULT_SAMPLES):
            s = sample_valid_shears(rng, lam)
            expected = {}
            for slot in SLOTS:
                total = 0.0
                for step in fan_cycle(lam, slot):
                    total = total + s[step.leaf]
                expected[slot] = abs(total)
            assert boundary_lengths(lam, s) == expected


# -- developing ---------------------------------------------------------------

def test_develop_symmetric_pants_lengths():
    s = 0.9
    dp = develop_pants(lam_I(), shears_I(s, s, s))
    for slot in (1, 2, 3):
        att, rep, length = axis_data(dp.fans[slot].deck)
        assert length == pytest.approx(2 * s, abs=1e-12)


def test_develop_shear_round_trip():
    dp = develop_pants(lam_I(), shears_I(0.4, 1.3, 0.8))
    for leaf, expected in (("B12", 0.4), ("B13", 1.3), ("B23", 0.8)):
        q = dp.leaf_quadruples[leaf]
        back = shear_from_quadruple(q.y, q.zr, q.x, q.zl)
        assert back == pytest.approx(expected, abs=1e-12)


def test_develop_rejects_invalid_shears():
    with pytest.raises(LaminationError):
        develop_pants(lam_I(), shears_I(1, 1, -2))


def test_develop_base_chart_equivariance():
    # a different counterclockwise base placement gives the same invariants
    s = {"B12": 0.5, "B13": 0.7, "B23": 1.2}
    dp1 = develop_pants(lam_I(), s)
    base = (ProjPoint(-2.0, 1.0), ProjPoint(0.5, 1.0), ProjPoint(4.0, 1.0))
    dp2 = develop_pants(lam_I(), s, base_points=base)
    for slot in (1, 2, 3):
        assert dp1.fans[slot].length == pytest.approx(dp2.fans[slot].length, abs=1e-10)
    for leaf in ("B12", "B13", "B23"):
        q1, q2 = dp1.leaf_quadruples[leaf], dp2.leaf_quadruples[leaf]
        s1 = shear_from_quadruple(q1.y, q1.zr, q1.x, q1.zl)
        s2 = shear_from_quadruple(q2.y, q2.zr, q2.x, q2.zl)
        assert s1 == pytest.approx(s2, abs=1e-10)


def test_develop_rejects_clockwise_base():
    s = shears_I(1, 1, 1)
    base = (ProjPoint(4.0, 1.0), ProjPoint(0.5, 1.0), ProjPoint(-2.0, 1.0))
    with pytest.raises(AssemblyError):
        develop_pants(lam_I(), s, base_points=base)


def test_leaf_orientation_reversal_swaps_roles():
    s = {"B12": 0.5, "B13": 0.7, "B23": 1.2}
    fwd = PantsLamination(kind="I", spiral_signs={1: 1, 2: 1, 3: 1},
                          leaf_orientations={"B12": 1})
    rev = PantsLamination(kind="I", spiral_signs={1: 1, 2: 1, 3: 1},
                          leaf_orientations={"B12": 2})
    q_f = develop_pants(fwd, s).leaf_quadruples["B12"]
    q_r = develop_pants(rev, s).leaf_quadruples["B12"]
    assert q_f.x == q_r.y and q_f.y == q_r.x
    assert q_f.zl == q_r.zr and q_f.zr == q_r.zl


def test_develop_all_variants_prop_2_6():
    rng = random.Random(17)
    for lam in lamination_variants():
        s = sample_valid_shears(rng, lam)
        dp = develop_pants(lam, s)
        expected = boundary_lengths(lam, s)
        for slot in (1, 2, 3):
            assert dp.fans[slot].length == pytest.approx(
                expected[slot], abs=1e-10)


def _distance_to_identity(m):
    """max |entry of m -+ I| for the nearer sign: m is +-I projectively."""
    (a, b), (c, d) = m.m
    return min(max(abs(a - e), abs(b), abs(c), abs(d - e)) for e in (1.0, -1.0))


def test_pants_relation_of_the_fan_deck_maps():
    # applied in the counterclockwise order of the fans' base spikes, the
    # three deck maps compose to +-I: D3 D2 D1 in kind I, D1 D2 D3 in kind II
    rng = random.Random(23)
    for lam in lamination_variants():
        for _ in range(30):
            fans = develop_pants(lam, sample_valid_shears(rng, lam)).fans
            d1, d2, d3 = (fans[slot].deck for slot in (1, 2, 3))
            forward, backward = d3 @ d2 @ d1, d1 @ d2 @ d3
            relation, other = (forward, backward) if lam.kind == "I" else (backward, forward)
            assert _distance_to_identity(relation) < 1e-9, lam
            assert _distance_to_identity(other) > 1e-3, lam


# -- surface spec -------------------------------------------------------------

def test_genus2_spec_is_valid():
    spec = genus2_spec()
    assert len(spec.pants) == 2 and len(spec.curves) == 3


def test_spec_detects_double_gluing():
    pants = {"P0": lam_I(), "P1": lam_I()}
    curves = {
        "C1": (("P0", 1), ("P1", 1)),
        "C2": (("P0", 2), ("P1", 2)),
        "C3": (("P0", 2), ("P1", 3)),
    }
    with pytest.raises(SurfaceSpecError, match=r"\('P0', 2\) glued by both 'C2' and 'C3'"):
        SurfaceSpec(genus=2, pants=pants, curves=curves)


def test_spec_detects_unknown_pants():
    pants = {"P0": lam_I(), "P1": lam_I()}
    curves = {
        "C1": (("P0", 1), ("P9", 1)),
        "C2": (("P0", 2), ("P1", 2)),
        "C3": (("P0", 3), ("P1", 3)),
    }
    with pytest.raises(SurfaceSpecError, match="P9"):
        SurfaceSpec(genus=2, pants=pants, curves=curves)


# -- assembly -----------------------------------------------------------------

def _simple_assembly(twists=None):
    spec = genus2_spec()
    shears = {"P0": {"B12": 0.8, "B13": 0.6, "B23": 1.1},
              "P1": {"B12": 0.8, "B13": 0.6, "B23": 1.1}}
    return assemble_surface(spec, shears, twists or {})


def test_assembly_lengths_match_both_sides():
    ds = _simple_assembly()
    for cid, chart in ds.curves.items():
        assert chart.length > 0
        for side in ("left", "right"):
            pid, slot = ds.spec.side(cid, side)
            att, rep, length = axis_data(ds.pants[pid].fans[slot].deck)
            assert length == pytest.approx(chart.length, rel=1e-9)


def test_assembly_rejects_length_mismatch():
    spec = genus2_spec()
    shears = {"P0": {"B12": 1.0, "B13": 1.0, "B23": 1.0},
              "P1": {"B12": 2.0, "B13": 2.0, "B23": 2.0}}
    with pytest.raises(AssemblyError, match="C1"):
        assemble_surface(spec, shears, {})


def test_assembly_names_pants_out_of_range():
    spec = genus2_spec()
    shears = {"P0": {"B12": 1.0, "B13": 1.0, "B23": 1.0},
              "P1": {"B12": -1.0, "B13": -1.0, "B23": 1.0}}
    with pytest.raises(LaminationError,
                       match=r"^pants 'P1': .*got sums \{1: -2\.0, 2: 0\.0, 3: 0\.0\}$"):
        assemble_surface(spec, shears, {})


def test_twist_moves_only_zl_exponentially():
    ds0 = _simple_assembly({"C1": 0.0})
    t = 0.37
    ds1 = _simple_assembly({"C1": t})
    c0, c1 = ds0.curves["C1"], ds1.curves["C1"]
    zl0 = float(c0.zl.a) / float(c0.zl.b)
    zl1 = float(c1.zl.a) / float(c1.zl.b)
    assert zl1 == pytest.approx(math.exp(2 * t) * zl0)
    assert c0.zr == c1.zr and c0.x == c1.x and c0.y == c1.y
    for cid in ("C2", "C3"):
        assert ds0.curves[cid].gluing_cross_ratio() == pytest.approx(
            ds1.curves[cid].gluing_cross_ratio())


def test_solve_twist_fixed_point():
    # the twist read back off a chart's own gluing invariant
    ds = _simple_assembly({"C1": 0.25})
    w = math.log(-1.0 / ds.curves["C1"].gluing_cross_ratio())
    assert solve_twist(w) == pytest.approx(0.25, abs=1e-12)


def test_solve_twist_reaches_target():
    for w in (-1.5, 0.0, 2.0):
        t0 = solve_twist(w)
        assert t0 == w / 2
        moved = _simple_assembly({"C2": t0})
        z = moved.curves["C2"].gluing_cross_ratio()
        assert z == pytest.approx(-math.exp(-w), abs=1e-12)


def test_solve_twist_round_trip_to_origin():
    ds = _simple_assembly()
    w0 = math.log(-1.0 / ds.curves["C3"].gluing_cross_ratio())
    assert solve_twist(w0) == pytest.approx(0.0, abs=1e-15)
    ds1 = _simple_assembly({"C3": solve_twist(1.3)})
    w1 = math.log(-1.0 / ds1.curves["C3"].gluing_cross_ratio())
    assert solve_twist(w1) == pytest.approx(0.65, abs=1e-12)


def test_charts_are_closed_form():
    # zr = [1 : 1] and zl = [-exp(2t) : 1], written as [-1 : exp(-2t)] for t > 0
    rng = random.Random(31)
    for _ in range(10):
        spec, shears, twists = sample_genus2(rng)
        ds = assemble_surface(spec, shears, twists)
        for cid, chart in ds.curves.items():
            t = chart.twist
            assert t == twists[cid]
            assert (chart.x.a, chart.x.b, chart.y.a, chart.y.b) == (0.0, 1.0, 1.0, 0.0)
            assert (chart.zr.a, chart.zr.b) == (1.0, 1.0)
            expected = (-1.0, math.exp(-2 * t)) if t > 0 else (-math.exp(2 * t), 1.0)
            assert (chart.zl.a, chart.zl.b) == expected
            assert chart.zl.mode == chart.zr.mode == "float"


@pytest.mark.parametrize("twist, where", [
    (800.0, "infinity"), (-800.0, "0"), (math.inf, "infinity"), (-math.inf, "0"),
    (math.nan, "infinity"),
])
def test_twist_beyond_double_range_names_the_curve(twist, where):
    with pytest.raises(AssemblyError,
                       match=rf"^curve 'C2': twist {twist:.17g} puts zl = -exp\(2t\) "
                             rf"at {where} in double precision$"):
        _simple_assembly({"C2": twist})


def test_assembly_left_right_sides():
    ds = _simple_assembly({"C1": 0.2, "C2": -0.7})
    for chart in ds.curves.values():
        assert float(chart.zl.a) / float(chart.zl.b) < 0
        assert float(chart.zr.a) / float(chart.zr.b) > 0


def test_random_genus2_assemblies():
    rng = random.Random(23)
    for _ in range(10):
        spec, shears, twists = sample_genus2(rng)
        ds = assemble_surface(spec, shears, twists)
        for chart in ds.curves.values():
            assert chart.length > 0


def test_assembly_equivariant_under_base_chart_change():
    spec = genus2_spec()
    shears = {"P0": {"B12": 0.8, "B13": 0.6, "B23": 1.1},
              "P1": {"B12": 0.8, "B13": 0.6, "B23": 1.1}}
    twists = {"C1": 0.2, "C2": -0.7, "C3": 0.0}
    ds1 = assemble_surface(spec, shears, twists)
    base = {"P0": (ProjPoint(-3.0, 1.0), ProjPoint(0.25, 1.0), ProjPoint(2.0, 1.0)),
            "P1": (ProjPoint(0.0, 1.0), ProjPoint(5.0, 1.0), ProjPoint(1.0, 0.0))}
    ds2 = assemble_surface(spec, shears, twists, base_points=base)
    for cid in spec.curves:
        c1, c2 = ds1.curves[cid], ds2.curves[cid]
        assert c1.length == pytest.approx(c2.length, abs=1e-10)
        assert c1.gluing_cross_ratio() == pytest.approx(
            c2.gluing_cross_ratio(), abs=1e-10)
    for pid in spec.pants:
        for leaf in spec.pants[pid].leaves():
            q1 = ds1.pants[pid].leaf_quadruples[leaf]
            q2 = ds2.pants[pid].leaf_quadruples[leaf]
            s1 = shear_from_quadruple(q1.y, q1.zr, q1.x, q1.zl)
            s2 = shear_from_quadruple(q2.y, q2.zr, q2.x, q2.zl)
            assert s1 == pytest.approx(s2, abs=1e-10)
    # the invariant vector on both charts: the moved P0 tables lack the
    # point 0, so their wedges take the appended-row route, while the
    # default chart reads every wedge through the flag at 0 off a pivot
    moved = ds2.pants["P0"]
    assert not any(p.a == 0 for tri in (0, 1) for p in moved.triangles[tri].pts)
    for n in (3, 5, 8):
        v1, v2 = bd.bd_vector(ds1, n), bd.bd_vector(ds2, n)
        assert set(v1.tau.values()) == set(v2.tau.values()) == {0.0}
        for block in ("sigma", "theta"):
            b1, b2 = getattr(v1, block), getattr(v2, block)
            assert b1.keys() == b2.keys()
            for key, value in b1.items():
                assert abs(value - b2[key]) <= 1e-9


# -- the side check of every fan plaque ------------------------------------------

def test_plaque_on_the_wrong_side_of_its_axis_names_pants_boundary_and_triangle(
        monkeypatch):
    # swapped fixed points put every plaque's short-arc vertex on the wrong side
    axis = surfaces.axis_data
    monkeypatch.setattr(surfaces, "axis_data", lambda m: (lambda a, r, l: (r, a, l))(*axis(m)))
    with pytest.raises(AssemblyError,
                       match=r"^pants 'P0': boundary 1: the short-arc vertex of triangle 0 "
                             r"developed on the wrong side of the axis$"):
        _simple_assembly()
    lam = lam_II(2)
    with pytest.raises(AssemblyError,
                       match=r"^boundary 1: the short-arc vertex of triangle 1 "):
        develop_pants(lam, {"B22": 0.4, "B12": 0.9, "B23": 0.5})


def test_side_check_reads_every_fan_plaque(monkeypatch):
    # one orientation sign per plaque of every fan, not only the plaques of
    # the triangles that curves name
    axes = []
    axis = surfaces.axis_data
    monkeypatch.setattr(surfaces, "axis_data", lambda m: axes.append(axis(m)) or axes[-1])
    checked = []
    orient = surfaces.orientation

    def recording(a, b, c):
        if axes and a is axes[-1][1] and c is axes[-1][0]:
            checked.append(b)
        return orient(a, b, c)
    monkeypatch.setattr(surfaces, "orientation", recording)
    rng = random.Random(3)
    for lam in lamination_variants():
        checked.clear()
        develop_pants(lam, sample_valid_shears(rng, lam, hi=4.0))
        assert len(checked) == sum(len(fan_cycle(lam, slot)) for slot in (1, 2, 3))


# -- convention 1: every placed plaque runs counterclockwise --------------------

def test_every_crossed_plaque_is_counterclockwise(monkeypatch):
    # _cross solves the new vertex on this fact and checks it, and
    # develop_pants reads each leaf's sides off its forward end; every table
    # side (u, w) is (c, c + 1 mod 3), so (u, w, third) is a rotation
    for tables in surfaces._TABLES.values():
        assert all(w == (u + 1) % 3 for _, (u, w) in tables.side_leaf)
    cross = surfaces._cross
    placed = []

    def recording(*args):
        placed.append(cross(*args))
        return placed[-1]
    monkeypatch.setattr(surfaces, "_cross", recording)
    rng = random.Random(19)
    expected = 0
    for lam in lamination_variants():
        crossings = len(lam.leaves()) + sum(len(fan_cycle(lam, slot)) for slot in SLOTS)
        for _ in range(30):
            develop_pants(lam, sample_valid_shears(rng, lam, hi=4.0))
            expected += crossings
    assert len(placed) == expected
    assert all(orientation(*plaque.pts) > 0 for plaque in placed)


PLAQUE_ERROR = "leaf B12: the plaque developed across it is not counterclockwise"


def test_collapsed_vertex_is_a_named_error(monkeypatch, tmp_path, capsys):
    # a new vertex on the crossed edge's end u; the first crossing is
    # triangle 0's side (0, 1), on leaf B12 of a kind I pants
    monkeypatch.setattr(surfaces, "fourth_point", lambda a, c, d, r: a)
    with pytest.raises(AssemblyError, match=f"^{PLAQUE_ERROR}$"):
        develop_pants(lam_I(), shears_I(0.8, 0.6, 1.1))
    assert main(["invariants", "--input", SURFACE, "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: pants 'P0': {PLAQUE_ERROR}\n"
    assert list(tmp_path.iterdir()) == []


def test_side_vertices_on_one_side_of_a_leaf_are_a_named_error(monkeypatch, tmp_path, capsys):
    # a new vertex at the plaque's third corner puts both side vertices of
    # B12, the first leaf, on one side of it: the new plaque is clockwise
    monkeypatch.setattr(surfaces, "fourth_point", lambda a, c, d, r: d)
    with pytest.raises(AssemblyError, match=f"^{PLAQUE_ERROR}$"):
        develop_pants(lam_I(), shears_I(0.8, 0.6, 1.1))
    assert main(["invariants", "--input", SURFACE, "--n", "3",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: pants 'P0': {PLAQUE_ERROR}\n"
    assert list(tmp_path.iterdir()) == []


# counterclockwise base triangles: three increasing reals, or two and infinity
_BASE_TRIANGLES = st.lists(st.integers(-40, 40), min_size=3, max_size=3, unique=True).map(
    sorted).flatmap(lambda xs: st.sampled_from([
        tuple(ProjPoint(x / 4, 1.0) for x in xs),
        (ProjPoint(xs[0] / 4, 1.0), ProjPoint(xs[1] / 4, 1.0), ProjPoint(1.0, 0.0))]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), base0=_BASE_TRIANGLES, base1=_BASE_TRIANGLES)
def test_any_base_triangle_develops_and_assembles_the_same(seed, base0, base1):
    # every pants develops, side check included, on the moved base triangle
    spec, shears, twists = sample_genus2(random.Random(seed))
    default = assemble_surface(spec, shears, twists)
    moved = assemble_surface(spec, shears, twists, base_points={"P0": base0, "P1": base1})
    for pid in spec.pants:
        for slot in (1, 2, 3):
            assert abs(moved.pants[pid].fans[slot].length
                       - default.pants[pid].fans[slot].length) <= 1e-9
        for leaf, q in moved.pants[pid].leaf_quadruples.items():
            assert abs(shear_from_quadruple(q.y, q.zr, q.x, q.zl) - shears[pid][leaf]) <= 1e-9
    rows = bd.bd_vector(moved, 3).rows()
    expected = bd.bd_vector(default, 3).rows()
    assert [row[:-1] for row in rows] == [row[:-1] for row in expected]
    for row, want in zip(rows, expected):
        assert abs(row[-1] - want[-1]) <= 1e-9
