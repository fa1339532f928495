"""The exact wedge-table kernel behind the invariant vector and the exact
identity suites.

Its values are checked against the general flag route (``flags.triple_ratio``
and ``flags.double_ratio`` on ``veronese_flag`` flags), exactly on rational
points and to 1e-12 on the float points of a developed surface.  Its
stacked wedges, read off the kernel's shared elimination trie, are checked
against one ``det_int`` of the same integer rows.
"""
import functools
import json
import math
import os
import random
import re
from fractions import Fraction
from itertools import product

import pytest

import bdcoords.bd as bd
import bdcoords.flags as flags
from bdcoords.cli import main
from bdcoords.flags import DegenerateFlagError, double_ratio, triple_ratio
from bdcoords.halfplane import ProjPoint, sort_ccw
from bdcoords.multilinear import bareiss_append, det_int
from bdcoords.surfaces import AssemblyError, assemble_surface, genus2_spec
from bdcoords.verification import (run_double_ratio, run_triple_ratio, sample_genus2,
                                   sample_points)
from bdcoords.veronese import exact_flag_rows, veronese_flag
from oracles import ComplementKernel, integer_coordinates

SURFACE = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                       "genus2_surface.json")
SHEARS = {"P0": {"B12": 0.8, "B13": 0.6, "B23": 1.1},
          "P1": {"B12": 0.8, "B13": 0.6, "B23": 1.1}}
CLOCKWISE = (0, 2, 1)   # corner order of the canonical vertex's triple ratio


def general_log_triples(pts, n):
    fs = [veronese_flag(p, n) for p in pts]
    return {pqr: math.log(float(triple_ratio(*fs, *pqr)))
            for pqr in bd.triple_indices(n)}


def general_log_doubles(pts, n):
    fs = [veronese_flag(x, n) for x in pts]
    return {p: math.log(float(double_ratio(*fs, p))) for p in range(1, n)}


@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_matches_general_route_on_rational_points(n):
    rng = random.Random(100 + n)
    for case in range(6):
        pts = sample_points(rng, 4, with_infinity=(case % 3 == 0))
        a, b, c, d = sort_ccw(pts)
        kernel = bd.WedgeKernel(n)
        for triple in ((c, b, a), (a, b, c), (b, d, a)):
            table = kernel.table(triple, f"case {case}")
            for pqr, expected in general_log_triples(triple, n).items():
                assert table.log_triple_ratio(*pqr) == expected
        quad = (a, c, b, d)
        table = kernel.table(quad, f"case {case}")
        for p, expected in general_log_doubles(quad, n).items():
            assert table.log_double_ratio(p) == expected


@pytest.mark.parametrize("n", (3, 4, 5))
def test_kernel_matches_float_flag_route_on_developed_surface(n):
    ds = assemble_surface(genus2_spec(), SHEARS, {"C1": 0.15, "C2": -0.4, "C3": 0.9})
    vec = bd.bd_vector(ds, n)
    for (pid, tri, pqr), value in vec.tau.items():
        placed = ds.pants[pid].triangles[tri]
        assert value == 0.0
        expected = general_log_triples([placed.pts[c] for c in CLOCKWISE], n)[pqr]
        assert abs(value - expected) <= 1e-12
    for (pid, leaf, p), value in vec.sigma.items():
        q = ds.pants[pid].leaf_quadruples[leaf]
        assert abs(value - general_log_doubles((q.x, q.y, q.zl, q.zr), n)[p]) <= 1e-12
    for (cid, p), value in vec.theta.items():
        c = ds.curves[cid]
        assert abs(value - general_log_doubles((c.x, c.y, c.zl, c.zr), n)[p]) <= 1e-12


def test_bd_vector_builds_no_flag_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the invariant path built a Flag")

    monkeypatch.setattr(flags.Flag, "__init__", refuse)
    monkeypatch.setattr(flags, "det_raw", refuse)
    ds = assemble_surface(genus2_spec(), SHEARS, {"C1": 0.15})
    assert bd.bd_vector(ds, 4).size() == bd.expected_size(ds.spec, 4)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_sampled_surfaces_at_high_rank(seed):
    spec, shears, twists = sample_genus2(random.Random(seed))
    ds = assemble_surface(spec, shears, twists)
    for n in (*range(6, 11), 12):
        vec = bd.bd_vector(ds, n)
        assert all(v == 0.0 for v in vec.tau.values())
        assert bd.closed_leaf_report(vec, ds).max_deviation() <= 1e-9
        assert bd.slice_membership(vec)


def test_invariants_command_at_rank_8(tmp_path):
    prefix = str(tmp_path / "inv8")
    assert main(["invariants", "--input", SURFACE, "--n", "8", "--out", prefix]) == 0
    data = json.loads((tmp_path / "inv8.json").read_text())
    assert float(data["closed_leaf"]["max_deviation"]) <= 1e-9
    assert data["slice_membership"] is True
    assert data["polytope_membership"] is True


def test_vanishing_wedge_names_object_index_and_rank():
    pts = (ProjPoint(0, 1), ProjPoint(0, 1), ProjPoint(1, 0))
    table = bd.WedgeKernel(3).table(pts, "at pants P0 triangle 1")
    with pytest.raises(DegenerateFlagError,
                       match=r"^vanishing wedge factor at pants P0 triangle 1: "
                             r"wedge \(2, 1, 0\) is exactly 0 at n = 3$"):
        table.log_triple_ratio(1, 1, 1)


@pytest.mark.parametrize("n", (3, 5, 8))
def test_bd_vector_equals_one_shot_wedges_of_the_complement_basis(n, monkeypatch):
    # the same invariants, value for value, from one det_int per wedge of
    # the (b X - a Y) rows the float flags use: the basis and the trie
    # change no ratio, so not even the last bit of a log
    for seed in (1, 2, 3):
        ds = assemble_surface(*sample_genus2(random.Random(seed)))
        vec = bd.bd_vector(ds, n)
        with monkeypatch.context() as m:
            m.setattr(bd, "WedgeKernel", ComplementKernel)
            expected = bd.bd_vector(ds, n)
        assert vec.tau == expected.tau
        assert vec.sigma == expected.sigma
        assert vec.theta == expected.theta


def test_negative_double_ratio_names_object_and_rank():
    # (x, y, zl, zr) with zl and zr on the same side of the axis (0, oo)
    pts = (ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1), ProjPoint(2, 1))
    table = bd.WedgeKernel(4).table(pts, "at curve C2")
    with pytest.raises(AssemblyError,
                       match=r"double ratio D_2 at curve C2 is not positive: .* at n = 4"):
        table.log_double_ratio(2)


def test_kernel_rejects_bad_indices():
    table = bd.WedgeKernel(4).table(
        (ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(1, 0)), "pants P1 triangle 0")
    with pytest.raises(ValueError, match="p \\+ q \\+ r = 4"):
        table.log_triple_ratio(0, 2, 2)
    with pytest.raises(ValueError, match="1 <= p <= 3"):
        table.log_double_ratio(4)


# -- the exact identity suites ----------------------------------------------


SUITES = {"triple": run_triple_ratio, "double": run_double_ratio}


@pytest.mark.parametrize("ratio", SUITES)
def test_exact_suites_read_one_kernel_table_per_case(ratio, monkeypatch):
    tables, kernel_table = [], bd.WedgeKernel.table

    def counting(kernel, points, where):
        tables.append((kernel, where))
        return kernel_table(kernel, points, where)

    def no_flag(self, basis):
        raise AssertionError("an exact suite built a Flag")

    monkeypatch.setattr(bd.WedgeKernel, "table", counting)
    monkeypatch.setattr(flags.Flag, "__init__", no_flag)
    report = SUITES[ratio](5, samples=6, seed=3)
    assert report.passed and report.worst == 0
    assert len(tables) == 6
    assert len({id(kernel) for kernel, _ in tables}) == 6   # a kernel per case
    assert {where for _, where in tables} == {f"in {ratio} ratio"}


@pytest.mark.parametrize("ratio", SUITES)
def test_float_suites_build_no_kernel(ratio, monkeypatch):
    def no_kernel(self, n):
        raise AssertionError("a float suite built a kernel")

    monkeypatch.setattr(bd.WedgeKernel, "__init__", no_kernel)
    report = SUITES[ratio](5, samples=6, seed=3, mode="float")
    assert report.passed and report.cases == 6 * (6 if ratio == "triple" else 4)


@pytest.mark.parametrize("ratio", SUITES)
def test_exact_suite_names_a_vanishing_wedge_by_ratio(ratio, monkeypatch):
    # every case's table with its last point replaced by its first: every
    # ratio stacks two blocks of that flag, so one of its wedges is exactly 0
    kernel_table = bd.WedgeKernel.table
    monkeypatch.setattr(bd.WedgeKernel, "table", lambda kernel, points, where:
                        kernel_table(kernel, (*points[:-1], points[0]), where))
    report = SUITES[ratio](5, samples=2, seed=3)
    assert not report.passed
    case, message = report.failures[0].split(": ", 1)
    assert case.startswith("case 0 ")
    assert message.startswith(f"vanishing wedge factor in {ratio} ratio: wedge (")
    # the table names n, and the suite adds no second "at n = 5"
    for line in report.failures:
        assert line.endswith("is exactly 0 at n = 5") and line.count("at n = ") == 1


# -- the shared elimination trie --------------------------------------------


rows_at = functools.lru_cache(maxsize=None)(exact_flag_rows)


def integer_rows(pt: ProjPoint, n: int):
    """The integer flag rows at the point's affine value x = a / b, as
    [numerator : denominator] of x (or [1 : 0] at infinity)."""
    return rows_at(*integer_coordinates(pt), n)


def stacked_wedge(pts, levels, n):
    return det_int([row for pt, d in zip(pts, levels)
                    for row in integer_rows(pt, n)[:d]])


def level_tuples(n: int, m: int):
    return [ds for ds in product(range(n + 1), repeat=m) if sum(ds) == n]


def random_points(rng: random.Random, count: int, dyadic: bool):
    points = set()
    while len(points) < count:
        if dyadic:
            x = rng.randint(-2 ** 8, 2 ** 8) / 2 ** rng.randint(0, 6)
        else:
            x = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        points.add(x)
    return [ProjPoint(x, 1.0 if dyadic else 1) for x in sorted(points)]


@pytest.mark.parametrize("dyadic", (True, False), ids=("dyadic", "rational"))
@pytest.mark.parametrize("n", range(2, 11))
def test_every_stacked_wedge_is_det_int_of_its_rows(n, dyadic):
    rng = random.Random(700 + n + 50 * dyadic)
    kernel = bd.WedgeKernel(n)
    for case in range(2 if n <= 8 else 1):
        pts = random_points(rng, 4, dyadic)
        rng.shuffle(pts)
        # four-flag tables have (n + 3 choose 3) entries: keep the oracle's
        # big determinants to the smaller ranks
        for table_pts in (pts[:3], pts[1:]) + ((pts,) if n <= 7 else ()):
            table = kernel.table(table_pts, f"case {case}")
            for levels in level_tuples(n, len(table_pts)):
                assert table.wedge(*levels) == stacked_wedge(table_pts, levels, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_points_at_zero_and_infinity_force_column_pivots(n):
    zero, inf, one = ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1)
    # the flag rows at 0 and at infinity are signed unit vectors, in reverse
    # column order at 0, so the pivot column of nearly every row is not the
    # first free one
    assert integer_rows(zero, n)[0] == [0] * (n - 1) + [1]
    kernel = bd.WedgeKernel(n)
    for pts in ((zero, inf, one), (inf, zero, one), (one, zero, inf, ProjPoint(-2, 1))):
        table = kernel.table(pts, "axis")
        for levels in level_tuples(n, len(pts)):
            assert table.wedge(*levels) == stacked_wedge(pts, levels, n)


def test_tables_sharing_leading_blocks_get_equal_entries():
    n = 7
    x, y, zl, zr = random_points(random.Random(5), 4, dyadic=True)
    kernel = bd.WedgeKernel(n)
    triangle = kernel.table((x, y, zl), "triangle")
    quadruple = kernel.table((x, y, zl, zr), "quadruple")
    other = kernel.table((x, y, zr), "other triangle")
    alone = bd.WedgeKernel(n).table((x, y, zl, zr), "alone")
    for a, b, c in level_tuples(n, 3):
        assert quadruple.wedge(a, b, c, 0) == triangle.wedge(a, b, c)
        assert quadruple.wedge(a, b, 0, c) == other.wedge(a, b, c)
    for levels in level_tuples(n, 4):
        assert quadruple.wedge(*levels) == alone.wedge(*levels)


@pytest.mark.parametrize("n", (3, 5, 8))
def test_repeated_point_gives_a_dependent_prefix(n):
    p, q = ProjPoint(Fraction(1, 3), 1), ProjPoint(-2, 1)
    table = bd.WedgeKernel(n).table((p, p, q), "at pants P1 triangle 0")
    for a, b, c in level_tuples(n, 3):
        if a and b:
            # the first row of p is stacked twice: the prefix is dependent
            with pytest.raises(DegenerateFlagError,
                               match=rf"pants P1 triangle 0: wedge \({a}, {b}, {c}\) "
                                     rf"is exactly 0 at n = {n}"):
                table.wedge(a, b, c)
        else:
            assert table.wedge(a, b, c) == stacked_wedge((p, p, q), (a, b, c), n) != 0


# -- the flag at 0, read off the pivot of the other blocks ------------------


def check_every_entry(table, pts, n):
    """Every entry of the table is det_int of its stacked rows, sign
    included; an entry that is 0 raises the named error."""
    for levels in level_tuples(n, len(pts)):
        expected = stacked_wedge(pts, levels, n)
        if expected:
            assert table.wedge(*levels) == expected
        else:
            with pytest.raises(DegenerateFlagError,
                               match=rf"wedge {re.escape(str(levels))} is exactly 0 "
                                     rf"at n = {n}$"):
                table.wedge(*levels)


@pytest.mark.parametrize("n", range(2, 11))
def test_flag_at_zero_in_every_position(n):
    zero = ProjPoint(0, 1)
    rng = random.Random(800 + n)
    x, y, z = [p for p in random_points(rng, 4, dyadic=n % 2 == 0) if p.a != 0][:3]
    kernel = bd.WedgeKernel(n)
    tables = [(zero, x, y), (x, zero, y), (x, y, zero), (zero, x, zero), (y, zero, zero)]
    if n <= 7:   # the oracle's four-flag tables, as above
        tables += [(x, zero, y, z), (x, y, z, zero), (zero, x, y, zero)]
    for pts in tables:
        check_every_entry(kernel.table(pts, "axis"), pts, n)


def count_appends(monkeypatch):
    """The rows ``flags`` appends from now on, in order."""
    calls = []

    def counting(steps, row):
        calls.append(row)
        return bareiss_append(steps, row)

    monkeypatch.setattr(flags, "bareiss_append", counting)
    return calls


def test_triangle_at_zero_reads_its_wedges_with_few_appends(monkeypatch):
    n = 8
    calls = count_appends(monkeypatch)
    pts = (ProjPoint(0.0, 1.0), ProjPoint(1.0, 1.0), ProjPoint(-2.5, 1.0))
    table = bd.WedgeKernel(n).table(pts, "at pants P0 triangle 0")
    for levels in level_tuples(n, 3):
        assert table.wedge(*levels) == stacked_wedge(pts, levels, n)
    # one append per state of the flags at 1 and at -2.5: the rows of the
    # flag at 0 are never appended (by identity, since the last row of every
    # flag at a finite point is the unit row e_n too)
    assert len(calls) <= n * (n + 1) // 2 + n
    zero_rows = table.trie.rows[table.keys[0]]
    assert zero_rows[0] == [0] * (n - 1) + [1]
    assert not any(call is row for call in calls for row in zero_rows)


def test_sampled_surface_appends_at_rank_8(monkeypatch):
    ds = assemble_surface(*sample_genus2(random.Random(7)))
    calls = count_appends(monkeypatch)
    bd.bd_vector(ds, 8)
    # 493 appends when every row of the flag at 0 was stacked
    assert len(calls) <= 210
