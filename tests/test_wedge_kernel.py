"""The exact wedge-table kernel behind the invariant vector and the exact
identity suites: the tables of a ``bd.veronese_trie``, whose ratios
``bd_vector`` reads index by index.

Their values are checked against the general flag route (``flags.triple_ratio``
and ``flags.double_ratio`` on ``veronese_flag`` flags), exactly on rational
points and to 1e-12 on the float points of a developed surface.  Their
stacked wedges, read off the shared elimination trie, are checked against
one ``oracles.row_swap_det`` of the same integer rows, an elimination that
shares no code with the trie's row appends, and at n = 12 and 16, where
that is too slow, against the closed form ``oracles.veronese_wedge``.  A
float trie's wedges are checked against ``oracles.row_pivot_det``, a
row-swapping float LU.
"""
import functools
import importlib
import json
import math
import os
import pkgutil
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import pytest

import bdcoords
import bdcoords.bd as bd
import bdcoords.flags as flags
import bdcoords.multilinear as multilinear
from bdcoords.cli import main
from bdcoords.flags import DegenerateFlagError, double_ratio, triple_ratio
from bdcoords.halfplane import ProjPoint, sort_ccw
from bdcoords.multilinear import bareiss_append
from bdcoords.surfaces import AssemblyError, assemble_surface, genus2_spec
from bdcoords.verification import (run_double_ratio, run_permutation, run_triple_ratio,
                                   sample_genus2, sample_points)
from bdcoords.veronese import exact_flag_rows, flag_rows, veronese_flag
from oracles import (complement_trie, integer_coordinates, log_double_ratio, log_triple_ratio,
                     random_vector, row_pivot_det, row_swap_det, veronese_wedge)

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
        trie = bd.veronese_trie(n, "exact")
        for triple in ((c, b, a), (a, b, c), (b, d, a)):
            table = bd.veronese_table(trie, triple, f"case {case}")
            for pqr, expected in general_log_triples(triple, n).items():
                assert log_triple_ratio(table, *pqr) == expected
        quad = (a, c, b, d)
        table = bd.veronese_table(trie, quad, f"case {case}")
        for p, expected in general_log_doubles(quad, n).items():
            assert log_double_ratio(table, p) == expected


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
    ds = assemble_surface(genus2_spec(), SHEARS, {"C1": 0.15})
    assert bd.bd_vector(ds, 4).size() == bd.expected_size(ds.spec, 4)


def cold_base(monkeypatch):
    """No per-process cache from here on: the next ``bd.veronese_trie`` of
    each rank and mode makes its own base (its states, its entries per table
    pattern and its tau rows), and ``bd._spiral_terms`` builds its rows
    afresh.  The process's caches are back after the test, so a step or a
    row builder the test patches stays out of them."""
    monkeypatch.setattr(bd, "_BASE_TRIES", {})
    monkeypatch.setattr(bd, "_spiral_terms",
                        functools.lru_cache(maxsize=None)(bd._spiral_terms.__wrapped__))


def test_bd_vector_builds_each_points_rows_once(monkeypatch):
    # the trie names each flag by its integer point, so the rows of a point
    # are built once however many tables of the surface hold it; on a cold
    # base those of 0, 1 and infinity are built for the base
    cold_base(monkeypatch)
    ds = assemble_surface(*sample_genus2(random.Random(7)))
    calls, rows_of = [], bd.exact_flag_rows
    monkeypatch.setattr(bd, "exact_flag_rows",
                        lambda a, b, n: calls.append((a, b)) or rows_of(a, b, n))
    bd.bd_vector(ds, 5)
    read = [pt for dev in ds.pants.values() for tri in (0, 1) for pt in dev.triangles[tri].pts]
    read += [pt for quad in [*(q for dev in ds.pants.values()
                               for q in dev.leaf_quadruples.values()), *ds.curves.values()]
             for pt in (quad.x, quad.y, quad.zl, quad.zr)]
    assert sorted(calls) == sorted({bd._integer_point(pt) for pt in read})
    assert (len(calls), len(read)) == (12, 48)   # 12 distinct points in 48 reads


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
    table = bd.veronese_table(bd.veronese_trie(3, "exact"), pts, "at pants P0 triangle 1")
    with pytest.raises(DegenerateFlagError,
                       match=r"^vanishing wedge factor at pants P0 triangle 1: "
                             r"wedge \(2, 1, 0\) is exactly 0 at n = 3$"):
        log_triple_ratio(table, 1, 1, 1)


@pytest.mark.parametrize("n", (3, 5, 8))
def test_bd_vector_equals_one_shot_wedges_of_the_complement_basis(n, monkeypatch):
    # the same invariants, value for value, from one row_swap_det per wedge of
    # the (b X - a Y) rows the float flags use, at points turned into
    # integers by the oracle's conversion: the basis, the trie and the
    # per-process caches change no ratio, so not even the last bit of a log
    for seed in (1, 2, 3):
        ds = assemble_surface(*sample_genus2(random.Random(seed)))
        vec = bd.bd_vector(ds, n)
        with monkeypatch.context() as m:
            cold_base(m)   # a base made under the patch is dropped with it
            m.setattr(bd, "veronese_trie", complement_trie)
            m.setattr(bd, "_integer_point", integer_coordinates)
            expected = bd.bd_vector(ds, n)
        assert vec.tau == expected.tau
        assert vec.sigma == expected.sigma
        assert vec.theta == expected.theta


def test_negative_double_ratio_names_object_and_rank():
    # (x, y, zl, zr) with zl and zr on the same side of the axis (0, oo)
    pts = (ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1), ProjPoint(2, 1))
    table = bd.veronese_table(bd.veronese_trie(4, "exact"), pts, "at curve C2")
    with pytest.raises(AssemblyError,
                       match=r"double ratio D_2 at curve C2 is not positive: .* at n = 4"):
        log_double_ratio(table, 2)


TINY = ProjPoint(Fraction(1, 10 ** 400), 1)
NEGATIVE_RATIOS = [
    # D_1 = -10^400 overflows a float, and -10^-400 rounds to -0
    ((ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1), TINY),
     "not positive and outside the double range: the log of its magnitude is 921.034"),
    ((TINY, ProjPoint(1, 1), ProjPoint(0, 1), ProjPoint(1, 0)),
     "not positive and outside the double range: the log of its magnitude is -921.034"),
    ((ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1), ProjPoint(2, 1)),
     "not positive: -0.5"),
]


@pytest.mark.parametrize("pts, message", NEGATIVE_RATIOS, ids=("huge", "tiny", "in-range"))
def test_negative_ratio_is_named_by_its_value_or_its_log(pts, message):
    table = bd.veronese_table(bd.veronese_trie(3, "exact"), pts, "at test")
    with pytest.raises(AssemblyError) as caught:
        log_double_ratio(table, 1)
    assert str(caught.value) == f"double ratio D_1 at test is {message} at n = 3"


def test_kernel_rejects_bad_indices():
    table = bd.veronese_table(bd.veronese_trie(4, "exact"),
                              (ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(1, 0)),
                              "pants P1 triangle 0")
    with pytest.raises(ValueError, match="p \\+ q \\+ r = 4"):
        log_triple_ratio(table, 0, 2, 2)
    with pytest.raises(ValueError, match="1 <= p <= 3"):
        log_double_ratio(table, 4)


# -- the exact identity suites ----------------------------------------------


SUITES = {"triple": run_triple_ratio, "double": run_double_ratio}


@pytest.mark.parametrize("ratio", SUITES)
def test_exact_suites_read_one_kernel_table_per_case(ratio, monkeypatch):
    tables, trie_table = [], flags.WedgeTrie.table

    def counting(trie, ids, where):
        tables.append((trie, where))
        return trie_table(trie, ids, where)

    def no_flag(self, basis):
        raise AssertionError("an exact suite built a Flag")

    monkeypatch.setattr(flags.WedgeTrie, "table", counting)
    monkeypatch.setattr(flags.Flag, "__init__", no_flag)
    report = SUITES[ratio](5, samples=6, seed=3)
    assert report.passed and report.worst == 0
    assert len(tables) == 6
    assert len({id(trie) for trie, _ in tables}) == 6   # a trie per case
    # each a Veronese trie: its flags are named by integer points
    assert all(trie.rows_of((1, 0)) == exact_flag_rows(1, 0, 5) for trie, _ in tables)
    assert {where for _, where in tables} == {f"in {ratio} ratio"}


@pytest.mark.parametrize("ratio", SUITES)
def test_float_suites_build_one_trie_per_case(ratio, monkeypatch):
    tables, trie_table = [], flags.WedgeTrie.table

    def counting(trie, ids, where):
        tables.append(trie)
        return trie_table(trie, ids, where)

    def no_flag(self, basis):
        raise AssertionError("a float suite built a Flag")

    monkeypatch.setattr(flags.WedgeTrie, "table", counting)
    monkeypatch.setattr(flags.Flag, "__init__", no_flag)
    report = SUITES[ratio](5, samples=6, seed=3, mode="float")
    assert report.passed and report.cases == 6 * (6 if ratio == "triple" else 4)
    assert len({id(trie) for trie in tables}) == len(tables) == 6
    assert {trie.mode for trie in tables} == {"float"}
    # each a float Veronese trie: its flags are named by integer points
    assert all(trie.rows_of((1, 0)) == flag_rows(1, 0, 5) for trie in tables)


def test_permutation_suite_builds_one_trie_per_case(monkeypatch):
    # the trie of the sampler's genericity check holds the three orders of a
    # case's flags: one trie per check, none besides (the per-ratio route
    # built 3 per ratio, and a second trie per case re-eliminated the check's)
    tries, checks = [], []
    trie_init, generic = flags.WedgeTrie.__init__, flags.WedgeTable.is_generic
    monkeypatch.setattr(flags.WedgeTrie, "__init__",
                        lambda trie, *args: tries.append(trie) or trie_init(trie, *args))
    monkeypatch.setattr(flags.WedgeTable, "is_generic",
                        lambda table: checks.append(table) or generic(table))
    report = run_permutation(5, samples=4, seed=3)
    assert report.passed and report.cases == 4 * len(bd.triple_indices(5))
    assert len(tries) == len(checks) >= 4


@pytest.mark.parametrize("ratio", SUITES)
@pytest.mark.parametrize("n", (12, 16))
def test_suite_entries_are_the_closed_form_at_high_rank(n, ratio, monkeypatch):
    # every entry the exact suites read, against the closed-form wedge at
    # ranks where row_swap_det is too slow; the sampled points all have a != 0
    tables, trie_table = [], flags.WedgeTrie.table

    def keeping(trie, ids, where):
        table = trie_table(trie, ids, where)
        tables.append((ids, table))
        return table

    monkeypatch.setattr(flags.WedgeTrie, "table", keeping)
    assert SUITES[ratio](n, samples=4, seed=3).passed
    assert len(tables) == 4 and all(a for ids, _ in tables for a, _ in ids)
    for ids, table in tables:
        assert len(table._entries) >= 2 * n
        for levels, value in table._entries.items():
            assert value == veronese_wedge(ids, levels)


@pytest.mark.parametrize("ratio", SUITES)
def test_exact_suite_names_a_vanishing_wedge_by_ratio(ratio, monkeypatch):
    # every case's table with its last point replaced by its first: every
    # ratio stacks two blocks of that flag, so one of its wedges is exactly 0
    trie_table = flags.WedgeTrie.table
    monkeypatch.setattr(flags.WedgeTrie, "table", lambda trie, ids, where:
                        trie_table(trie, (*ids[:-1], ids[0]), where))
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
    return row_swap_det([row for pt, d in zip(pts, levels)
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
    trie = bd.veronese_trie(n, "exact")
    for case in range(2 if n <= 8 else 1):
        pts = random_points(rng, 4, dyadic)
        rng.shuffle(pts)
        # four-flag tables have (n + 3 choose 3) entries: keep the oracle's
        # big determinants to the smaller ranks
        for table_pts in (pts[:3], pts[1:]) + ((pts,) if n <= 7 else ()):
            table = bd.veronese_table(trie, table_pts, f"case {case}")
            for levels in level_tuples(n, len(table_pts)):
                assert table.wedge(*levels) == stacked_wedge(table_pts, levels, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_points_at_zero_and_infinity_force_column_pivots(n):
    zero, inf, one = ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1)
    # the flag rows at 0 and at infinity are signed unit vectors, in reverse
    # column order at 0, so the pivot column of nearly every row is not the
    # first free one
    assert integer_rows(zero, n)[0] == [0] * (n - 1) + [1]
    trie = bd.veronese_trie(n, "exact")
    for pts in ((zero, inf, one), (inf, zero, one), (one, zero, inf, ProjPoint(-2, 1))):
        table = bd.veronese_table(trie, pts, "axis")
        for levels in level_tuples(n, len(pts)):
            assert table.wedge(*levels) == stacked_wedge(pts, levels, n)


def test_tables_sharing_leading_blocks_get_equal_entries():
    n = 7
    x, y, zl, zr = random_points(random.Random(5), 4, dyadic=True)
    trie = bd.veronese_trie(n, "exact")
    triangle = bd.veronese_table(trie, (x, y, zl), "triangle")
    quadruple = bd.veronese_table(trie, (x, y, zl, zr), "quadruple")
    other = bd.veronese_table(trie, (x, y, zr), "other triangle")
    alone = bd.veronese_table(bd.veronese_trie(n, "exact"), (x, y, zl, zr), "alone")
    for a, b, c in level_tuples(n, 3):
        assert quadruple.wedge(a, b, c, 0) == triangle.wedge(a, b, c)
        assert quadruple.wedge(a, b, 0, c) == other.wedge(a, b, c)
    for levels in level_tuples(n, 4):
        assert quadruple.wedge(*levels) == alone.wedge(*levels)


@pytest.mark.parametrize("n", (3, 5, 8))
def test_repeated_point_gives_a_dependent_prefix(n):
    p, q = ProjPoint(Fraction(1, 3), 1), ProjPoint(-2, 1)
    table = bd.veronese_table(bd.veronese_trie(n, "exact"), (p, p, q), "at pants P1 triangle 0")
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
    """Every entry of the table is row_swap_det of its stacked rows, sign
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
    trie = bd.veronese_trie(n, "exact")
    tables = [(zero, x, y), (x, zero, y), (x, y, zero), (zero, x, zero), (y, zero, zero)]
    if n <= 7:   # the oracle's four-flag tables, as above
        tables += [(x, zero, y, z), (x, y, z, zero), (zero, x, y, zero)]
    for pts in tables:
        check_every_entry(bd.veronese_table(trie, pts, "axis"), pts, n)


def count_appends(monkeypatch):
    """The rows ``multilinear.bareiss_append`` appends from now on, in order,
    from a cold base."""
    cold_base(monkeypatch)
    calls = []

    def counting(steps, row):
        calls.append(row)
        return bareiss_append(steps, row)

    monkeypatch.setattr(multilinear, "bareiss_append", counting)
    return calls


def test_triangle_at_zero_reads_its_wedges_with_few_appends(monkeypatch):
    n = 8
    calls = count_appends(monkeypatch)
    pts = (ProjPoint(0.0, 1.0), ProjPoint(1.0, 1.0), ProjPoint(-2.5, 1.0))
    table = bd.veronese_table(bd.veronese_trie(n, "exact"), pts, "at pants P0 triangle 0")
    for levels in level_tuples(n, 3):
        assert table.wedge(*levels) == stacked_wedge(pts, levels, n)
    # one append per state of the flags at 1 and at -2.5: the rows of the
    # flag at 0 are never appended (by identity, since the last row of every
    # flag at a finite point is the unit row e_n too)
    assert len(calls) <= n * (n + 1) // 2 + n
    zero_rows = table.trie.rows[table.keys[0]]
    assert zero_rows[0] == [0] * (n - 1) + [1]
    assert not any(call is row for call in calls for row in zero_rows)


@pytest.mark.parametrize("n", range(3, 10))
def test_float_flag_at_zero_is_read_off_the_other_blocks(n, monkeypatch):
    # the float flag at 0 has the unit rows e_n, e_(n-1), ... too, and a
    # float step's pivot is the minor on its pivot columns as a Bareiss pivot
    # is: a float table reads a wedge through that flag off the last pivot of
    # the other blocks when they pivoted in order, as the rows of the flag at
    # infinity always do, and every entry is the oracle LU of its rows
    appended, step = [], multilinear.float_append
    monkeypatch.setattr(multilinear, "float_append",
                        lambda steps, row: appended.append(row) or step(steps, row))
    pts = (ProjPoint(0.0, 1.0), ProjPoint(1.0, 0.0), ProjPoint(-2.5, 1.0))
    table = flags.wedge_table([veronese_flag(p, n) for p in pts], "in a test")
    rows = [table.trie.rows[key] for key in table.keys]
    appended.clear()   # the flags' own independence checks
    assert [list(row) for row in rows[0]] == [[int(j == n - 1 - i) for j in range(n)]
                                             for i in range(n)]
    for a in range(n + 1):
        assert table.wedge(a, n - a, 0) == row_pivot_det(rows[0][:a] + rows[1][:n - a])
    assert not any(call is row for call in appended for row in rows[0])
    for levels in level_tuples(n, 3):
        stacked = [row for block, d in zip(rows, levels) for row in block[:d]]
        assert table.wedge(*levels) == pytest.approx(row_pivot_det(stacked), rel=1e-12)


@pytest.mark.parametrize("n", range(2, 13))
def test_float_veronese_trie_marks_the_flag_at_zero(n):
    # the float Veronese rows at 0 are exactly the unit rows at every rank,
    # so a float Veronese trie reads wedges through that flag off the others
    trie = bd.veronese_trie(n, "float")
    [key] = trie.keys_of([(0, 1)])
    assert key in trie._at_zero


class CountedPivot(int):
    """A pivot that counts the products it enters as a right operand: each
    element of a Bareiss update, x * pivot - lead * y, and of a deferred
    rescale, x * pivot, makes exactly one."""

    products = 0

    def __rmul__(self, other):
        CountedPivot.products += 1
        return int(other) * int(self)


def sampled_surface_work(monkeypatch, n):
    """The appends and the element updates of one ``bd_vector`` of the
    seed-7 sampled surface at rank n, on a cold base."""
    cold_base(monkeypatch)
    ds = assemble_surface(*sample_genus2(random.Random(7)))
    appends = 0

    def counting(steps, row):
        nonlocal appends
        appends += 1
        return bareiss_append([(i, CountedPivot(pivot), rest) for i, pivot, rest in steps], row)

    monkeypatch.setattr(multilinear, "bareiss_append", counting)
    monkeypatch.setattr(CountedPivot, "products", 0)
    bd.bd_vector(ds, n)
    return appends, CountedPivot.products


def test_sampled_surface_appends_at_rank_8(monkeypatch):
    # 493 appends when every row of the flag at 0 was stacked; 2 490
    # element updates when every nonzero lead took the plain update, where
    # a rescale-only step (a zero lead or a zero rest) costs none
    appends, updates = sampled_surface_work(monkeypatch, 8)
    assert appends == 190
    assert updates <= 1494


def test_sampled_surface_appends_at_rank_12(monkeypatch):
    # 10 888 element updates with the plain update at every nonzero lead
    appends, updates = sampled_surface_work(monkeypatch, 12)
    assert appends == 382
    assert updates <= 7050


# -- the per-process base tries and the per-rank read plans -----------------


BASE_TRIANGLE = (ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(1, 0))


def test_warm_base_appends_no_state_of_the_base_flags_alone(monkeypatch):
    # the seed-7 surface at rank 8: on a cold base, the appends of one trie
    # (as in test_sampled_surface_appends_at_rank_8); run again, every state
    # that stacks only the flags at 0, 1 and infinity is the base's already:
    # the base gains no state, and no trie of a surface keeps one of those,
    # so 64 of the 190 appends are not made again
    calls = count_appends(monkeypatch)
    tries, veronese_trie = [], bd.veronese_trie
    monkeypatch.setattr(bd, "veronese_trie",
                        lambda n, mode: tries.append(veronese_trie(n, mode)) or tries[-1])
    ds = assemble_surface(*sample_genus2(random.Random(7)))
    first = bd.bd_vector(ds, 8)
    cold, base = len(calls), tries[0].base
    base_states = dict(base._states)
    calls.clear()
    assert bd.bd_vector(ds, 8) == first
    assert (cold, len(calls)) == (190, 126)
    assert tries[1].base is base and base._states == base_states
    assert all(max(blocks)[0] >= 3 for trie in tries for blocks in trie._states if blocks)


def test_base_tries_are_per_rank_and_mode(monkeypatch):
    cold_base(monkeypatch)
    one, two = bd.veronese_trie(5, "exact"), bd.veronese_trie(5, "exact")
    others = [bd.veronese_trie(6, "exact"), bd.veronese_trie(5, "float")]
    assert one.base is two.base
    bases = [one.base] + [trie.base for trie in others]
    assert len({id(base) for base in bases}) == 3
    assert not any(row is other for base in bases for other_base in bases if other_base is not base
                   for rows in base.rows for row in rows
                   for other_rows in other_base.rows for other in other_rows)
    sizes = [len(base._states) for base in bases]
    # a table that never reads a base point leaves every base as it was
    table = bd.veronese_table(one, (ProjPoint(2, 1), ProjPoint(-3, 1), ProjPoint(5, 2)), "own")
    for levels in level_tuples(5, 3):
        table.wedge(*levels)
    assert [len(base._states) for base in bases] == sizes
    # the base triangle fills its own base and no other, and stays out of the trie
    table = bd.veronese_table(one, BASE_TRIANGLE, "base")
    for levels in level_tuples(5, 3):
        assert table.wedge(*levels) == stacked_wedge(BASE_TRIANGLE, levels, 5)
    assert len(bases[0]._states) > sizes[0]
    assert [len(base._states) for base in bases[1:]] == sizes[1:]
    assert all(max(blocks)[0] >= 3 for blocks in one._states if blocks)
    # the other trie of the rank reads the same entries off the shared states
    table = bd.veronese_table(two, BASE_TRIANGLE, "base")
    full = len(bases[0]._states)
    for levels in level_tuples(5, 3):
        assert table.wedge(*levels) == stacked_wedge(BASE_TRIANGLE, levels, 5)
    assert len(bases[0]._states) == full and len(two._states) == 1


def test_concurrent_bd_vectors_get_the_serial_results(monkeypatch):
    # eight threads on distinct surfaces at one rank, all filling one cold
    # base and cold spiral terms: the caches hold only data that is the same
    # whichever thread computes it first, so every vector and closed-leaf
    # report is the serial one
    surfaces = [assemble_surface(*sample_genus2(random.Random(seed))) for seed in range(1, 9)]
    cold_base(monkeypatch)
    serial = [bd.bd_vector(ds, 8) for ds in surfaces]
    reports = [bd.closed_leaf_report(vec, ds) for vec, ds in zip(serial, surfaces)]
    cold_base(monkeypatch)
    start = threading.Barrier(len(surfaces))

    def run(ds):
        start.wait()
        vec = bd.bd_vector(ds, 8)
        return vec, bd.closed_leaf_report(vec, ds)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often, so their reads interleave
    try:
        with ThreadPoolExecutor(max_workers=len(surfaces)) as pool:
            threaded = list(pool.map(run, surfaces))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == list(zip(serial, reports))
    assert list(bd._BASE_TRIES) == [(8, "exact")]


# -- the per-process caches are invisible -----------------------------------


def surface_outputs(ds, n):
    """The text of the vector's report block and of its closed-leaf reports
    under both vertex rules, on the vector and on one with random values off
    the Fuchsian locus, where a wrong term of a spiral sum shows."""
    vec = bd.bd_vector(ds, n)
    off = random_vector(random.Random(n), vec)
    return vec.serialized(), [bd.closed_leaf_report(v, ds, rule).to_json_dict()
                              for v in (vec, off) for rule in ("verbatim", "swapped")]


@pytest.mark.parametrize("n", (3, 5, 8))
def test_warm_caches_give_the_cold_outputs(n, monkeypatch):
    # each of seeds 1-10 on cold caches, against the same surface computed
    # after the others warmed them: in order, where seed k follows seeds
    # 1..k-1, and in reverse, where it follows seeds k+1..10
    surfaces = [assemble_surface(*sample_genus2(random.Random(seed))) for seed in range(1, 11)]
    cold = []
    for ds in surfaces:
        cold_base(monkeypatch)
        cold.append(surface_outputs(ds, n))
    cold_base(monkeypatch)
    assert [surface_outputs(ds, n) for ds in surfaces] == cold
    cold_base(monkeypatch)
    assert [surface_outputs(ds, n) for ds in reversed(surfaces)] == cold[::-1]


def table_entries(trie, pts):
    """Every entry of the table of ``trie`` at ``pts``, by levels."""
    table = bd.veronese_table(trie, pts, "in a test")
    return {levels: table.wedge(*levels) for levels in level_tuples(trie.n, len(pts))}


@pytest.mark.parametrize("mode", ("exact", "float"))
def test_each_table_pattern_reads_its_own_entries(mode, monkeypatch):
    # the base triangle in both orientations, and the base flags in other
    # slots of a quadruple, (1, oo, u, 0) against (0, oo, 1, w): each table
    # read after every other pattern filled the base gets the entries of a
    # cold base, and exact ones are the oracle's; so does a table whose own
    # point differs from the one that filled its pattern
    n = 6
    zero, one, infinity = BASE_TRIANGLE
    u, w, u2, w2 = (ProjPoint(x, 1.0) for x in (-2.5, 0.375, 5.25, -0.75))
    tables = [(zero, infinity, one), (zero, one, infinity),
              (one, infinity, u, zero), (zero, infinity, one, w),
              (one, infinity, u2, zero), (zero, infinity, one, w2)]
    cold = []
    for pts in tables:
        cold_base(monkeypatch)
        cold.append(table_entries(bd.veronese_trie(n, mode), pts))
    if mode == "exact":
        for pts, entries in zip(tables, cold):
            assert entries == {levels: stacked_wedge(pts, levels, n) for levels in entries}
    cold_base(monkeypatch)
    for order in (range(len(tables)), range(len(tables) - 1, -1, -1)):
        trie = bd.veronese_trie(n, mode)
        assert [table_entries(trie, tables[i]) for i in order] == [cold[i] for i in order]
    patterns = bd._BASE_TRIES[(n, mode)].trie._seeds
    assert len(patterns) == 4   # the quadruples at u and u2 (w and w2) share one
    seeded = bd.veronese_table(bd.veronese_trie(n, mode), tables[-1], "seeded")
    assert seeded.pattern == (0, 2, 1, None)
    assert seeded._entries == {levels: value for levels, value in cold[-1].items()
                               if not levels[3]}


def test_cold_base_resets_every_per_process_cache(monkeypatch):
    # the package's caches are the bases and the spiral terms, besides the
    # CLI's one parser; after cold_base a rank's vector and report start
    # from empty ones, and fill new ones, not the process's
    modules = [importlib.import_module(f"bdcoords.{info.name}")
               for info in pkgutil.iter_modules(bdcoords.__path__)]
    cached = sorted(f"{module.__name__}.{name}" for module in modules
                    for name, value in vars(module).items() if hasattr(value, "cache_info"))
    assert cached == ["bdcoords.bd._spiral_terms", "bdcoords.cli.build_parser"]
    ds = assemble_surface(*sample_genus2(random.Random(7)))
    bd.closed_leaf_report(bd.bd_vector(ds, 5), ds)
    warm, warm_terms = bd._BASE_TRIES[(5, "exact")], bd._spiral_terms
    assert warm.tau_rows and warm.trie._seeds and warm_terms.cache_info().currsize
    cold_base(monkeypatch)
    assert bd._BASE_TRIES == {} and bd._spiral_terms.cache_info().currsize == 0
    bd.closed_leaf_report(bd.bd_vector(ds, 5), ds)
    base = bd._BASE_TRIES[(5, "exact")]
    assert base is not warm and base.trie is not warm.trie
    assert base.tau_rows.items() <= warm.tau_rows.items()
    assert base.trie._seeds.keys() <= warm.trie._seeds.keys()
    assert bd._spiral_terms is not warm_terms and bd._spiral_terms.cache_info().currsize
