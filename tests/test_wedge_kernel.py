"""The exact wedge-table kernel behind the invariant vector.

Its values are checked against the general flag route (``flags.triple_ratio``
and ``flags.double_ratio`` on ``veronese_flag`` flags), exactly on rational
points and to 1e-12 on the float points of a developed surface.
"""
import json
import math
import os
import random

import pytest

import bdcoords.bd as bd
import bdcoords.flags as flags
from bdcoords.cli import main
from bdcoords.flags import DegenerateFlagError, double_ratio, triple_ratio
from bdcoords.halfplane import ProjPoint, sort_ccw
from bdcoords.surfaces import AssemblyError, assemble_surface, genus2_spec
from bdcoords.verification import sample_genus2, sample_points
from bdcoords.veronese import veronese_flag

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
    for n in range(6, 11):
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
    table = bd.WedgeKernel(3).table(pts, "pants P0 triangle 1")
    with pytest.raises(DegenerateFlagError,
                       match=r"pants P0 triangle 1: wedge \(2, 1, 0\) is exactly 0 at n = 3"):
        table.log_triple_ratio(1, 1, 1)


def test_negative_double_ratio_names_object_and_rank():
    # (x, y, zl, zr) with zl and zr on the same side of the axis (0, oo)
    pts = (ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1), ProjPoint(2, 1))
    table = bd.WedgeKernel(4).table(pts, "curve C2")
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
