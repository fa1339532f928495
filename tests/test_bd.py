import math
import random
import re
from collections import Counter

import pytest

import bdcoords.bd as bd
import bdcoords.surfaces
from bdcoords.flags import triple_ratio
from bdcoords.halfplane import ProjPoint, axis_data, shear_from_quadruple
from bdcoords.surfaces import (LaminationError, assemble_surface, genus2_spec,
                               AssemblyError)
from bdcoords.veronese import veronese_flag
from bdcoords import verification
from bdcoords.verification import sample_genus2
from oracles import random_vector, slice_point_of, spiral_sum, triangle_invariant

SHEARS = {"P0": {"B12": 0.8, "B13": 0.6, "B23": 1.1},
          "P1": {"B12": 0.8, "B13": 0.6, "B23": 1.1}}


def make_ds(twists=None, shears=SHEARS):
    return assemble_surface(genus2_spec(), shears, twists or {})


@pytest.fixture(scope="module")
def ds():
    return make_ds({"C1": 0.15, "C2": -0.4, "C3": 0.9})


# -- triangle invariants ------------------------------------------------------

def test_triangle_invariants_vanish(ds):
    for n in (3, 4, 5, 6):
        tau = bd.bd_vector(ds, n).tau
        assert len(tau) == 2 * 2 * len(bd.triple_indices(n))
        for value in tau.values():
            assert abs(value) < 1e-9


def test_triangle_invariant_vertex_rotation(ds):
    # rotating the starting vertex permutes the indices cyclically
    n = 5
    for (p, q, r) in bd.triple_indices(n):
        t0 = triangle_invariant(ds, "P0", 0, 0, p, q, r, n)
        t1 = triangle_invariant(ds, "P0", 0, 2, q, r, p, n)  # next clockwise
        assert t0 == pytest.approx(t1, abs=1e-12)


def test_triangle_invariant_exact_log_argument():
    # with exact rational stand-in vertices the triple ratio is exactly 1
    pts = (ProjPoint(1, 0), ProjPoint(1, 1), ProjPoint(0, 1))
    for n in (3, 4, 5):
        flags = [veronese_flag(p, n) for p in pts]
        for pqr in bd.triple_indices(n):
            assert triple_ratio(*flags, *pqr) == 1


# -- shearing invariants ------------------------------------------------------

def test_shearing_invariant_recovers_shear(ds):
    for n in (2, 3, 4, 5):
        vec = bd.bd_vector(ds, n)
        for pid in ("P0", "P1"):
            for leaf, value in SHEARS[pid].items():
                for p in range(1, n):
                    assert vec.sigma[(pid, leaf, p)] == pytest.approx(value, abs=1e-9)


def test_shearing_invariant_n2_reduces_to_classical(ds):
    vec = bd.bd_vector(ds, 2)
    for pid in ("P0", "P1"):
        for leaf in SHEARS[pid]:
            q = ds.pants[pid].leaf_quadruples[leaf]
            classical = shear_from_quadruple(q.y, q.zr, q.x, q.zl)
            assert vec.sigma[(pid, leaf, 1)] == pytest.approx(classical, abs=1e-12)


# -- gluing invariants --------------------------------------------------------

def test_gluing_invariant_is_twice_the_twist(ds):
    # the chart puts zl at -exp(2t) in closed form, so the kernel's wedges at
    # its four points read theta_p = 2t at every p and n
    rng = random.Random(41)
    for surface in [ds] + [assemble_surface(*sample_genus2(rng)) for _ in range(4)]:
        for n in range(2, 9):
            vec = bd.bd_vector(surface, n)
            for (cid, p), value in vec.theta.items():
                assert value == pytest.approx(2 * surface.curves[cid].twist, abs=1e-12)


def test_gluing_invariant_n2_matches_cross_ratio(ds):
    vec = bd.bd_vector(ds, 2)
    for cid, chart in ds.curves.items():
        z = chart.gluing_cross_ratio()
        assert vec.theta[(cid, 1)] == pytest.approx(math.log(-1.0 / z), abs=1e-12)


# -- the vector ---------------------------------------------------------------

def test_bd_vector_sizes(ds):
    spec = ds.spec
    assert bd.expected_size(spec, 3) == 22
    for n in (2, 3, 4, 5):
        vec = bd.bd_vector(ds, n)
        assert vec.size() == bd.expected_size(spec, n)
    assert len(bd.bd_vector(ds, 2).tau) == 0


def test_bd_vector_rows_and_json(ds):
    vec = bd.bd_vector(ds, 3)
    rows = vec.rows()
    assert len(rows) == 22
    blocks = {r[0] for r in rows}
    assert blocks == {"tau", "sigma", "theta"}
    data, csv_rows = vec.serialized()
    assert [row[:5] for row in csv_rows] == [row[:5] for row in rows]
    assert len(data["tau"]) == 4 and len(data["sigma"]) == 12 and len(data["theta"]) == 6


# -- closed leaf sums ---------------------------------------------------------

def test_closed_leaf_condition(ds):
    for n in (2, 3, 4, 5):
        vec = bd.bd_vector(ds, n)
        report = bd.closed_leaf_report(vec, ds)
        assert report.max_deviation() < 1e-9
        for cid, p, r, l, lp in report.entries:
            assert r > 0 and lp > 0


def test_closed_leaf_report_reduces_to_shear_sums(ds):
    # with tau exactly 0, R_p and L_p are the signed shear sums of the
    # curve's two fans, the boundary lengths
    for n in (2, 3, 5):
        vec = bd.bd_vector(ds, n)
        flat = bd.BDVector(n=n, tau={k: 0.0 for k in vec.tau},
                           sigma={(pid, leaf, p): SHEARS[pid][leaf] for pid, leaf, p in vec.sigma},
                           theta=vec.theta)
        for rule in ("verbatim", "swapped"):
            report = bd.closed_leaf_report(flat, ds, rule)
            assert [(cid, p) for cid, p, *_ in report.entries] == [
                (cid, p) for cid in sorted(ds.curves) for p in range(1, n)]
            for cid, p, r, l, lp in report.entries:
                assert r == pytest.approx(lp, abs=1e-9)
                assert l == pytest.approx(lp, abs=1e-9)


@pytest.mark.parametrize("kind", ["I", "II"])
def test_closed_leaf_report_matches_the_spiral_sum_oracle(ds, kind):
    # off the Fuchsian locus, every curve, p and side against a fan walk per
    # sum: both vertex rules, each spike vertex's rotation of the tau row
    rng = random.Random(17)
    if kind == "I":
        surface = ds
    else:
        from bdcoords.surfaces import PantsLamination, SurfaceSpec

        lam = lambda: PantsLamination(kind="II", spiral_signs={1: -1, 2: 1, 3: 1},
                                      leaf_orientations={"B12": 1}, distinguished=1)
        spec = SurfaceSpec(genus=2, pants={"P0": lam(), "P1": lam()},
                           curves={"C1": (("P0", 1), ("P1", 1)),
                                   "C2": (("P0", 2), ("P1", 2)),
                                   "C3": (("P0", 3), ("P1", 3))})
        shears = {pid: {"B11": -1.0, "B12": 0.9, "B13": 0.5} for pid in spec.pants}
        surface = assemble_surface(spec, shears, {"C1": 0.2, "C2": 0.0, "C3": -0.4})
    for n in (2, 3, 5, 8):
        vec = random_vector(rng, bd.bd_vector(surface, n))
        reports = {rule: bd.closed_leaf_report(vec, surface, rule)
                   for rule in ("verbatim", "swapped")}
        for rule, report in reports.items():
            assert len(report.entries) == len(surface.curves) * (n - 1)
            for cid, p, r, l, _ in report.entries:
                assert r == spiral_sum(vec, surface.spec, cid, p, "right", rule)
                assert l == spiral_sum(vec, surface.spec, cid, p, "left", rule)
        if n > 2:   # the two readings differ off the locus
            assert reports["verbatim"].entries != reports["swapped"].entries


def test_closed_leaf_report_vertex_rules_agree_on_fuchsian(ds):
    for n in (3, 4, 5):
        vec = bd.bd_vector(ds, n)
        verbatim = bd.closed_leaf_report(vec, ds, "verbatim").entries
        swapped = bd.closed_leaf_report(vec, ds, "swapped").entries
        assert len(verbatim) == len(swapped) == 3 * (n - 1)
        for (cid, p, r, l, lp), (cid2, p2, r2, l2, lp2) in zip(verbatim, swapped):
            assert (cid, p, lp) == (cid2, p2, lp2)
            assert r == pytest.approx(r2, abs=1e-9)
            assert l == pytest.approx(l2, abs=1e-9)
    with pytest.raises(ValueError, match="vertex_rule must be 'verbatim' or 'swapped'"):
        bd.closed_leaf_report(bd.bd_vector(ds, 3), ds, "rotated")


def test_closed_leaf_report_walks_each_fan_once(monkeypatch):
    # one walk per curve side, whatever n: 6 on a genus-2 surface, where one
    # walk per side and p made 42 at n = 8
    ds = assemble_surface(*sample_genus2(random.Random(7)))
    walks = []
    fan_cycle = bd.fan_cycle
    monkeypatch.setattr(bd, "fan_cycle", lambda *a: walks.append(a) or fan_cycle(*a))
    for n in (3, 8):
        walks.clear()
        bd.closed_leaf_report(bd.bd_vector(ds, n), ds)
        assert sorted(walks, key=repr) == sorted(
            [(ds.spec.pants[pid], slot) for ends in ds.spec.curves.values()
             for pid, slot in ends], key=repr)
        assert len(walks) == 6


def deck_length(surface, cid, side):
    """Translation length of the developed deck map of one side's fan."""
    pid, slot = surface.spec.side(cid, side)
    return axis_data(surface.pants[pid].fans[slot].deck)[2]


def test_closed_leaf_length_spectrum(ds):
    # every l_p is the curve's hyperbolic length: the translation length of
    # its left fan's developed deck map, which the right fan matches
    rng = random.Random(31)
    surfaces = [ds] + [assemble_surface(*sample_genus2(rng)) for _ in range(8)]
    for surface in surfaces:
        for n in (3, 5):
            report = bd.closed_leaf_report(bd.bd_vector(surface, n), surface)
            assert len(report.entries) == 3 * (n - 1)
            for cid, p, r, l, lp in report.entries:
                assert lp == deck_length(surface, cid, "left")
                assert lp == pytest.approx(deck_length(surface, cid, "right"), rel=1e-9)


# -- membership ---------------------------------------------------------------

def test_spec_side_rejects_an_unknown_side(ds):
    with pytest.raises(ValueError, match="side must be 'left' or 'right', not 'middle'"):
        ds.spec.side("C1", "middle")
    for cid, ends in ds.spec.curves.items():
        assert (ds.spec.side(cid, "left"), ds.spec.side(cid, "right")) == ends


def test_membership_is_judged_at_the_acceptance_tolerance(ds):
    assert bd.TOL == 1e-9
    vec = bd.bd_vector(ds, 4)
    key = next(iter(vec.tau))
    for gap, member in ((0.5e-9, True), (2e-9, False)):
        report = bd.ClosedLeafReport(n=2, entries=(("C1", 1, 1.0, 1.0 + gap, 1.0),))
        assert bd.polytope_membership(report)[0] is member
        tau = {**vec.tau, key: gap}
        assert bd.slice_membership(bd.BDVector(n=4, tau=tau, sigma=vec.sigma,
                                               theta=vec.theta)) is member


def test_polytope_membership(ds):
    vec = bd.bd_vector(ds, 3)
    ok, problems = bd.polytope_membership(bd.closed_leaf_report(vec, ds))
    assert ok and not problems


def test_polytope_membership_detects_violation(ds):
    vec = bd.bd_vector(ds, 3)
    broken = bd.BDVector(n=3, tau=vec.tau,
                         sigma={k: -v for k, v in vec.sigma.items()},
                         theta=vec.theta)
    ok, problems = bd.polytope_membership(bd.closed_leaf_report(broken, ds))
    assert not ok and problems


def test_polytope_membership_zero_vector(ds):
    vec = bd.bd_vector(ds, 3)
    zero = bd.BDVector(n=3, tau={k: 0.0 for k in vec.tau},
                       sigma={k: 0.0 for k in vec.sigma},
                       theta={k: 0.0 for k in vec.theta})
    ok, problems = bd.polytope_membership(bd.closed_leaf_report(zero, ds))
    assert not ok
    assert any("not positive" in p for p in problems)


def test_slice_membership(ds):
    vec = bd.bd_vector(ds, 4)
    assert bd.slice_membership(vec)
    perturbed = dict(vec.tau)
    perturbed[next(iter(perturbed))] += 0.1
    assert not bd.slice_membership(bd.BDVector(n=4, tau=perturbed,
                                               sigma=vec.sigma, theta=vec.theta))
    assert bd.slice_membership(bd.bd_vector(ds, 2))  # single index: vacuous


def test_slice_deviations_name_the_object_off_the_slice(ds):
    vec = bd.bd_vector(ds, 4)
    devs = bd.slice_deviations(vec)
    assert len(devs) == len(vec.tau) + 2 * 3 + 3   # tau, one per leaf, one per curve
    assert max(devs.values()) <= 1e-9
    for block, key in (("sigma", ("P1", "B13", 2)), ("theta", ("C2", 3))):
        blocks = {"sigma": dict(vec.sigma), "theta": dict(vec.theta)}
        blocks[block][key] += 0.25
        moved = bd.BDVector(n=4, tau=vec.tau, **blocks)
        off = {k: d for k, d in bd.slice_deviations(moved).items() if d > 1e-9}
        assert off.keys() == {(block, *key[:-1])}
        assert list(off.values())[0] == pytest.approx(0.25, abs=1e-9)
        assert not bd.slice_membership(moved)


# -- slice realization --------------------------------------------------------

def test_realize_slice_flat_point():
    spec = genus2_spec()
    shears = {pid: {leaf: 1.0 for leaf in ("B12", "B13", "B23")} for pid in ("P0", "P1")}
    sp = bd.SlicePoint(shears=shears, gluing={"C1": 0.0, "C2": 0.0, "C3": 0.0})
    ds = bd.realize_slice(sp, spec)
    vec = bd.bd_vector(ds, 3)
    for v in vec.tau.values():
        assert abs(v) < 1e-9
    for k, v in vec.sigma.items():
        assert v == pytest.approx(1.0, abs=1e-9)
    for k, v in vec.theta.items():
        assert v == pytest.approx(0.0, abs=1e-9)


def test_realize_slice_round_trip_from_assembly():
    rng = random.Random(5)
    spec, shears, twists = sample_genus2(rng)
    ds = assemble_surface(spec, shears, twists)
    n = 4
    vec = bd.bd_vector(ds, n)
    sp = slice_point_of(vec, spec)
    ds2 = bd.realize_slice(sp, spec)
    vec2 = bd.bd_vector(ds2, n)
    for key in vec.sigma:
        assert vec2.sigma[key] == pytest.approx(vec.sigma[key], abs=1e-9)
    for key in vec.theta:
        assert vec2.theta[key] == pytest.approx(vec.theta[key], abs=1e-9)
    for key in vec.tau:
        assert vec2.tau[key] == pytest.approx(vec.tau[key], abs=1e-9)


def test_realize_slice_twists_are_half_the_gluing():
    rng = random.Random(13)
    for _ in range(5):
        spec, shears, _ = sample_genus2(rng)
        gluing = {cid: verification.sample_float(rng, -3.0, 3.0) for cid in spec.curves}
        ds = bd.realize_slice(bd.SlicePoint(shears=shears, gluing=gluing), spec)
        assert {cid: c.twist for cid, c in ds.curves.items()} == {
            cid: w / 2 for cid, w in gluing.items()}
        for cid, chart in ds.curves.items():
            assert bd.twist_residual(chart, gluing[cid]) < 1e-15


def test_realize_slice_rejects_range_violation():
    spec = genus2_spec()
    shears = {pid: {"B12": -1.0, "B13": -1.0, "B23": 1.0} for pid in ("P0", "P1")}
    sp = bd.SlicePoint(shears=shears, gluing={"C1": 0.0, "C2": 0.0, "C3": 0.0})
    with pytest.raises(LaminationError, match="P0"):
        bd.realize_slice(sp, spec)


def test_realize_slice_rejects_length_mismatch():
    spec = genus2_spec()
    shears = {"P0": {"B12": 1.0, "B13": 1.0, "B23": 1.0},
              "P1": {"B12": 1.5, "B13": 1.5, "B23": 1.5}}
    sp = bd.SlicePoint(shears=shears, gluing={"C1": 0.0, "C2": 0.0, "C3": 0.0})
    with pytest.raises(AssemblyError, match="C1"):
        bd.realize_slice(sp, spec)


@pytest.mark.parametrize("cid, gluing", [("C1", 0.0), ("C2", 0.7), ("C3", -1.2)])
def test_twist_off_target_is_unreachable(cid, gluing, monkeypatch):
    # a twist solve off by 1e-6 misses the target gluing cross ratio by about
    # 2e-6 relative, far above the 1e-9 bound; the error names the curve
    solve = bd.solve_twist
    monkeypatch.setattr(bd, "solve_twist", lambda w: solve(w) + (1e-6 if w == gluing else 0.0))
    values = {"C1": 0.5, "C2": 0.5, "C3": 0.5, cid: gluing}
    sp = bd.SlicePoint(shears=SHEARS, gluing=values)
    residual = 2e-6 * math.exp(-gluing) / max(1.0, math.exp(-gluing))
    with pytest.raises(bd.UnreachableTwistError) as info:
        bd.realize_slice(sp, genus2_spec())
    match = re.fullmatch(rf"curve {cid!r}: twist solve residual (\S+) \(relative\) "
                         rf"above 1e-09 at gluing {gluing!r}", str(info.value))
    assert match, str(info.value)
    assert float(match[1]) == pytest.approx(residual, rel=5e-3)


def test_roundtrip_suite_realizes_once_per_case(monkeypatch):
    realized = []
    realize = bd.realize_slice
    monkeypatch.setattr(bd, "realize_slice", lambda *a: realized.append(a) or realize(*a))
    report = verification.run_roundtrip(n_values=(2, 3, 4), seeds=3, seed=5)
    assert report.passed, report.failures
    assert len(realized) == 3
    assert report.cases == 3 * 3 * 2   # seeds x len(n_values) x (round trip, residual)


def test_realize_slice_develops_each_pants_once(monkeypatch):
    rng = random.Random(11)
    spec, shears, twists = sample_genus2(rng)
    sp = slice_point_of(bd.bd_vector(assemble_surface(spec, shears, twists), 3), spec)
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(bdcoords.surfaces, "develop_pants")
    count(bd, "assemble_surface")
    ds = bd.realize_slice(sp, spec)
    assert calls == {"develop_pants": len(spec.pants), "assemble_surface": 1}
    monkeypatch.undo()
    # the same point assembled from scratch at the solved twists
    rebuilt = assemble_surface(spec, sp.shears,
                               {cid: c.twist for cid, c in ds.curves.items()})
    assert ds.curves.keys() == rebuilt.curves.keys()
    for cid, chart in ds.curves.items():
        other = rebuilt.curves[cid]
        assert (chart.length, chart.twist) == (other.length, other.twist)
        for p, q in ((chart.zl, other.zl), (chart.zr, other.zr)):
            assert (p.a, p.b, p.mode) == (q.a, q.b, q.mode)
    assert bd.bd_vector(ds, 5).rows() == bd.bd_vector(rebuilt, 5).rows()


# -- dimension bookkeeping ----------------------------------------------------

def test_dimension_counts_genus2_n3():
    counts = bd.dimension_counts(genus2_spec(), 3)
    assert counts["N"] == 22
    assert counts["closed_leaf_equalities"] == 6
    assert counts["hitchin_dimension"] == 16  # (2g-2)(n^2-1)
    assert counts["slice_coordinates"] == 9
    assert counts["slice_equalities"] == 3
    assert counts["slice_dimension"] == 6
    assert counts["teichmueller_dimension"] == 6


# -- other decompositions -------------------------------------------------------

def test_type_II_assembly_invariants():
    from bdcoords.surfaces import PantsLamination, SurfaceSpec

    lam = lambda: PantsLamination(kind="II", spiral_signs={1: 1, 2: 1, 3: 1},
                                  leaf_orientations={}, distinguished=1)
    spec = SurfaceSpec(
        genus=2,
        pants={"P0": lam(), "P1": lam()},
        curves={"C1": (("P0", 1), ("P1", 1)),
                "C2": (("P0", 2), ("P1", 2)),
                "C3": (("P0", 3), ("P1", 3))})
    shears = {pid: {"B11": 0.3, "B12": 0.9, "B13": 0.5} for pid in ("P0", "P1")}
    ds = assemble_surface(spec, shears, {"C1": 0.2, "C2": 0.0, "C3": -0.4})
    assert ds.curves["C1"].length == pytest.approx(2 * 0.3 + 0.9 + 0.5)
    assert ds.curves["C2"].length == pytest.approx(0.9)
    for n in (3, 4):
        vec = bd.bd_vector(ds, n)
        for v in vec.tau.values():
            assert abs(v) < 1e-9
        for (pid, leaf, _p), v in vec.sigma.items():
            assert v == pytest.approx(shears[pid][leaf], abs=1e-9)
        assert bd.slice_membership(vec)
        report = bd.closed_leaf_report(vec, ds)
        ok, problems = bd.polytope_membership(report)
        assert ok, problems
        assert report.max_deviation() < 1e-9


def test_self_glued_handle_decomposition():
    # genus 2 again, but one curve glues two boundaries of the same pants
    from bdcoords.surfaces import PantsLamination, SurfaceSpec

    lam = lambda: PantsLamination(kind="I", spiral_signs={1: 1, 2: 1, 3: 1},
                                  leaf_orientations={})
    spec = SurfaceSpec(
        genus=2,
        pants={"P0": lam(), "P1": lam()},
        curves={"C1": (("P0", 1), ("P0", 2)),
                "C2": (("P0", 3), ("P1", 1)),
                "C3": (("P1", 2), ("P1", 3))})
    s = 0.8
    shears = {pid: {leaf: s for leaf in ("B12", "B13", "B23")} for pid in ("P0", "P1")}
    ds = assemble_surface(spec, shears, {"C1": 0.5, "C2": 0.0, "C3": -0.3})
    for n in (2, 3):
        vec = bd.bd_vector(ds, n)
        for v in vec.tau.values():
            assert abs(v) < 1e-9
        report = bd.closed_leaf_report(vec, ds)
        ok, problems = bd.polytope_membership(report)
        assert ok, problems
        assert report.max_deviation() < 1e-9
    sp = slice_point_of(bd.bd_vector(ds, 3), spec)
    ds2 = bd.realize_slice(sp, spec)
    vec2 = bd.bd_vector(ds2, 3)
    for key, v in bd.bd_vector(ds, 3).theta.items():
        assert vec2.theta[key] == pytest.approx(v, abs=1e-9)


def test_polytope_membership_rejects_size_mismatch(ds):
    vec = bd.bd_vector(ds, 3)
    truncated = bd.BDVector(n=3, tau=vec.tau, sigma=vec.sigma,
                            theta={k: v for k, v in vec.theta.items() if k[1] == 1})
    with pytest.raises(ValueError, match="coordinates"):
        bd.closed_leaf_report(truncated, ds)


def test_realize_slice_type_II():
    from bdcoords.surfaces import PantsLamination, SurfaceSpec

    lam = lambda: PantsLamination(kind="II", spiral_signs={1: 1, 2: 1, 3: 1},
                                  leaf_orientations={}, distinguished=1)
    spec = SurfaceSpec(
        genus=2, pants={"P0": lam(), "P1": lam()},
        curves={"C1": (("P0", 1), ("P1", 1)),
                "C2": (("P0", 2), ("P1", 2)),
                "C3": (("P0", 3), ("P1", 3))})
    sp = bd.SlicePoint(
        shears={p: {"B11": -0.2, "B12": 0.8, "B13": 1.1} for p in ("P0", "P1")},
        gluing={"C1": 0.5, "C2": -0.9, "C3": 0.0})
    ds = bd.realize_slice(sp, spec)
    assert ds.curves["C1"].length == pytest.approx(abs(2 * (-0.2) + 0.8 + 1.1), abs=1e-12)
    vec = bd.bd_vector(ds, 4)
    for (pid, leaf, _p), v in vec.sigma.items():
        assert v == pytest.approx(sp.shears[pid][leaf], abs=1e-9)
    for (cid, _p), v in vec.theta.items():
        assert v == pytest.approx(sp.gluing[cid], abs=1e-9)
