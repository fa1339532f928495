"""Bonahon-Dreyer invariants of developed surfaces and the Fuchsian slice.

For a hyperbolic surface developed from shear and twist data, the invariants
of the induced representation into PSL(n, R) are computed through the
Veronese flag curve: triangle invariants are logs of triple ratios at ideal
triangle vertices, shearing invariants are logs of double ratios at leaf
quadruples, gluing invariants are logs of double ratios at the short-arc
quadruples of the decomposing curves.

The invariants are exact at the developed points.  Each point, float or
rational, is converted to integer homogeneous coordinates of the same
value (a float is a dyadic rational), and the integer Veronese flag rows
are built once per distinct point of one computation.  Each triangle and
each quadruple gets a table of the stacked wedges its ratios need.  All
tables of one computation read their entries off one trie of integer
Bareiss elimination states, so a stack of leading rows shared by many
wedges is reduced once, and every entry is checked exactly nonzero; each
ratio's sign is checked exactly, and only its final quotient is rounded
and passed to the log.  The float genericity threshold of the flags module
plays no part here, so a triangle invariant of a developed surface is
exactly 0.

The closed leaf condition ties these to the length spectrum: for each curve
and each index p, the right and left spiral sums R_p and L_p both equal the
p-th eigenvalue-gap length of the curve's holonomy.  The slice of the
parameter polytope carved out by vanishing triangle invariants and
index-independent shearing/gluing invariants is exactly the image of the
hyperbolic structures, and ``realize_slice`` constructs the hyperbolic
surface realizing any point of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .scalars import serialize_value
from .flags import DegenerateFlagError
from .halfplane import ProjPoint
from .multilinear import bareiss_append
from .veronese import flag_rows, length_spectrum
from .surfaces import (AssemblyError, DevelopedSurface, SurfaceSpec,
                       UnreachableTwistError, assemble_surface, fan_cycle, solve_twist)

DEFAULT_TOL = 1e-9

# corners of a placed triangle in clockwise order starting at the canonical
# vertex (placements are counterclockwise in local order (0, 1, 2))
_CW_ORDER = (0, 2, 1)


def _rotate_indices(pqr, steps: int):
    p, q, r = pqr
    for _ in range(steps % 3):
        p, q, r = r, p, q
    return p, q, r


def triple_indices(n: int):
    """All (p, q, r) with p, q, r >= 1 and p + q + r = n."""
    return [(p, q, n - p - q)
            for p in range(1, n - 1) for q in range(1, n - p)]


# ---------------------------------------------------------------------------
# the exact wedge-table kernel


def _integer_point(pt: ProjPoint):
    """Integer homogeneous coordinates [a : b] of a point, with the same value.

    A float coordinate is a dyadic rational, so the conversion is exact:
    clear the denominators, divide out the gcd, and fix the overall sign so
    that equal coordinates give equal keys.
    """
    na, da = pt.a.as_integer_ratio()
    nb, db = pt.b.as_integer_ratio()
    a, b = na * db, nb * da
    g = math.gcd(a, b)
    if b < 0 or (b == 0 and a < 0):
        g = -g
    return a // g, b // g


class WedgeKernel:
    """Exact rank-n wedges of Veronese flags at developed points.

    Each distinct point gets an index and its integer flag rows once.  Every
    stacked wedge of the computation is read off one trie of fraction-free
    elimination states, keyed by the stacked blocks ``((point, level), ...)``
    in the table's block order, zero-level blocks dropped.  A state is its
    parent (the same blocks with one row fewer) with the next flag row
    appended by :func:`~bdcoords.multilinear.bareiss_append`, so a prefix of
    rows shared by many wedges, in one table or across tables, is reduced
    once.  A state of n rows is its signed determinant, and a state whose
    rows are exactly dependent is 0, as is every wedge through it.  The trie
    lives as long as the kernel, and a kernel serves one computation.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self._points = {}              # integer point -> its index in _rows
        self._rows = []                # integer flag rows, one list per point
        self._states = {(): ((), 0)}   # stacked blocks -> elimination state

    def table(self, points, what: str) -> "WedgeTable":
        """The wedge table of the flags at ``points``; ``what`` names them."""
        ids = []
        for pt in points:
            key = _integer_point(pt)
            if key not in self._points:
                self._points[key] = len(self._rows)
                self._rows.append(flag_rows(*key, self.n))
            ids.append(self._points[key])
        return WedgeTable(self, tuple(ids), what)

    def state(self, blocks):
        """The elimination state of the stacked blocks: ``(steps, parity)``
        below n rows, the signed determinant at n rows, 0 once dependent."""
        state = self._states.get(blocks)
        if state is None:
            point, level = blocks[-1]
            parent = blocks[:-1] + ((point, level - 1),) if level > 1 else blocks[:-1]
            state = _append(self.state(parent), self._rows[point][level - 1])
            self._states[blocks] = state
        return state


def _append(state, row):
    """The elimination state one integer row below ``state``."""
    if not state:   # rows that are dependent stay dependent
        return 0
    steps, parity = state
    step = bareiss_append(steps, row)
    if step is None:
        return 0
    index, pivot, rest = step
    parity ^= index & 1
    if rest:
        return steps + (step,), parity
    return -pivot if parity else pivot


class WedgeTable:
    """Stacked wedges of a tuple of flags of one kernel.

    The entry at levels (d_1, ..., d_m), summing to n, is the determinant of
    the first d_1 rows of flag 1, then the first d_2 rows of flag 2, and so
    on: an exact integer from the kernel's elimination trie, checked nonzero.
    Ratios are formed from the integer factors, their signs checked exactly,
    and the log taken of the correctly rounded quotient.
    """

    def __init__(self, kernel: WedgeKernel, points: tuple, what: str):
        self.kernel, self.points, self.what = kernel, points, what
        self.n = kernel.n

    def wedge(self, *levels) -> int:
        value = self.kernel.state(
            tuple([(pt, d) for pt, d in zip(self.points, levels) if d]))
        if value == 0:
            raise DegenerateFlagError(
                f"vanishing wedge factor at {self.what}: wedge {levels} "
                f"is exactly 0 at n = {self.n}")
        return value

    def _log_ratio(self, num: int, den: int, name: str) -> float:
        if (num > 0) != (den > 0):
            raise AssemblyError(
                f"{name} at {self.what} is not positive: {num / den:.6g} "
                f"at n = {self.n}")
        return math.log(num / den)

    def log_triple_ratio(self, p: int, q: int, r: int) -> float:
        """log T_pqr of the first three flags (see ``flags.triple_ratio``)."""
        if min(p, q, r) < 1 or p + q + r != self.n:
            raise ValueError(f"need p, q, r >= 1 with p + q + r = {self.n}, "
                             f"got {(p, q, r)} at {self.what}")
        w = self.wedge
        num = w(p + 1, q, r - 1) * w(p, q - 1, r + 1) * w(p - 1, q + 1, r)
        den = w(p - 1, q, r + 1) * w(p, q + 1, r - 1) * w(p + 1, q - 1, r)
        return self._log_ratio(num, den, f"triple ratio T_{(p, q, r)}")

    def log_double_ratio(self, p: int) -> float:
        """log D_p of the flag quadruple (see ``flags.double_ratio``)."""
        n = self.n
        if not 1 <= p <= n - 1:
            raise ValueError(f"need 1 <= p <= {n - 1}, got {p} at {self.what}")
        w = self.wedge
        num = w(p, n - p - 1, 1, 0) * w(p - 1, n - p, 0, 1)
        den = w(p, n - p - 1, 0, 1) * w(p - 1, n - p, 1, 0)
        return self._log_ratio(-num, den, f"double ratio D_{p}")


def _triangle_table(kernel: WedgeKernel, ds: DevelopedSurface, pants_id: str,
                    tri: int, vertex: int) -> WedgeTable:
    placed = ds.pants[pants_id].triangles[tri]
    # rotate the fixed clockwise cycle to start at the chosen vertex
    k = _CW_ORDER.index(vertex)
    pts = [placed.pts[_CW_ORDER[(k + m) % 3]] for m in range(3)]
    return kernel.table(pts, f"pants {pants_id} triangle {tri}")


def _leaf_table(kernel: WedgeKernel, ds: DevelopedSurface, pants_id: str,
                leaf: str) -> WedgeTable:
    q = ds.pants[pants_id].leaf_quadruples[leaf]
    return kernel.table((q.x, q.y, q.zl, q.zr), f"pants {pants_id} leaf {leaf}")


def _curve_table(kernel: WedgeKernel, ds: DevelopedSurface, curve_id: str) -> WedgeTable:
    c = ds.curves[curve_id]
    return kernel.table((c.x, c.y, c.zl, c.zr), f"curve {curve_id}")


def triangle_invariant(ds: DevelopedSurface, pants_id: str, tri: int,
                       vertex: int, p: int, q: int, r: int, n: int) -> float:
    """log of the (p, q, r) triple ratio at an ideal triangle's flags,
    vertices taken clockwise from the chosen one."""
    table = _triangle_table(WedgeKernel(n), ds, pants_id, tri, vertex)
    return table.log_triple_ratio(p, q, r)


def shearing_invariant(ds: DevelopedSurface, pants_id: str, leaf: str,
                       p: int, n: int) -> float:
    """log D_p at the leaf quadruple (x, y, z_left, z_right)."""
    return _leaf_table(WedgeKernel(n), ds, pants_id, leaf).log_double_ratio(p)


def gluing_invariant(ds: DevelopedSurface, curve_id: str, p: int, n: int) -> float:
    """log D_p at the curve's short-arc quadruple (x, y, z_left, z_right)."""
    return _curve_table(WedgeKernel(n), ds, curve_id).log_double_ratio(p)


@dataclass(frozen=True)
class BDVector:
    """The full invariant tuple of a developed surface for one n.

    tau is keyed by (pants_id, triangle, (p, q, r)) with the triangle
    invariant taken at the canonical vertex (local corner 0); sigma by
    (pants_id, leaf, p); theta by (curve_id, p).
    """

    n: int
    tau: dict
    sigma: dict
    theta: dict

    def size(self) -> int:
        return len(self.tau) + len(self.sigma) + len(self.theta)

    def tau_at(self, pants_id: str, tri: int, vertex: int, pqr) -> float:
        """Triangle invariant at an arbitrary vertex, by index rotation."""
        steps = _CW_ORDER.index(vertex)
        return self.tau[(pants_id, tri, _rotate_indices(pqr, steps))]

    def rows(self):
        """Canonically ordered (block, object, p, q, r, value) rows."""
        out = []
        for (pid, tri, (p, q, r)), v in sorted(self.tau.items()):
            out.append(("tau", f"{pid}/T{tri}", p, q, r, v))
        for (pid, leaf, p), v in sorted(self.sigma.items()):
            out.append(("sigma", f"{pid}/{leaf}", p, "", "", v))
        for (cid, p), v in sorted(self.theta.items()):
            out.append(("theta", cid, p, "", "", v))
        return out

    def to_json_dict(self):
        return {
            "n": self.n,
            "tau": [{"pants": pid, "triangle": tri, "p": p, "q": q, "r": r,
                     "value": serialize_value(v)}
                    for (pid, tri, (p, q, r)), v in sorted(self.tau.items())],
            "sigma": [{"pants": pid, "leaf": leaf, "p": p, "value": serialize_value(v)}
                      for (pid, leaf, p), v in sorted(self.sigma.items())],
            "theta": [{"curve": cid, "p": p, "value": serialize_value(v)}
                      for (cid, p), v in sorted(self.theta.items())],
        }


def expected_size(spec: SurfaceSpec, n: int) -> int:
    """3|chi|/2 gluing + 3|chi| shearing blocks of size n-1, plus 2|chi|
    triangle blocks of size (n-1 choose 2)."""
    chi = 2 * (spec.genus - 1)
    return (3 * chi // 2) * (n - 1) + 3 * chi * (n - 1) + 2 * chi * math.comb(n - 1, 2)


def bd_vector(ds: DevelopedSurface, n: int) -> BDVector:
    """All invariants of the developed surface at rank n, through one kernel."""
    kernel = WedgeKernel(n)
    tau = {}
    sigma = {}
    theta = {}
    for pid, dev in ds.pants.items():
        for tri in (0, 1):
            table = _triangle_table(kernel, ds, pid, tri, 0)
            for pqr in triple_indices(n):
                tau[(pid, tri, pqr)] = table.log_triple_ratio(*pqr)
        for leaf in dev.lam.leaves():
            table = _leaf_table(kernel, ds, pid, leaf)
            for p in range(1, n):
                sigma[(pid, leaf, p)] = table.log_double_ratio(p)
    for cid in ds.curves:
        table = _curve_table(kernel, ds, cid)
        for p in range(1, n):
            theta[(cid, p)] = table.log_double_ratio(p)
    vec = BDVector(n=n, tau=tau, sigma=sigma, theta=theta)
    if vec.size() != expected_size(ds.spec, n):
        raise AssemblyError(
            f"{vec.size()} invariants at n = {n}, the surface combinatorics "
            f"need {expected_size(ds.spec, n)}")
    return vec


# ---------------------------------------------------------------------------
# closed leaf condition


def _side_direction(spec: SurfaceSpec, curve_id: str, side: str) -> bool:
    """True if that side's leaves spiral in the direction of the curve.

    The spiral wraps against the induced boundary orientation for positive
    spiraling; the left pants walks the curve forward, the right one
    backward (convention 3 of the surfaces module).
    """
    pid, slot, _ = spec.side(curve_id, side)
    sgn = spec.pants[pid].spiral_signs[slot]
    return (side == "right") == (sgn == 1)


def closed_leaf_sums(v: BDVector, spec: SurfaceSpec, curve_id: str, p: int,
                     side: str, vertex_rule: str = "verbatim") -> float:
    """The spiral sum R_p (side="right") or L_p (side="left") of a curve.

    Sums run over the spiral crossings of the side's fan: each leaf end
    contributes its shearing invariant (index p or n-p according to whether
    the leaf is oriented toward the curve), and each spike triangle
    contributes a partial row of triangle invariants evaluated at the spike
    vertex.  The two displayed variants (spiraling with or against the
    curve's orientation) differ by global sign and by the index block.

    vertex_rule selects the pairing of the triangle-term index blocks with
    the spike vertex: "verbatim" follows the displayed formulas; "swapped"
    exchanges the two tau blocks (the two readings agree wherever triangle
    invariants vanish, in particular on the whole Fuchsian locus).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not 1 <= p <= v.n - 1:
        raise ValueError(f"index p must be in 1..{v.n - 1}")
    if vertex_rule not in ("verbatim", "swapped"):
        raise ValueError("vertex_rule must be 'verbatim' or 'swapped'")
    n = v.n
    pid, slot, _ = spec.side(curve_id, side)
    lam = spec.pants[pid]
    with_direction = _side_direction(spec, curve_id, side)

    use_first_block = with_direction if vertex_rule == "verbatim" else not with_direction
    if use_first_block:
        tau_terms = [(p, q, n - p - q) for q in range(1, n - p)]
    else:
        tau_terms = [(n - p, q, p - q) for q in range(1, p)]

    total = 0.0
    for step in fan_cycle(lam, slot):
        toward = lam.forward_end(step.leaf) == step.fan_end
        if with_direction:
            idx = p if toward else n - p
        else:
            idx = (n - p) if toward else p
        total += v.sigma[(pid, step.leaf, idx)]
        for pqr in tau_terms:
            total += v.tau_at(pid, step.tri, step.corner, pqr)

    sign = 1.0 if (side == "right") == with_direction else -1.0
    return sign * total


@dataclass(frozen=True)
class ClosedLeafReport:
    """Per curve and index: spiral sums from both sides and the length."""

    n: int
    entries: tuple  # (curve_id, p, R_p, L_p, l_p)

    def max_deviation(self) -> float:
        dev = 0.0
        for _, _, r, l, lp in self.entries:
            dev = max(dev, abs(r - l), abs(r - lp), abs(l - lp))
        return dev

    def to_json_dict(self):
        return {
            "n": self.n,
            "entries": [
                {"curve": cid, "p": p, "R": serialize_value(r),
                 "L": serialize_value(l), "length": serialize_value(lp)}
                for cid, p, r, l, lp in self.entries],
            "max_deviation": serialize_value(self.max_deviation()),
        }


def closed_leaf_report(v: BDVector, ds: DevelopedSurface,
                       vertex_rule: str = "verbatim") -> ClosedLeafReport:
    """R_p, L_p and the symmetric-power length l_p for every curve and p."""
    if v.size() != expected_size(ds.spec, v.n):
        raise ValueError(
            f"invariant vector has {v.size()} coordinates, surface needs "
            f"{expected_size(ds.spec, v.n)} at n = {v.n}")
    entries = []
    for cid in sorted(ds.curves):
        spectrum = length_spectrum(ds.curves[cid].holonomy, v.n)
        for p in range(1, v.n):
            r = closed_leaf_sums(v, ds.spec, cid, p, "right", vertex_rule)
            l = closed_leaf_sums(v, ds.spec, cid, p, "left", vertex_rule)
            entries.append((cid, p, r, l, spectrum[p - 1]))
    return ClosedLeafReport(n=v.n, entries=tuple(entries))


def polytope_membership(report: ClosedLeafReport, tol: float = DEFAULT_TOL):
    """Closed leaf condition: R_p = L_p (within tol) and R_p > 0, every curve.

    Reads the spiral sums of ``closed_leaf_report``.  Returns (ok,
    diagnostics); diagnostics name each violated constraint.
    """
    problems = []
    for cid, p, r, l, _ in report.entries:
        if abs(r - l) > tol:
            problems.append(f"{cid}: R_{p} = {r:.12g} != L_{p} = {l:.12g}")
        if r <= 0:
            problems.append(f"{cid}: R_{p} = {r:.12g} is not positive")
    return (not problems), problems


def slice_membership(v: BDVector, tol: float = DEFAULT_TOL) -> bool:
    """Vanishing triangle block; index-independent shearing and gluing blocks."""
    if any(abs(x) > tol for x in v.tau.values()):
        return False
    by_leaf = {}
    for (pid, leaf, _p), x in v.sigma.items():
        by_leaf.setdefault((pid, leaf), []).append(x)
    for values in by_leaf.values():
        if max(values) - min(values) > tol:
            return False
    by_curve = {}
    for (cid, _p), x in v.theta.items():
        by_curve.setdefault(cid, []).append(x)
    for values in by_curve.values():
        if max(values) - min(values) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# the Fuchsian slice


@dataclass(frozen=True)
class SlicePoint:
    """One shear per biinfinite leaf and one gluing value per curve."""

    shears: dict   # pants_id -> {leaf: float}
    gluing: dict   # curve_id -> float


def slice_point_of(v: BDVector, spec: SurfaceSpec) -> SlicePoint:
    """Read a slice point off an invariant vector (p-averaged blocks)."""
    shears = {pid: {} for pid in spec.pants}
    counts = {}
    for (pid, leaf, _p), x in v.sigma.items():
        shears[pid][leaf] = shears[pid].get(leaf, 0.0) + x
        counts[(pid, leaf)] = counts.get((pid, leaf), 0) + 1
    for pid in shears:
        for leaf in shears[pid]:
            shears[pid][leaf] /= counts[(pid, leaf)]
    gluing = {}
    gcounts = {}
    for (cid, _p), x in v.theta.items():
        gluing[cid] = gluing.get(cid, 0.0) + x
        gcounts[cid] = gcounts.get(cid, 0) + 1
    for cid in gluing:
        gluing[cid] /= gcounts[cid]
    return SlicePoint(shears=shears, gluing=gluing)


def roundtrip_deviation(v: BDVector, sp: SlicePoint) -> float:
    """Largest coordinatewise gap between v and the slice point it realizes:
    |tau|, sigma against the leaf's shear, theta against the curve's gluing."""
    dev = 0.0
    for value in v.tau.values():
        dev = max(dev, abs(value))
    for (pid, leaf, _p), value in v.sigma.items():
        dev = max(dev, abs(value - float(sp.shears[pid][leaf])))
    for (cid, _p), value in v.theta.items():
        dev = max(dev, abs(value - sp.gluing[cid]))
    return dev


def realize_slice(sp: SlicePoint, spec: SurfaceSpec) -> DevelopedSurface:
    """Construct the hyperbolic surface realizing the slice point sp.

    The surface does not depend on a rank: its invariants realize sp at
    every n.  Each pants gets the hyperbolic structure with the prescribed
    shears, and each curve's twist is then solved so the gluing invariant
    hits the prescribed value.  Every fact is checked once, by the code that
    computes it: ``develop_pants`` checks each pants' shear range (the error
    names the pants and its signed spiral sums), ``assemble_surface`` checks
    that the boundary lengths match across each curve (the error names the
    curve), and, since a curve's chart depends only on its own twist, every
    twist solve is checked on the returned surface: its gluing cross ratio
    must be -exp(-gluing) to 1e-9 (relative).
    """
    base = assemble_surface(spec, sp.shears, {cid: 0.0 for cid in spec.curves})
    twists = {cid: solve_twist(base, cid, sp.gluing[cid]) for cid in spec.curves}
    ds = assemble_surface(spec, sp.shears, twists)
    for cid, chart in ds.curves.items():
        r = -math.exp(-float(sp.gluing[cid]))
        residual = abs(chart.gluing_cross_ratio() - r)
        if residual > 1e-9 * max(1.0, abs(r)):
            raise UnreachableTwistError(f"curve {cid}: twist solve residual {residual}")
    return ds


def dimension_counts(spec: SurfaceSpec, n: int) -> dict:
    """Integer bookkeeping: vector size, constraint count, slice dimensions."""
    chi = 2 * (spec.genus - 1)
    curves = len(spec.curves)
    leaves = 3 * chi
    return {
        "N": expected_size(spec, n),
        "closed_leaf_equalities": curves * (n - 1),
        "hitchin_dimension": expected_size(spec, n) - curves * (n - 1),
        "slice_coordinates": leaves + curves,
        "slice_equalities": curves,
        "slice_dimension": leaves + curves - curves,
        "teichmueller_dimension": 6 * spec.genus - 6,
    }
