"""Pants decompositions, shear developing, and twist gluing.

A pair of pants carries a maximal geodesic lamination of one of two kinds:

* kind I: three biinfinite leaves B12, B13, B23, leaf Bij spiraling into the
  boundaries i and j; the two complementary ideal triangles each touch all
  three boundaries;
* kind II: a distinguished boundary i and leaves Bii (both ends spiraling
  into i), Bij, Bik; one triangle carries both sides of Bij, the other both
  sides of Bik, and Bii separates them.

Everything combinatorial is encoded in small tables: each triangle's corners
(0, 1, 2) are listed in counterclockwise order as developed, sides are
ordered corner pairs (u, w) along the boundary walk, and a leaf's two sides
are glued orientation-reversingly (u_A <-> w_B, w_A <-> u_B).  Leaf ends are
named end0 (at u of the first side) and end1 (at w of the first side).

Developing places a base ideal triangle at (0, 1, oo) and crosses leaves by
the cross-ratio rule for the shear x along the leaf: the quadruple
(y, z_new, x, z_known) with counterclockwise (x, z_known, y) satisfies
z(y, z_new, x, z_known) = -exp(-x).

Convention notes (load-bearing, referenced throughout):

1. Placed corner cycles (0, 1, 2) are counterclockwise on the circle.
2. Walking a spike fan by always crossing the side that *ends* at the spike
   corner advances counterclockwise around the spike; the deck map of one
   full period is the inverse of the boundary holonomy induced by the pants
   orientation (region-on-the-left convention).
3. Each decomposing curve is oriented so that the pants of ends[0] lies on
   its left; equivalently the induced boundary orientation of the ends[0]
   pants agrees with the curve's.  In the normalized curve chart the
   repelling fixed point sits at 0, the attracting one at oo, the left side
   develops into the negative half-line and the right side into the positive
   one.
4. Boundary translation lengths are |sum of shears over spiral crossings|,
   counting a leaf once per end spiraling into the boundary (so the doubled
   leaf of kind II counts twice at the distinguished boundary).
5. The pants relation: the deck maps D1, D2, D3 of the three fans, applied
   one after another in the counterclockwise order of the spikes the fans
   start at, compose to +-I.  In kind I those spikes are the corners of
   triangle 0, slots 1, 2, 3 counterclockwise, so D3 D2 D1 = +-I.  In kind
   II they are corners 0 and 1 of triangle 0 and corner 0 of triangle 1
   (developed across Bii), slots j, i, k counterclockwise, which is the
   cyclic order 1, 3, 2 for every distinguished i, so D1 D2 D3 = +-I.

Checks: ``SurfaceSpec`` checks the combinatorics, ``develop_pants`` every
fact about one pants (shears are plain {leaf: value} dicts), and
``assemble_surface`` only what spans a curve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .halfplane import (Mobius, ProjPoint, axis_data, cross_ratio, fourth_point,
                        mobius_to_standard, orientation, wedge)

_LENGTH_MATCH_RTOL = 1e-9   # relative tolerance for lengths across a curve
_INTERNAL_RTOL = 1e-8       # developed length vs shear sum self-check


class LaminationError(ValueError):
    """Malformed lamination or shear data."""


class SurfaceSpecError(ValueError):
    """Malformed surface gluing data."""


class AssemblyError(ValueError):
    """A developing or gluing step degenerated."""


class UnreachableTwistError(ValueError):
    """A realized curve chart missed its target gluing cross ratio."""


SLOTS = (1, 2, 3)


def leaf_name(i: int, j: int) -> str:
    a, b = sorted((i, j))
    return f"B{a}{b}"


def cyclic_pair(i: int) -> tuple[int, int]:
    return (i % 3) + 1, ((i + 1) % 3) + 1


@dataclass(frozen=True)
class PantsLamination:
    """Lamination kind, spiraling signs per boundary, leaf orientations.

    ``spiral_signs[slot]`` is +1 for positive spiraling (the leaves wind
    against the induced boundary orientation) and -1 otherwise.

    ``leaf_orientations`` orients each biinfinite leaf: for a leaf joining
    two distinct boundaries the value is the boundary slot its forward end
    spirals into; for the doubled leaf of kind II it is 0 or 1, naming the
    forward end (end0/end1 as in the side tables).
    """

    kind: str
    spiral_signs: dict
    leaf_orientations: dict
    distinguished: int | None = None

    def __post_init__(self):
        if self.kind not in ("I", "II"):
            raise LaminationError(f"unknown lamination kind {self.kind!r}")
        if self.kind == "II":
            if self.distinguished not in SLOTS:
                raise LaminationError("kind II needs a distinguished boundary 1, 2 or 3")
        elif self.distinguished is not None:
            raise LaminationError("kind I has no distinguished boundary")
        signs = dict(self.spiral_signs)
        if set(signs) != set(SLOTS) or any(s not in (1, -1) for s in signs.values()):
            raise LaminationError("spiral_signs must map slots 1, 2, 3 to +-1")
        orient = dict(self.leaf_orientations)
        for leaf in self.leaves():
            orient.setdefault(leaf, self._default_orientation(leaf))
        if set(orient) != set(self.leaves()):
            unknown = set(orient) - set(self.leaves())
            raise LaminationError(f"orientations for unknown leaves {sorted(unknown)}")
        for leaf, value in orient.items():
            ends = self.leaf_end_slots(leaf)
            if ends[0] == ends[1]:
                if value not in (0, 1):
                    raise LaminationError(f"{leaf} orientation must be an end id 0 or 1")
            elif value not in ends:
                raise LaminationError(f"{leaf} orientation must be one of {ends}")
        object.__setattr__(self, "spiral_signs", signs)
        object.__setattr__(self, "leaf_orientations", orient)

    def _default_orientation(self, leaf: str):
        ends = self.leaf_end_slots(leaf)
        return 0 if ends[0] == ends[1] else min(ends)

    def leaves(self) -> tuple:
        if self.kind == "I":
            return (leaf_name(1, 2), leaf_name(1, 3), leaf_name(2, 3))
        i = self.distinguished
        j, k = cyclic_pair(i)
        return (leaf_name(i, i), leaf_name(i, j), leaf_name(i, k))

    def leaf_end_slots(self, leaf: str) -> tuple[int, int]:
        """(slot of end0, slot of end1), following the side tables."""
        return tables_for(self).leaf_end_slots[leaf]

    def forward_end(self, leaf: str) -> int:
        """End id (0 or 1) of the leaf's forward end under its orientation."""
        value = self.leaf_orientations[leaf]
        ends = self.leaf_end_slots(leaf)
        if ends[0] == ends[1]:
            return value
        return ends.index(value)


@dataclass(frozen=True)
class LeafSide:
    tri: int
    corners: tuple[int, int]  # (u, w), the boundary-walk direction in `tri`


@dataclass(frozen=True)
class LaminationTables:
    corner_slot: dict        # (tri, corner) -> boundary slot
    leaf_sides: dict         # leaf -> (LeafSide A, LeafSide B)
    side_leaf: dict          # (tri, (u, w)) -> (leaf, side index)
    leaf_end_slots: dict     # leaf -> (slot of end0, slot of end1)
    fans: dict               # slot -> tuple of FanSteps, see fan_cycle


_TABLES_CACHE: dict = {}


def tables_for(lam: PantsLamination) -> LaminationTables:
    key = (lam.kind, lam.distinguished)
    if key not in _TABLES_CACHE:
        _TABLES_CACHE[key] = _build_tables(*key)
    return _TABLES_CACHE[key]


def _build_tables(kind: str, distinguished) -> LaminationTables:
    if kind == "I":
        corner_slot = {(0, 0): 1, (0, 1): 2, (0, 2): 3,
                       (1, 0): 1, (1, 1): 3, (1, 2): 2}
        leaf_sides = {
            leaf_name(1, 2): (LeafSide(0, (0, 1)), LeafSide(1, (2, 0))),
            leaf_name(2, 3): (LeafSide(0, (1, 2)), LeafSide(1, (1, 2))),
            leaf_name(1, 3): (LeafSide(0, (2, 0)), LeafSide(1, (0, 1))),
        }
    else:
        i = distinguished
        j, k = cyclic_pair(i)
        corner_slot = {(0, 0): j, (0, 1): i, (0, 2): i,
                       (1, 0): k, (1, 1): i, (1, 2): i}
        leaf_sides = {
            leaf_name(i, j): (LeafSide(0, (0, 1)), LeafSide(0, (2, 0))),
            leaf_name(i, i): (LeafSide(0, (1, 2)), LeafSide(1, (1, 2))),
            leaf_name(i, k): (LeafSide(1, (0, 1)), LeafSide(1, (2, 0))),
        }
    side_leaf = {}
    end_slots = {}
    for leaf, (sa, sb) in leaf_sides.items():
        side_leaf[(sa.tri, sa.corners)] = (leaf, 0)
        side_leaf[(sb.tri, sb.corners)] = (leaf, 1)
        end_slots[leaf] = (corner_slot[(sa.tri, sa.corners[0])],
                           corner_slot[(sa.tri, sa.corners[1])])
    fans = {slot: _walk_fan(corner_slot, leaf_sides, side_leaf, slot)
            for slot in (1, 2, 3)}
    return LaminationTables(corner_slot=corner_slot, leaf_sides=leaf_sides,
                            side_leaf=side_leaf, leaf_end_slots=end_slots, fans=fans)


@dataclass(frozen=True)
class FanStep:
    """One spike corner of a boundary fan and the leaf crossed leaving it."""

    tri: int
    corner: int
    leaf: str
    side: tuple[int, int]
    fan_end: int    # which end of the crossed leaf sits at the spike


def fan_cycle(lam: PantsLamination, slot: int) -> tuple:
    """The period of spike corners around a boundary, in counterclockwise order.

    At each corner the traversal crosses the triangle side that ends at the
    corner; the glue tables carry it to the next spike corner.  The walk is
    made once per lamination kind, with its tables, as a tuple of FanSteps.
    """
    return tables_for(lam).fans[slot]


def _walk_fan(corner_slot: dict, leaf_sides: dict, side_leaf: dict,
              slot: int) -> tuple:
    corners = sorted(c for c, s in corner_slot.items() if s == slot)
    if not corners:
        raise LaminationError(f"no spikes at boundary {slot}")
    start = corners[0]
    steps = []
    cur = start
    while True:
        tri, c = cur
        side = ((c + 2) % 3, c)
        leaf, which = side_leaf[(tri, side)]
        other = leaf_sides[leaf][1 - which]
        steps.append(FanStep(tri=tri, corner=c, leaf=leaf, side=side,
                             fan_end=1 - which))
        cur = (other.tri, other.corners[0])
        if cur == start:
            break
        if len(steps) > len(corner_slot):
            raise LaminationError("fan traversal does not close up")
    if len(steps) != len(corners):
        raise LaminationError("fan traversal missed spike corners")
    return tuple(steps)


# ---------------------------------------------------------------------------
# shears: validity ranges and boundary lengths


def _leaf_shears(lam: PantsLamination, shears: dict) -> dict:
    """The shears as {leaf: float}, keyed by exactly the lamination's leaves."""
    values = {leaf: float(v) for leaf, v in shears.items()}
    if set(values) != set(lam.leaves()):
        raise LaminationError(
            f"shears keyed {sorted(values)}, lamination has leaves {sorted(lam.leaves())}")
    return values


def signed_boundary_sums(lam: PantsLamination, s: dict) -> dict:
    """Per boundary slot, the sum of shears over all ends spiraling into it."""
    return {slot: sum(s[step.leaf] for step in fan_cycle(lam, slot)) for slot in SLOTS}


def _ranged_sums(lam: PantsLamination, s: dict) -> dict:
    """The signed spiral sums of leaf shears s, which must lie in the valid
    range: every boundary needs sign(C) * (sum of shears over ends spiraling
    to C) positive; kind II additionally needs the two simple leaves positive
    (equivalently, positive spiraling at the two plain boundaries)."""
    sums = signed_boundary_sums(lam, s)
    ok = all(lam.spiral_signs[slot] * sums[slot] > 0 for slot in SLOTS)
    if lam.kind == "II":
        i = lam.distinguished
        ok = ok and all(s[leaf_name(i, j)] > 0 for j in cyclic_pair(i))
    if not ok:
        simple = " and positive simple leaves" if lam.kind == "II" else ""
        raise LaminationError(
            f"shears outside the valid range: need sign * (spiral sums) > 0{simple}, "
            f"got sums {sums}")
    return sums


def validate_shears(lam: PantsLamination, shears: dict) -> bool:
    """Whether the shears {leaf: value} lie in the valid range for this
    lamination (see ``_ranged_sums``); wrong leaf keys raise."""
    s = _leaf_shears(lam, shears)
    try:
        _ranged_sums(lam, s)
    except LaminationError:
        return False
    return True


def boundary_lengths(lam: PantsLamination, shears: dict) -> dict:
    """Hyperbolic boundary lengths {slot: float}, |signed spiral sums|."""
    return {slot: abs(v)
            for slot, v in _ranged_sums(lam, _leaf_shears(lam, shears)).items()}


# ---------------------------------------------------------------------------
# developing


@dataclass(frozen=True)
class Placed:
    """A lift of one ideal triangle: its corners placed on the circle."""

    tri: int
    pts: tuple


def _solve_across(e1: ProjPoint, e2: ProjPoint, known: ProjPoint, shear: float) -> ProjPoint:
    """New vertex across the edge (e1, e2) from `known`, at the given shear."""
    if orientation(e1, known, e2) > 0:
        x, y = e1, e2
    else:
        x, y = e2, e1
    r = -math.exp(-float(shear))
    new = fourth_point(y, x, known, r)
    if wedge(new, e1) == 0 or wedge(new, e2) == 0:
        raise AssemblyError("developed vertex collapsed onto the crossed edge")
    return new


def _cross(tables: LaminationTables, placed: Placed, side: tuple[int, int],
           s: dict) -> Placed:
    u, w = side
    leaf, which = tables.side_leaf[(placed.tri, side)]
    other = tables.leaf_sides[leaf][1 - which]
    uo, wo = other.corners
    third = 3 - u - w
    third_o = 3 - uo - wo
    new_vertex = _solve_across(placed.pts[u], placed.pts[w], placed.pts[third],
                               s[leaf])
    pts = [None, None, None]
    pts[wo] = placed.pts[u]
    pts[uo] = placed.pts[w]
    pts[third_o] = new_vertex
    return Placed(other.tri, tuple(pts))


@dataclass(frozen=True)
class FanData:
    """A developed boundary fan, checked by ``develop_pants`` (its length
    matches |shear_sum|, each plaque's short-arc vertex is on its side)."""

    deck: Mobius            # boundary holonomy, induced orientation
    length: float
    shear_sum: float        # signed sum over the period's crossings


@dataclass(frozen=True)
class LeafQuadruple:
    """Developed data of one biinfinite leaf: axis ends and side vertices.

    x is the forward endpoint of the oriented leaf, y the backward one;
    zl and zr are the third vertices of the plaques on its left and right.
    """

    x: ProjPoint
    y: ProjPoint
    zl: ProjPoint
    zr: ProjPoint


@dataclass(frozen=True)
class DevelopedPants:
    lam: PantsLamination
    triangles: dict          # tri -> Placed (one lift of each triangle)
    leaf_quadruples: dict    # leaf -> LeafQuadruple
    fans: dict               # slot -> FanData


_BASE_POINTS = (ProjPoint(0.0, 1.0), ProjPoint(1.0, 1.0), ProjPoint(1.0, 0.0))


def develop_pants(lam: PantsLamination, shears: dict,
                  base_points=None) -> DevelopedPants:
    """Develop one pair of pants from its shear coordinates {leaf: value}.

    Places a base lift of triangle 0 at (0, 1, oo) (or at the given
    counterclockwise base_points), develops one neighboring lift of triangle
    1 and one full fan period around each boundary, and reads off the
    boundary holonomies as the deck maps of the fans.

    Every fact about one pants is checked here, once: the shear keys and
    range (the error shows the signed spiral sums), each leaf's side
    vertices, each boundary's hyperbolic holonomy of length |spiral sum|,
    and, on every fan plaque, that its trailing (short-arc) vertex v lies on
    the pants' side of the axis, orientation(rep, v, att) < 0; that error
    names the boundary slot and the triangle.
    """
    s = _leaf_shears(lam, shears)
    sums = _ranged_sums(lam, s)
    tables = tables_for(lam)
    pts = tuple(base_points) if base_points is not None else _BASE_POINTS
    if len(pts) != 3 or orientation(*pts) <= 0:
        raise AssemblyError("base triangle must be three counterclockwise points")
    base = Placed(0, pts)

    triangles = {0: base}
    for side in ((0, 1), (1, 2), (2, 0)):
        leaf, which = tables.side_leaf[(0, side)]
        if tables.leaf_sides[leaf][1 - which].tri == 1:
            triangles[1] = _cross(tables, base, side, s)
            break
    if 1 not in triangles:
        raise LaminationError("triangle 1 unreachable from triangle 0")

    quadruples = {}
    for leaf, (side_a, side_b) in tables.leaf_sides.items():
        plaque = triangles[side_a.tri]
        neighbor = _cross(tables, plaque, side_a.corners, s)
        u, w = side_a.corners
        end_pts = (plaque.pts[u], plaque.pts[w])   # end0, end1
        fwd = lam.forward_end(leaf)
        x, y = end_pts[fwd], end_pts[1 - fwd]
        s_a = plaque.pts[3 - u - w]
        ou, ow = side_b.corners
        s_b = neighbor.pts[3 - ou - ow]
        if orientation(x, s_a, y) > 0:
            zl, zr = s_a, s_b
        else:
            zl, zr = s_b, s_a
        if orientation(x, zl, y) <= 0 or orientation(x, zr, y) >= 0:
            raise AssemblyError(f"leaf {leaf}: side vertices not separated by the leaf")
        quadruples[leaf] = LeafQuadruple(x=x, y=y, zl=zl, zr=zr)

    fans = {}
    for slot in SLOTS:
        steps = fan_cycle(lam, slot)
        placed = [triangles[steps[0].tri]]
        for step in steps:
            placed.append(_cross(tables, placed[-1], step.side, s))
        first, last = placed[0], placed[-1]
        # convention 2: one period of counterclockwise fan traversal is the
        # inverse of the induced-orientation boundary holonomy
        deck = (mobius_to_standard(*first.pts).inverse()
                @ mobius_to_standard(*last.pts))
        shear_sum = sums[slot]
        try:
            att, rep, length = axis_data(deck)
        except ValueError as exc:
            raise AssemblyError(f"boundary {slot} holonomy is not hyperbolic: {exc}")
        if abs(length - abs(shear_sum)) > _INTERNAL_RTOL * max(1.0, abs(shear_sum)):
            raise AssemblyError(
                f"developed length {length} of boundary {slot} "
                f"does not match shear sum {shear_sum}")
        # the spiral runs toward the non-spike axis end; with positive period
        # sum the traversal runs away from it, so the trailing vertex is on
        # the exit side of the spike corner, otherwise on the entry side
        trailing = 2 if shear_sum > 0 else 1
        for step, plaque in zip(steps, placed):
            if orientation(rep, plaque.pts[(step.corner + trailing) % 3], att) >= 0:
                raise AssemblyError(
                    f"boundary {slot}: the short-arc vertex of triangle {step.tri} "
                    f"developed on the wrong side of the axis")
        fans[slot] = FanData(deck=deck, length=length, shear_sum=shear_sum)
    return DevelopedPants(lam=lam, triangles=triangles,
                          leaf_quadruples=quadruples, fans=fans)


# ---------------------------------------------------------------------------
# closed surfaces


@dataclass(frozen=True)
class SurfaceSpec:
    """A closed genus >= 2 surface glued from pairs of pants.

    ``curves`` maps each decomposing curve to its two ends,
    ((pants_id, slot), (pants_id, slot)), the left side first (convention 3).
    """

    genus: int
    pants: dict              # pants_id -> PantsLamination
    curves: dict             # curve_id -> ((pants_id, slot), (pants_id, slot))

    def __post_init__(self):
        if self.genus < 2:
            raise SurfaceSpecError("closed hyperbolic surfaces need genus >= 2")
        expected_pants = 2 * (self.genus - 1)
        expected_curves = 3 * (self.genus - 1)
        if len(self.pants) != expected_pants:
            raise SurfaceSpecError(
                f"genus {self.genus} needs {expected_pants} pants, got {len(self.pants)}")
        if len(self.curves) != expected_curves:
            raise SurfaceSpecError(
                f"genus {self.genus} needs {expected_curves} curves, got {len(self.curves)}")
        used = {}
        for cid, ends in self.curves.items():
            if len(ends) != 2:
                raise SurfaceSpecError(f"curve {cid} must have exactly two ends")
            for pid, slot in ends:
                if pid not in self.pants:
                    raise SurfaceSpecError(f"curve {cid} references unknown pants {pid!r}")
                if slot not in SLOTS:
                    raise SurfaceSpecError(f"curve {cid} references slot {slot!r}")
                if (pid, slot) in used:
                    raise SurfaceSpecError(
                        f"pants boundary ({pid}, {slot}) glued by both "
                        f"{used[(pid, slot)]} and {cid}")
                used[(pid, slot)] = cid
        for pid in self.pants:
            for slot in SLOTS:
                if (pid, slot) not in used:
                    raise SurfaceSpecError(f"pants boundary ({pid}, {slot}) is unglued")

    def side(self, curve_id: str, side: str) -> tuple:
        """(pants_id, slot) of the named side of a curve: left is its first end."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        return self.curves[curve_id][0 if side == "left" else 1]


@dataclass(frozen=True)
class CurveChart:
    """One decomposing curve in its normalized chart.

    The curve's axis is (0, oo) with the repelling point x at 0 and the
    attracting point y at oo.  The right side is scaled so its side vertex
    zr sits at 1; the left side so that at twist 0 its vertex zl sits
    at -1, and the twist t then moves zl to -exp(2t).  The four points are
    written in closed form, zr = [1 : 1] and zl = [-exp(2t) : 1] (as
    [-1 : exp(-2t)] for t > 0, so nothing overflows), so the gluing cross
    ratio is -exp(-2t) and the gluing invariant is exactly 2t at every rank.
    The chart is the one place a curve's twist is kept.
    """

    length: float
    twist: float
    x: ProjPoint
    y: ProjPoint
    zl: ProjPoint
    zr: ProjPoint

    def gluing_cross_ratio(self) -> float:
        return cross_ratio(self.y, self.zr, self.x, self.zl)


@dataclass(frozen=True)
class DevelopedSurface:
    spec: SurfaceSpec
    pants: dict              # pants_id -> DevelopedPants
    curves: dict             # curve_id -> CurveChart


def assemble_surface(spec: SurfaceSpec, shears: dict, twists: dict,
                     base_points: dict | None = None) -> DevelopedSurface:
    """Develop every pants and glue them with the given twists {curve_id: t}
    (a curve left out has twist 0).

    ``develop_pants`` checks every fact about one pants (its shears, and the
    side of the axis each fan plaque's short-arc vertex develops on); its
    errors are raised again with the pants id in front.  Gluing checks only
    what spans a curve: both sides must develop the same boundary length
    (relative tolerance 1e-9), and the error names the curve.  The chart is
    then written in closed form: zr = 1 and zl = -exp(2t) (see
    ``CurveChart``).  A twist whose zl is 0 or oo in double precision is an
    error that names the curve and the twist.

    base_points optionally places each pants' base triangle elsewhere; all
    invariants are unchanged (the closed-form chart does not depend on it).
    """
    base_points = base_points or {}
    developed = {}
    for pid, lam in spec.pants.items():
        try:
            developed[pid] = develop_pants(lam, shears[pid], base_points=base_points.get(pid))
        except (LaminationError, AssemblyError) as exc:
            raise type(exc)(f"pants {pid}: {exc}") from exc
    charts = {}
    for cid, ((pid_l, slot_l), (pid_r, slot_r)) in spec.curves.items():
        len_l = developed[pid_l].fans[slot_l].length
        len_r = developed[pid_r].fans[slot_r].length
        if abs(len_l - len_r) > _LENGTH_MATCH_RTOL * max(1.0, len_l):
            raise AssemblyError(
                f"curve {cid}: boundary lengths differ across the gluing "
                f"({len_l:.17g} left vs {len_r:.17g} right)")
        t = float(twists.get(cid, 0.0))
        e = math.exp(-2.0 * abs(t))   # zl = [-1 : e] for t > 0, [-e : 1] otherwise
        if not e > 0.0:
            raise AssemblyError(
                f"curve {cid}: twist {t:.17g} puts zl = -exp(2t) at "
                f"{'0' if t < 0 else 'infinity'} in double precision")
        charts[cid] = CurveChart(
            length=len_l, twist=t,
            x=ProjPoint(0.0, 1.0), y=ProjPoint.infinity("float"),
            zl=ProjPoint(-1.0, e) if t > 0 else ProjPoint(-e, 1.0),
            zr=ProjPoint(1.0, 1.0))
    return DevelopedSurface(spec=spec, pants=developed, curves=charts)


def solve_twist(target_w: float) -> float:
    """The twist at which a curve's gluing invariant is ``target_w``.

    The chart puts x = 0, y = oo, zr = 1 and zl = -exp(2t), so its gluing
    cross ratio z(y, zr, x, zl) is -exp(-2t) and its gluing invariant is 2t
    at every rank: the twist is half the target.  ``bd.realize_slice``
    checks the gluing cross ratio of every curve on the surface it returns.
    """
    return float(target_w) / 2.0


# ---------------------------------------------------------------------------
# the canonical two-pants genus-2 surface


def genus2_spec() -> SurfaceSpec:
    """Two kind-I pants sharing all three curves, signs +1: the canonical test surface."""
    pants = {pid: PantsLamination(kind="I", spiral_signs={slot: 1 for slot in SLOTS},
                                  leaf_orientations={})
             for pid in ("P0", "P1")}
    curves = {f"C{i}": (("P0", i), ("P1", i)) for i in SLOTS}
    return SurfaceSpec(genus=2, pants=pants, curves=curves)
