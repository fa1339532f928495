"""Bonahon-Dreyer invariants of developed surfaces and the Fuchsian slice.

For a hyperbolic surface developed from shear and twist data, the invariants
of the induced representation into PSL(n, R) are computed through the
Veronese flag curve: triangle invariants are logs of triple ratios at ideal
triangle vertices, shearing invariants are logs of double ratios at leaf
quadruples, gluing invariants are logs of double ratios at the short-arc
quadruples of the decomposing curves.

The invariants are exact at the developed points.  Each point, float or
rational, is converted to integer homogeneous coordinates of the same value
(a float is a dyadic rational), and the triangular integer Veronese flag
rows (``veronese.exact_flag_rows``) are built once per distinct point of
one computation: the points are the ids of one ``flags.WedgeTrie`` of
integer Bareiss elimination states (``veronese_trie``).  Each triangle and
each quadruple gets a ``flags.WedgeTable`` of that trie, holding the
stacked wedges its ratios need, and the ratio formulas are that table's.
So a stack of leading rows shared by many wedges is reduced once, and
every entry is checked exactly nonzero.  On the default base chart
every table holds the flag at 0 (the base triangle is (0, 1, infinity) and
each curve chart has its repelling point at 0): the trie reads a wedge
through it off the last pivot of the other blocks, their leading minor, and
appends that flag's rows only when the other blocks pivoted out of order or
are dependent.

Much of that work does not depend on the surface: at n = 8, 170 of a
surface's 312 entries stack only the flags at 0, 1 and infinity (every
triangle 0 is the base triangle, and each other table holds one point
besides).  So every Veronese trie borrows those three flags from a base,
one per rank and mode per process (``_base``), which keeps every state
that stacks them alone and every table entry that does, per key pattern
(``veronese_trie``), and the tau row of each triangle of base flags alone,
read once per rank.  Each table computes each entry once, however many of
its ratios read it, and ``bd_vector`` turns each developed point into
integers once.

Each ratio's sign is checked exactly, and only its final quotient is
rounded and passed to the log.  The float genericity threshold of the
flags module plays no part here, so a triangle invariant of a developed
surface is exactly 0.  Every table and every log ratio (``_log_ratio``)
names its object in errors; a log ratio formats that name only when it
raises.

The closed leaf condition ties these to the length spectrum: for each curve
and each index p, the right and left spiral sums R_p and L_p both equal the
p-th eigenvalue-gap length of the curve's holonomy.  ``closed_leaf_report``
walks each side's fan once and reads every p's sum off that walk, adding
the terms of rows built once per rank, fan crossings and vertex rule
(``_spiral_terms``).  On the
Fuchsian locus every such length is the curve's hyperbolic length, which
the developed surface carries for each curve.  The slice of the
parameter polytope carved out by vanishing triangle invariants and
index-independent shearing/gluing invariants is exactly the image of the
hyperbolic structures, and ``realize_slice`` constructs the hyperbolic
surface realizing any point of it.  In a curve chart the gluing invariant
is exactly twice the curve's twist (``surfaces.CurveChart``), so a slice
point is realized by one assembly at twist = gluing / 2; ``bd_vector``
still reads every gluing invariant off the trie's wedges at the chart's
four points.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from .scalars import EXACT, serialize_value
from .flags import WedgeTable, WedgeTrie
from .halfplane import ProjPoint
from .veronese import Chart, exact_flag_rows, flag_rows
from .surfaces import (BASE_CHART, AssemblyError, CurveChart, DevelopedSurface, SurfaceSpec,
                       UnreachableTwistError, assemble_surface, fan_cycle, solve_twist)

TOL = 1e-9
"""The acceptance tolerance of every slice and closed-leaf equality, and of the suites."""

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
# wedge tables of Veronese flags


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


class _Base(NamedTuple):
    """What one rank and mode share per process: the trie of the flags at
    0, 1 and infinity, and the tau row of each triangle of those flags
    alone, by its keys (``bd_vector``)."""

    trie: WedgeTrie
    tau_rows: dict


_BASE_TRIES = {}   # (n, mode) -> its _Base, shared per process


def _base(n: int, mode: str) -> _Base:
    """The process's base of the rank and mode, made on first use."""
    base = _BASE_TRIES.get((n, mode))
    if base is None:   # keyed before it is shared
        rows = exact_flag_rows if mode == EXACT else flag_rows
        trie = WedgeTrie(n, lambda point: rows(*point, n), mode, None)
        trie.keys_of([_integer_point(pt) for pt in BASE_CHART])
        base = _BASE_TRIES.setdefault((n, mode), _Base(trie, {}))
    return base


def veronese_trie(n: int, mode: str, chart=None) -> WedgeTrie:
    """The trie of the Veronese flags of one computation (one
    :func:`bd_vector`, or one case of an identity suite), named by their
    integer points (``_integer_point``), whose every table shares its
    states.  Its rows and elimination step are the mode's: the triangular
    integer rows (``exact_flag_rows``) with the Bareiss step, or the
    orthonormal float rows at those integers (``flag_rows``) with the float
    step.  The flags at 0, 1 and infinity (``surfaces.BASE_CHART``) take
    its first keys from the process's base trie of the rank and mode
    (``_base``), which holds every state that stacks only those flags, and
    every table entry that does, per table pattern; so each is eliminated
    and read once per process.

    With a ``chart`` point (exact mode only: an exact identity-suite case
    passes its first point), the trie has no base, and each point's rows
    are the exact rows at its image under the ``veronese.Chart`` g that
    sends the chart point to 0.  They span g's image of the point's flag
    level by level, so each wedge gains a nonzero factor per level that
    every ratio cancels, and the chart point's flag is the unit rows of the
    flag at 0 (``flags.WedgeTrie.wedge``), never stacked."""
    if chart is not None:
        if mode != EXACT:
            raise ValueError("a chart moves exact rows only")
        chart = Chart(*_integer_point(chart))
        return WedgeTrie(n, lambda point: exact_flag_rows(*chart(point), n), mode, None)
    base = _base(n, mode).trie
    return WedgeTrie(n, base.rows_of, mode, base)


def veronese_table(trie: WedgeTrie, points, where: str) -> WedgeTable:
    """The wedge table of the flags of a Veronese trie at ``points``;
    ``where`` places it in errors ("at pants P0 triangle 1")."""
    return trie.table([_integer_point(pt) for pt in points], where)


def _log_ratio(table: WedgeTable, name: str, index, num: int, den: int) -> float:
    """The log of the ratio num / den of a table, named ``name`` and its
    ``index`` in errors ("double ratio D_" and 3): the sign checked exactly,
    the log taken of the correctly rounded quotient.  A ratio outside the
    double range is named by the log of its magnitude, whatever its sign."""
    try:
        quotient = num / den
    except OverflowError:
        quotient = math.inf
    positive = (num > 0) == (den > 0)
    if positive and sys.float_info.min <= quotient < math.inf:   # a subnormal loses digits
        return math.log(quotient)
    named = f"{name}{index} {table.where}"
    if sys.float_info.min <= abs(quotient) < math.inf:
        raise AssemblyError(f"{named} is not positive: {quotient:.6g} at n = {table.n}")
    what = ("is outside the double range: its log" if positive else
            "is not positive and outside the double range: the log of its magnitude")
    raise AssemblyError(f"{named} {what} is "
                        f"{math.log(abs(num)) - math.log(abs(den)):.6g} at n = {table.n}")


class BDVector(NamedTuple):
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

    def serialized(self):
        """The JSON ``invariants`` block and the CSV rows of the vector, in
        one canonically ordered pass that serializes each value once: the
        rows are those of :meth:`rows` with each value as text."""
        tau, sigma, theta, rows = [], [], [], []
        for (pid, tri, (p, q, r)), v in sorted(self.tau.items()):
            text = serialize_value(v)
            tau.append({"pants": pid, "triangle": tri, "p": p, "q": q, "r": r, "value": text})
            rows.append(("tau", f"{pid}/T{tri}", p, q, r, text))
        for (pid, leaf, p), v in sorted(self.sigma.items()):
            text = serialize_value(v)
            sigma.append({"pants": pid, "leaf": leaf, "p": p, "value": text})
            rows.append(("sigma", f"{pid}/{leaf}", p, "", "", text))
        for (cid, p), v in sorted(self.theta.items()):
            text = serialize_value(v)
            theta.append({"curve": cid, "p": p, "value": text})
            rows.append(("theta", cid, p, "", "", text))
        return {"n": self.n, "tau": tau, "sigma": sigma, "theta": theta}, rows


def expected_size(spec: SurfaceSpec, n: int) -> int:
    """3|chi|/2 gluing + 3|chi| shearing blocks of size n-1, plus 2|chi|
    triangle blocks of size (n-1 choose 2)."""
    chi = 2 * (spec.genus - 1)
    return (3 * chi // 2) * (n - 1) + 3 * chi * (n - 1) + 2 * chi * math.comb(n - 1, 2)


def bd_vector(ds: DevelopedSurface, n: int) -> BDVector:
    """All invariants of the developed surface at rank n, off one Veronese
    trie: each ratio read off its table at its index, in index order.

    Each developed point is converted to integers once, and the tau row of
    a triangle of base flags alone (every triangle 0 on the default base
    chart) is read once per rank and process and kept in its ``_base``."""
    tau_rows = _base(n, EXACT).tau_rows
    trie = veronese_trie(n, EXACT)
    integer = {}   # id of a point of ds -> its integer point

    def table(points, where):
        return trie.table([integer.get(id(pt)) or integer.setdefault(id(pt), _integer_point(pt))
                           for pt in points], where)

    triples, doubles = triple_indices(n), range(1, n)
    tau = {}
    sigma = {}
    theta = {}
    for pid, dev in ds.pants.items():
        for tri in (0, 1):
            pts = dev.triangles[tri].pts   # clockwise from the canonical vertex
            tri_table = table([pts[c] for c in _CW_ORDER], f"at pants {pid!r} triangle {tri}")
            row = tau_rows.get(tri_table.pattern)
            if row is None:
                row = [_log_ratio(tri_table, "triple ratio T_", pqr, *tri_table.triple_ratio(*pqr))
                       for pqr in triples]
                if None not in tri_table.pattern:   # base flags alone
                    tau_rows[tri_table.pattern] = row
            tau.update(((pid, tri, pqr), value) for pqr, value in zip(triples, row))
        for leaf in dev.lam.leaves():
            q = dev.leaf_quadruples[leaf]
            leaf_table = table((q.x, q.y, q.zl, q.zr), f"at pants {pid!r} leaf {leaf}")
            for p in doubles:
                sigma[(pid, leaf, p)] = _log_ratio(leaf_table, "double ratio D_", p,
                                                   *leaf_table.double_ratio(p))
    for cid, c in ds.curves.items():
        curve_table = table((c.x, c.y, c.zl, c.zr), f"at curve {cid!r}")
        for p in doubles:
            theta[(cid, p)] = _log_ratio(curve_table, "double ratio D_", p,
                                         *curve_table.double_ratio(p))
    return BDVector(n=n, tau=tau, sigma=sigma, theta=theta)


# ---------------------------------------------------------------------------
# closed leaf condition


def _spiral_sums(v: BDVector, spec: SurfaceSpec, curve_id: str, side: str,
                 vertex_rule: str) -> list:
    """The spiral sums R_p (side="right") or L_p (side="left") of a curve,
    p = 1, ..., n - 1, off one walk of the side's fan.

    Sums run over the spiral crossings of the side's fan: each leaf end
    contributes its shearing invariant (index p or n-p according to whether
    the leaf is oriented toward the curve), and each spike triangle
    contributes a partial row of triangle invariants evaluated at the spike
    vertex.  The two displayed variants (spiraling with or against the
    curve's orientation) differ by the index block and by the global sign,
    which is the boundary's spiral sign.

    vertex_rule selects the pairing of the triangle-term index blocks with
    the spike vertex: "verbatim" follows the displayed formulas; "swapped"
    exchanges the two tau blocks (the two readings agree wherever triangle
    invariants vanish, in particular on the whole Fuchsian locus).
    """
    n = v.n
    pid, slot = spec.side(curve_id, side)
    lam = spec.pants[pid]
    sign = lam.spiral_signs[slot]
    # the spiral wraps against the induced boundary orientation for positive
    # spiraling; the left pants walks the curve forward, the right one
    # backward (convention 3 of the surfaces module)
    with_direction = (side == "right") == (sign == 1)
    leading_p = with_direction == (vertex_rule == "verbatim")
    # per crossing: its leaf, whether the leaf reads index p (else n - p),
    # its spike triangle, and the rotation from the canonical vertex
    crossings = tuple((step.leaf, (lam.forward_end(step.leaf) == step.fan_end) == with_direction,
                       step.tri, _CW_ORDER.index(step.corner))
                      for step in fan_cycle(lam, slot))
    sigma, tau = v.sigma, v.tau
    sums = []
    for row in _spiral_terms(n, crossings, leading_p):
        total = 0.0
        for leaf, index, tri, tau_terms in row:
            total += sigma[(pid, leaf, index)]
            for pqr in tau_terms:
                total += tau[(pid, tri, pqr)]
        sums.append(sign * total)
    return sums


@functools.lru_cache(maxsize=None)
def _spiral_terms(n: int, crossings: tuple, leading_p: bool) -> tuple:
    """The terms of one side's spiral sums, p = 1, ..., n - 1, off its fan's
    ``crossings`` (see ``_spiral_sums``): per p and crossing, the leaf, its
    shearing index, the spike triangle and the triangle terms' indices
    rotated to the canonical vertex, in summation order.  They depend on
    the rank and the lamination alone, so each is built once per process."""
    rows = []
    for p in range(1, n):
        if leading_p:
            tau_terms = [(p, q, n - p - q) for q in range(1, n - p)]
        else:
            tau_terms = [(n - p, q, p - q) for q in range(1, p)]
        rows.append(tuple((leaf, p if at_p else n - p, tri,
                           tuple(_rotate_indices(pqr, steps) for pqr in tau_terms))
                          for leaf, at_p, tri, steps in crossings))
    return tuple(rows)


class ClosedLeafReport(NamedTuple):
    """Per curve and index: spiral sums from both sides and the length."""

    n: int
    entries: tuple  # (curve_id, p, R_p, L_p, l_p)

    def max_deviation(self) -> float:
        dev = 0.0
        for _, _, r, l, lp in self.entries:
            dev = max(dev, abs(r - l), abs(r - lp), abs(l - lp))
        return dev

    def to_json_dict(self):
        """The entries, their largest deviation, and whether it is within ``TOL``."""
        deviation = self.max_deviation()
        return {
            "n": self.n,
            "entries": [
                {"curve": cid, "p": p, "R": serialize_value(r),
                 "L": serialize_value(l), "length": serialize_value(lp)}
                for cid, p, r, l, lp in self.entries],
            "max_deviation": serialize_value(deviation),
            "holds": deviation <= TOL,
        }


def closed_leaf_report(v: BDVector, ds: DevelopedSurface,
                       vertex_rule: str = "verbatim") -> ClosedLeafReport:
    """R_p, L_p and the length l_p for every curve and p.

    Each side of each curve resolves its fan once, its leaf indices and
    spike rotations, and fills its spiral sum for every p (``vertex_rule``:
    see ``_spiral_sums``).  The symmetric power of a hyperbolic element
    with eigenvalues lambda^(+-1) has eigenvalues lambda^(n-1),
    lambda^(n-3), ..., lambda^(1-n), so every eigenvalue-gap length l_p is
    the curve's hyperbolic length: the translation length of its left fan's
    developed deck map, which every gluing checks against the right fan.
    """
    if v.size() != expected_size(ds.spec, v.n):
        raise ValueError(
            f"invariant vector has {v.size()} coordinates, surface needs "
            f"{expected_size(ds.spec, v.n)} at n = {v.n}")
    if vertex_rule not in ("verbatim", "swapped"):
        raise ValueError("vertex_rule must be 'verbatim' or 'swapped'")
    entries = []
    for cid in sorted(ds.curves):
        length = ds.curves[cid].length
        right = _spiral_sums(v, ds.spec, cid, "right", vertex_rule)
        left = _spiral_sums(v, ds.spec, cid, "left", vertex_rule)
        entries += [(cid, p, r, l, length) for p, r, l in zip(range(1, v.n), right, left)]
    return ClosedLeafReport(n=v.n, entries=tuple(entries))


def polytope_membership(report: ClosedLeafReport):
    """Closed leaf condition: R_p = L_p (within ``TOL``) and R_p > 0, every curve.

    Reads the spiral sums of ``closed_leaf_report``.  Returns (ok,
    diagnostics); diagnostics name each violated constraint.
    """
    problems = []
    for cid, p, r, l, _ in report.entries:
        if abs(r - l) > TOL:
            problems.append(f"{cid}: R_{p} = {r:.12g} != L_{p} = {l:.12g}")
        if r <= 0:
            problems.append(f"{cid}: R_{p} = {r:.12g} is not positive")
    return (not problems), problems


def slice_deviations(v: BDVector) -> dict:
    """Per object, how far v lies off the slice: |tau| per triangle
    invariant, keyed ("tau", key); the spread over p of sigma per leaf,
    ("sigma", pid, leaf); and of theta per curve, ("theta", cid)."""
    devs = {("tau", key): abs(x) for key, x in v.tau.items()}
    spreads = {}
    for (pid, leaf, _p), x in v.sigma.items():
        spreads.setdefault(("sigma", pid, leaf), []).append(x)
    for (cid, _p), x in v.theta.items():
        spreads.setdefault(("theta", cid), []).append(x)
    devs.update((key, max(xs) - min(xs)) for key, xs in spreads.items())
    return devs


def slice_membership(v: BDVector) -> bool:
    """Vanishing triangle block; index-independent shearing and gluing blocks (to TOL)."""
    return not any(dev > TOL for dev in slice_deviations(v).values())


# ---------------------------------------------------------------------------
# the Fuchsian slice


class SlicePoint(NamedTuple):
    """One shear per biinfinite leaf and one gluing value per curve."""

    shears: dict   # pants_id -> {leaf: float}
    gluing: dict   # curve_id -> float


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


def twist_residual(chart: CurveChart, gluing: float) -> float:
    """Relative gap |z - r| / max(1, |r|) between a chart's gluing cross
    ratio z and its target r = -exp(-gluing), computed without exp(|gluing|)."""
    z = chart.gluing_cross_ratio()
    if gluing >= 0:
        return abs(z + math.exp(-gluing))
    return abs(z * math.exp(gluing) + 1.0)


def realize_slice(sp: SlicePoint, spec: SurfaceSpec) -> DevelopedSurface:
    """Construct the hyperbolic surface realizing the slice point sp.

    The surface does not depend on a rank: its invariants realize sp at
    every n.  It is one ``assemble_surface`` with the prescribed shears at
    the twists ``solve_twist`` reads off the gluing values (half of each).
    Every fact is checked once, by the code that computes it:
    ``develop_pants`` checks each pants' shear range (the error names the
    pants and its signed spiral sums), the gluing checks that the boundary
    lengths match across each curve (the error names the curve), and each
    curve's chart must meet its target, ``twist_residual`` at most ``TOL``.
    """
    twists = {cid: solve_twist(sp.gluing[cid]) for cid in spec.curves}
    ds = assemble_surface(spec, sp.shears, twists)
    for cid, chart in ds.curves.items():
        residual = twist_residual(chart, float(sp.gluing[cid]))
        if residual > TOL:
            raise UnreachableTwistError(
                f"curve {cid!r}: twist solve residual {residual:.3g} (relative) "
                f"above {TOL:.3g} at gluing {sp.gluing[cid]!r}")
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
