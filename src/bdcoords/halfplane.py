"""Boundary geometry of the upper half-plane.

Points of the circle at infinity RP^1 are homogeneous pairs [a : b] (so that
infinity = [1:0] is an ordinary citizen), Moebius maps are 2x2 matrices acting
projectively, and everything downstream is built from the four-point cross
ratio normalized so that z(0, 1, oo, d) = d.

Orientation convention: the boundary circle is oriented counterclockwise,
which for the upper half-plane means increasing real direction (wrapping
through infinity).  ``orientation(a, b, c)`` is +1 for counterclockwise
triples, -1 for clockwise ones.
"""
from __future__ import annotations

import math

from .scalars import EXACT, FLOAT, join_mode, settle_mode

_HYPERBOLIC_TOL = 1e-12  # |trace| must exceed 2 by this much in float mode


class DegenerateConfigurationError(ValueError):
    """A boundary configuration violates a genericity precondition."""


class ProjPoint:
    """A point of RP^1 in homogeneous coordinates [a : b]; oo = [1:0]."""

    __slots__ = ("a", "b", "mode")

    def __init__(self, a, b):
        mode, (a, b) = settle_mode((a, b))
        if a == 0 and b == 0:
            raise ValueError("[0 : 0] is not a projective point")
        if mode == FLOAT:
            # keep homogeneous coordinates well scaled
            s = max(abs(a), abs(b))
            a, b = a / s, b / s
        self.a, self.b, self.mode = a, b, mode

    @classmethod
    def infinity(cls, mode: str = EXACT) -> "ProjPoint":
        return cls(1.0, 0.0) if mode == FLOAT else cls(1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        join_mode(self.mode, other.mode)
        cross = self.a * other.b - self.b * other.a
        if self.mode == EXACT:
            return cross == 0
        # float coordinates are normalized to max-abs 1 at construction
        return abs(cross) <= 1e-9

    def __hash__(self):
        raise TypeError("ProjPoint is unhashable (projective equality)")

    def __repr__(self):
        return f"ProjPoint({self.a!r}, {self.b!r})"


def wedge(p: ProjPoint, q: ProjPoint):
    """The pairing p ^ q = a_p b_q - b_p a_q (0 iff p == q projectively)."""
    join_mode(p.mode, q.mode)
    return p.a * q.b - p.b * q.a


def orientation(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> int:
    """+1 if (a, b, c) is counterclockwise on the boundary circle, -1 if
    clockwise, 0 if degenerate.  Invariant under rescaling representatives."""
    w = wedge(a, b) * wedge(b, c) * wedge(c, a)
    return (w > 0) - (w < 0)


def is_clockwise(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> bool:
    return orientation(a, b, c) < 0


def cross_ratio(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint):
    """z(a,b,c,d) = (d-a)(b-c) / ((d-c)(b-a)), evaluated projectively.

    Normalized so that z(0, 1, oo, d) = d.  Degenerate quadruples (d = c or
    b = a, or coincidences making the value 0/0) raise.
    """
    num = wedge(d, a) * wedge(b, c)
    den = wedge(d, c) * wedge(b, a)
    if den == 0:
        raise DegenerateConfigurationError("cross ratio undefined: d = c or b = a")
    return num / den


def fourth_point(a: ProjPoint, c: ProjPoint, d: ProjPoint, r) -> ProjPoint:
    """The unique b with cross_ratio(a, b, c, d) = r (a projective-linear solve).

    r must be in the points' mode or a plain int.
    """
    da, dc = wedge(d, a), wedge(d, c)
    settle_mode([r], a.mode)
    # (b ^ c) * (d ^ a) = r * (b ^ a) * (d ^ c), linear in b = [b1 : b2]
    b1 = c.a * da - r * a.a * dc
    b2 = c.b * da - r * a.b * dc
    return ProjPoint(b1, b2)


class Mobius:
    """A projective 2x2 real matrix acting on RP^1.

    Float-mode matrices are normalized to |det| = 1 (and det's sign is kept:
    det > 0 for the orientation-preserving maps used everywhere in the
    geometry; det < 0 can arise from 3-point interpolation of a reversing
    triple).  Exact-mode matrices are kept as given, up to projective
    equality M == -M.
    """

    __slots__ = ("m", "mode")

    def __init__(self, rows):
        (a, b), (c, d) = rows
        mode, (a, b, c, d) = settle_mode((a, b, c, d))
        det = a * d - b * c
        if det == 0:
            raise ValueError("singular matrix is not a Moebius map")
        if mode == FLOAT:
            s = math.sqrt(abs(det))
            a, b, c, d = a / s, b / s, c / s, d / s
        self.m = ((a, b), (c, d))
        self.mode = mode

    def trace_normalized(self) -> float:
        """tr(M / sqrt(det M)) up to sign; requires det > 0."""
        (a, b), (c, d) = self.m
        det = a * d - b * c
        if det <= 0:
            raise ValueError("trace normalization needs det > 0")
        return float(a + d) / math.sqrt(float(det))

    def inverse(self) -> "Mobius":
        (a, b), (c, d) = self.m
        return Mobius([[d, -b], [-c, a]])

    def __matmul__(self, other: "Mobius") -> "Mobius":
        join_mode(self.mode, other.mode)
        (a, b), (c, d) = self.m
        (e, f), (g, h) = other.m
        return Mobius([[a * e + b * g, a * f + b * h],
                       [c * e + d * g, c * f + d * h]])

    def __call__(self, p: ProjPoint) -> ProjPoint:
        join_mode(self.mode, p.mode)
        (a, b), (c, d) = self.m
        return ProjPoint(a * p.a + b * p.b, c * p.a + d * p.b)

    def __repr__(self):
        return f"Mobius({[list(r) for r in self.m]!r})"


def mobius_to_standard(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> Mobius:
    """The unique projective map sending a -> oo, b -> 1, c -> 0.

    For a clockwise triple this is orientation-preserving (det > 0); for a
    counterclockwise triple it reverses orientation.
    """
    ba, bc = wedge(b, a), wedge(b, c)
    if ba == 0 or bc == 0 or wedge(a, c) == 0:
        raise DegenerateConfigurationError("three-point interpolation needs distinct points")
    # v  |-->  [ (v ^ c) (b ^ a) : (v ^ a) (b ^ c) ]
    return Mobius([[c.b * ba, -c.a * ba], [a.b * bc, -a.a * bc]])


def shear_from_quadruple(y: ProjPoint, zr: ProjPoint, x: ProjPoint, zl: ProjPoint) -> float:
    """Shear of two ideal triangles glued along (x, y): log -z(y, zr, x, zl)^(-1).

    (x, zl, y, zr) must be the vertices of the two triangles in cyclic order
    around the circle, which makes the cross ratio negative.
    """
    z = cross_ratio(y, zr, x, zl)
    if z >= 0:
        raise DegenerateConfigurationError(
            f"quadruple is not an adjacent-triangle configuration (z = {z})")
    return math.log(-1.0 / float(z))


def axis_data(m: Mobius):
    """(attracting, repelling, translation_length) of a hyperbolic element.

    Raises on non-hyperbolic input (|trace| <= 2 + tol after normalizing
    det = 1): gluing constructions must fail loudly at parabolics.
    """
    tr = m.trace_normalized()
    if abs(tr) <= 2.0 + _HYPERBOLIC_TOL:
        raise ValueError(f"not a hyperbolic element: |trace| = {abs(tr):.17g}")
    (a, b), (c, d) = (tuple(map(float, row)) for row in m.m)
    det = a * d - b * c
    s = math.sqrt(det)
    a, b, c, d = a / s, b / s, c / s, d / s
    disc = math.sqrt(tr * tr - 4.0)
    lam_plus = (tr + disc) / 2.0
    lam_minus = (tr - disc) / 2.0
    if abs(lam_plus) >= abs(lam_minus):
        lam_att, lam_rep = lam_plus, lam_minus
    else:
        lam_att, lam_rep = lam_minus, lam_plus
    if c != 0.0:
        att = ProjPoint(lam_att - d, c)
        rep = ProjPoint(lam_rep - d, c)
    elif b != 0.0:
        att = ProjPoint(b, lam_att - a)
        rep = ProjPoint(b, lam_rep - a)
    else:
        # diagonal: fixed points 0 and oo
        if abs(a) >= abs(d):
            att, rep = ProjPoint.infinity(FLOAT), ProjPoint(0.0, 1.0)
        else:
            att, rep = ProjPoint(0.0, 1.0), ProjPoint.infinity(FLOAT)
    length = 2.0 * math.acosh(abs(tr) / 2.0)
    return att, rep, length


def sort_ccw(points) -> list:
    """Sort boundary points into counterclockwise circle order.

    Increasing real order with infinity as the final wrap point; pure
    convenience for building oriented test configurations.
    """
    def key(p: ProjPoint):
        if p.is_infinity:
            return (1, 0)
        return (0, p.a / p.b)
    return sorted(points, key=key)
