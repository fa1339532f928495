"""The Veronese flag curve.

R^n is identified with the homogeneous polynomials of degree n-1 in X, Y via
the fixed monomial basis b_1 = X^{n-1}, b_2 = X^{n-2} Y, ..., b_n = Y^{n-1}.
A 2x2 matrix acts by substitution on (X, Y), giving the (projectivized)
irreducible representation into PSL(n, R), and the curve is equivariant under
it; the boundary point [a : b] maps to the osculating flag of the rational
normal curve, realized concretely by the basis

    v_d = (a X + b Y)^{n-d} (b X - a Y)^{d-1},      d = 1, ..., n,

whose leading vector is the Veronese image (a X + b Y)^{n-1} and whose level-d
span is exactly the multiples of (a X + b Y)^{n-d}.  The auxiliary factor
(b X - a Y) is a uniform choice of complement that is invertible against
(a X + b Y) for every real [a : b], so the same formula covers 0 and infinity.

Exact flags are expanded in integer arithmetic: the point is written over a
common denominator D as [A/D : B/D], the rows are expanded at [A : B], and,
when D != 1, divided by D^(n-1) (the rows are homogeneous of degree n-1).
"""
from __future__ import annotations

import math

from .scalars import FLOAT
from .flags import Flag
from .halfplane import ProjPoint


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return out


def flag_rows(a, b, n: int, one=1):
    """Raw basis rows v_1, ..., v_n of the Veronese flag at [a : b].

    The coefficients live in the ring of a, b and ``one``: plain ints give
    the exact integer rows the invariant kernel of the bd module stacks.
    """
    if n < 2:
        raise ValueError("veronese flags need n >= 2")
    lead, aux = [[one]], [[one]]
    for _ in range(n - 1):   # the powers (a X + b Y)^k and (b X - a Y)^k
        lead.append(_poly_mul(lead[-1], [a, b]))
        aux.append(_poly_mul(aux[-1], [b, -a]))
    return [_poly_mul(lead[n - d], aux[d - 1]) for d in range(1, n + 1)]


def veronese_flag(p: ProjPoint, n: int) -> Flag:
    """The osculating flag of the Veronese curve at a boundary point; an
    exact point's rows are expanded in integers over its common denominator
    D and passed to the flag with the scale D^(n-1)."""
    if p.mode == FLOAT:
        return Flag(flag_rows(p.a, p.b, n, 1.0))
    d = math.lcm(p.a.denominator, p.b.denominator)
    rows = flag_rows(p.a.numerator * (d // p.a.denominator),
                     p.b.numerator * (d // p.b.denominator), n)
    return Flag.from_integer_rows(rows, d ** (n - 1))
