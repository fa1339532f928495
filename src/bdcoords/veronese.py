"""Symmetric-power representation and the Veronese flag curve.

R^n is identified with the homogeneous polynomials of degree n-1 in X, Y via
the fixed monomial basis b_1 = X^{n-1}, b_2 = X^{n-2} Y, ..., b_n = Y^{n-1}.
A 2x2 matrix acts by substitution on (X, Y), giving the (projectivized)
irreducible representation into PSL(n, R); the boundary point [a : b] maps to
the osculating flag of the rational normal curve, realized concretely by the
basis

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
from fractions import Fraction

from .scalars import FLOAT
from .multilinear import Matrix
from .flags import Flag
from .halfplane import Mobius, ProjPoint, axis_data


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return out


def _poly_pow(p, k, one):
    out = [one]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def irrep_n(A: Mobius, n: int) -> Matrix:
    """The symmetric-power image of a 2x2 matrix, in the monomial basis.

    Column j holds the coefficients of (a11 X + a21 Y)^{n-j} (a12 X + a22 Y)^{j-1}
    expanded over b_1, ..., b_n, so that the Veronese curve is equivariant:
    irrep_n(A, n) . veronese(p) = veronese(A . p) projectively.
    """
    if n < 2:
        raise ValueError("symmetric powers need n >= 2")
    (a, b), (c, d) = A.m
    one = 1.0 if A.mode == FLOAT else Fraction(1)
    cols = []
    for j in range(1, n + 1):
        # polynomials as coefficient lists over X^{deg-i} Y^i
        poly = _poly_mul(_poly_pow([a, c], n - j, one), _poly_pow([b, d], j - 1, one))
        cols.append(poly)
    return Matrix([[cols[j][i] for j in range(n)] for i in range(n)])


def veronese_point(p: ProjPoint, n: int):
    """Raw coefficient vector of (a X + b Y)^{n-1}: the Veronese image of p."""
    one = 1.0 if p.mode == FLOAT else Fraction(1)
    return tuple(_poly_pow([p.a, p.b], n - 1, one))


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


def _translation_length(holonomy: Mobius, n: int) -> float:
    if n < 2:
        raise ValueError("symmetric powers need n >= 2")
    _, _, length = axis_data(holonomy if holonomy.mode == FLOAT else _as_float(holonomy))
    return length


def length_spectrum(holonomy: Mobius, n: int):
    """The n-1 logs of consecutive eigenvalue ratios of the n-th symmetric
    power of a hyperbolic 2x2 element.

    The eigenvalues of the symmetric power of a hyperbolic element with
    eigenvalues lambda^{+-1} are lambda^{n-1}, lambda^{n-3}, ...,
    lambda^{-(n-1)} (distinct, positive, computed symbolically rather than by
    an eigensolver), so every consecutive ratio is lambda^2 and every log is
    the translation length.
    """
    return [_translation_length(holonomy, n)] * (n - 1)


def sym_eigenvalues(holonomy: Mobius, n: int):
    """Eigenvalues of the n-th symmetric power of a 2x2 element, descending."""
    lam = math.exp(_translation_length(holonomy, n) / 2.0)
    return [lam ** (n - 1 - 2 * k) for k in range(n)]


def _as_float(m: Mobius) -> Mobius:
    return Mobius([[float(x) for x in row] for row in m.m])
