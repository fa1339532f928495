"""The Veronese flag curve.

R^n is identified with the homogeneous polynomials of degree n-1 in X, Y via
the fixed monomial basis b_1 = X^{n-1}, b_2 = X^{n-2} Y, ..., b_n = Y^{n-1}.
A 2x2 matrix acts by substitution on (X, Y), giving the (projectivized)
irreducible representation into PSL(n, R), and the curve is equivariant under
it; the boundary point [a : b] maps to the osculating flag of the rational
normal curve, whose leading vector is the Veronese image (a X + b Y)^{n-1}
and whose level-d span is exactly the multiples of (a X + b Y)^{n-d}.  A
basis adapted to that flag is (a X + b Y)^{n-d} M^{d-1}, d = 1, ..., n, for
any linear form M independent of a X + b Y.  Two choices of M are used:

* float flags take M = b X - a Y with a^2 + b^2 = 1, in the coordinates
  orthonormal for the Bombieri inner product (Beauzamy, Bombieri, Enflo and
  Montgomery 1990): column j weighted by C(n-1, j)^(-1/2), row d by
  C(n-1, d-1)^(1/2) (:func:`flag_rows`).  That inner product is invariant
  under the rotation (a X + b Y, b X - a Y) of (X, Y), so the rows are
  orthonormal at every real [a : b];
* exact flags take M = Y, or M = X at a = 0 (:func:`exact_flag_rows`).
  Row d, column k is C(n-d, k-d) a^(n-k) b^(k-d) for k >= d and 0 before:
  the rows are upper triangular with diagonal a^(n-d), or at a = 0 the
  anti-diagonal rows b^(n-d) e_{n-d+1}, so they are independent by
  construction.  The flag at 0 = [0 : 1] is e_n, e_{n-1}, ... and the flag
  at infinity e_1, e_2, ....

The two bases span the same flag up to row scales and a diagonal change of
coordinates, which every triple and double ratio cancels, since each flag
puts the same levels into its numerator and denominator.
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


def flag_rows(a, b, n: int):
    """The rows (a X + b Y)^{n-d} (b X - a Y)^{d-1}, d = 1, ..., n, of the
    Veronese flag at [a : b], the basis of float flags: [a : b] scaled to
    unit norm, column j weighted by C(n-1, j)^(-1/2) and row d by
    C(n-1, d-1)^(1/2), so the rows are orthonormal (see the module
    docstring)."""
    if n < 2:
        raise ValueError("veronese flags need n >= 2")
    norm = math.hypot(a, b)
    a, b = a / norm, b / norm
    lead, aux = [[1.0]], [[1.0]]
    for _ in range(n - 1):   # the powers (a X + b Y)^k and (b X - a Y)^k
        lead.append(_poly_mul(lead[-1], [a, b]))
        aux.append(_poly_mul(aux[-1], [b, -a]))
    weights = [math.comb(n - 1, j) ** -0.5 for j in range(n)]
    return [[math.comb(n - 1, d - 1) ** 0.5 * x * w
             for x, w in zip(_poly_mul(lead[n - d], aux[d - 1]), weights)]
            for d in range(1, n + 1)]


def exact_flag_rows(a, b, n: int):
    """The rows (a X + b Y)^{n-d} Y^{d-1}, d = 1, ..., n, of the Veronese
    flag at [a : b] (X^{d-1} in place of Y^{d-1} at a = 0), read off the
    powers of a and b: the basis of exact flags, triangular as the module
    docstring says."""
    if n < 2:
        raise ValueError("veronese flags need n >= 2")
    pa, pb = [1], [1]
    for _ in range(n - 1):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    if a == 0:
        return [[pb[n - d] if k == n - d else 0 for k in range(n)]
                for d in range(1, n + 1)]
    return [[0] * (n - 1 - m) + [math.comb(m, j) * pa[m - j] * pb[j] for j in range(m + 1)]
            for m in range(n - 1, -1, -1)]   # m = n - d


def veronese_flag(p: ProjPoint, n: int) -> Flag:
    """The osculating flag of the Veronese curve at a boundary point, in the
    basis of the point's mode (see the module docstring)."""
    return Flag((flag_rows if p.mode == FLOAT else exact_flag_rows)(p.a, p.b, n))
