"""Exact and floating-point multilinear algebra.

Determinants (fraction-free Bareiss elimination in exact mode, a pure-Python
partial-pivot LU in float mode), extended binomial coefficients, and two
families of integer binomial determinants together with their closed forms:

* the "band" determinant: the q x q matrix whose row i, column j entry is
  ``ext_binomial(p + r, p + i - j)`` (0-indexed),
* the "rhombus" determinant ``(l+1) x (l+1)`` with row i, column j entry
  ``ext_binomial(n + i + j, k + j)`` (a rhombus of entries in Pascal's
  triangle).

The closed forms are implemented *literally*, including their sign prefixes.
The sign prefixes disagree with the brute-force determinants (which are
positive in the ranges used here, being Vandermonde-like with increasing
nodes); :func:`compare_band` and :func:`compare_rhombus` record the
agreement of absolute values and the sign relation, and nothing in this
package silently "fixes" one to match the other.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalars import FLOAT, infer_mode


def det_int(rows) -> int:
    """Determinant of integer rows by Bareiss elimination (all divisions are exact)."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def bareiss_append(steps, row):
    """Append one integer row to a fraction-free (Bareiss) elimination.

    ``steps`` hold the elimination of the rows stacked so far, one step per
    row: ``(index, pivot, rest)``, the pivot's index among the columns still
    free before that row, the pivot, and the reduced row over the columns
    still free after it, in column order.  The new row is reduced through
    every step by the Bareiss update ``(x * pivot - lead * y) // previous
    pivot``, whose divisions are exact by Sylvester's identity, and its pivot
    is the first free column where it is nonzero (column pivoting).  Returns
    the new step, or None when the row lies in the span of the rows above.

    After n rows of length n the last pivot is the determinant with the
    columns taken in pivot order, so the determinant is that pivot times
    (-1) ** (sum of the indices).  A shared prefix of rows is reduced once
    and extended many times; :func:`det_int` stays the routine for one
    isolated determinant.
    """
    r = list(row)
    prev = 1
    for index, pivot, rest in steps:
        lead = r.pop(index)
        r = [(x * pivot - lead * y) // prev for x, y in zip(r, rest)]
        prev = pivot
    for index, x in enumerate(r):
        if x:
            return index, x, r[:index] + r[index + 1:]
    return None


def integer_row(row):
    """An exact row as (integer row, scale), the row being integer row / scale.

    The scale is the lcm of the row's denominators, so it is 1 exactly when
    every entry is an integer.
    """
    scale = math.lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (scale // x.denominator) for x in row), scale


def det_raw(rows, mode: str):
    """Determinant on raw row data in the given mode; returns a raw Fraction
    or float.  The entries must be of that mode or plain ints (the mode rule
    of ``scalars.infer_mode``): ScalarModeError otherwise.

    Exact rows are cleared to integers by :func:`integer_row`, so integer
    Bareiss elimination serves integral and rational input alike.  Float rows
    of size n >= 3 go through LU elimination with partial pivoting: each step
    takes the row with the largest |a[i][k]| as pivot row, each swap flips
    the sign, and the determinant is the signed product of the pivots (0.0 as
    soon as a pivot column is all zero).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if infer_mode((x for row in rows for x in row), requested=mode) == FLOAT:
        if n == 1:
            return float(rows[0][0])
        if n == 2:
            return float(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
        a = [[float(x) for x in row] for row in rows]
        result = 1.0
        for k in range(n):
            p = max(range(k, n), key=lambda i: abs(a[i][k]))
            if a[p][k] == 0.0:
                return 0.0
            if p != k:
                a[k], a[p] = a[p], a[k]
                result = -result
            row_k = a[k]
            pivot = row_k[k]
            result *= pivot
            for row_i in a[k + 1:]:
                factor = row_i[k] / pivot
                for j in range(k + 1, n):
                    row_i[j] -= factor * row_k[j]
        return result
    cleared = [integer_row(row) for row in rows]
    return Fraction(det_int([r for r, _ in cleared]), math.prod(s for _, s in cleared))


def ext_binomial(n: int, p: int) -> int:
    """Binomial coefficient extended by 0 outside the range 0 <= p <= n."""
    return math.comb(n, p) if 0 <= p <= n else 0


# ---------------------------------------------------------------------------
# binomial determinants


def band_matrix(p: int, q: int, r: int):
    """q x q integer rows, entry (i, j) = ext_binomial(p + r, p + i - j), 0-indexed."""
    if p < 0 or q < 1 or r < 0:
        raise ValueError("band determinant needs p, r >= 0 and q >= 1")
    return [[ext_binomial(p + r, p + i - j) for j in range(q)] for i in range(q)]


def band_det_bruteforce(p: int, q: int, r: int) -> int:
    return det_int(band_matrix(p, q, r))


def band_det_formula(n: int, p: int, q: int, r: int) -> Fraction:
    """Closed form for the band determinant, evaluated literally.

    sign (-1)^(q-1)q/2 times
    (n-q)! (n-q+1)! ... (n-1)! 1! 2! ... (q-1)!
    over (n-r-q)! ... (n-r-1)! r! (r+1)! ... (r+q-1)!
    """
    if p + q + r != n:
        raise ValueError(f"require p + q + r = n, got {p}+{q}+{r} != {n}")
    if p < 0 or q < 1 or r < 0:
        raise ValueError("band determinant needs p, r >= 0 and q >= 1")
    num = 1
    for m in range(n - q, n):
        num *= math.factorial(m)
    for m in range(1, q):
        num *= math.factorial(m)
    den = 1
    for m in range(n - r - q, n - r):
        den *= math.factorial(m)
    for m in range(r, r + q):
        den *= math.factorial(m)
    sign = -1 if ((q - 1) * q // 2) % 2 else 1
    return Fraction(sign * num, den)


def rhombus_matrix(n: int, k: int, l: int):
    """(l+1) x (l+1) integer rows, entry (i, j) = ext_binomial(n + i + j, k + j)."""
    if n < 0 or l < 0:
        raise ValueError("rhombus determinant needs n, l >= 0")
    if not 0 <= k <= n:
        raise ValueError(f"rhombus determinant needs 0 <= k <= n, got k={k}, n={n}")
    return [[ext_binomial(n + i + j, k + j) for j in range(l + 1)] for i in range(l + 1)]


def rhombus_det_bruteforce(n: int, k: int, l: int) -> int:
    return det_int(rhombus_matrix(n, k, l))


def rhombus_det_formula(n: int, k: int, l: int) -> Fraction:
    """Closed form for the rhombus determinant, evaluated literally.

    n! (n+1)! ... (n+l)! over k! ... (k+l)! (n-k)! ... (n-k+l)!,
    times (-1)^(l(l+1)/2) 1! ... l!.
    """
    if n < 0 or l < 0:
        raise ValueError("rhombus determinant needs n, l >= 0")
    if not 0 <= k <= n:
        raise ValueError(f"rhombus determinant needs 0 <= k <= n, got k={k}, n={n}")
    num = 1
    for m in range(l + 1):
        num *= math.factorial(n + m)
    den = 1
    for m in range(l + 1):
        den *= math.factorial(k + m) * math.factorial(n - k + m)
    superfact = 1
    for m in range(1, l + 1):
        superfact *= math.factorial(m)
    sign = -1 if (l * (l + 1) // 2) % 2 else 1
    return Fraction(sign * num * superfact, den)


def compare_band(n: int, p: int, q: int, r: int) -> dict:
    """Brute force vs closed form for the band determinant (comparison layer)."""
    brute = band_det_bruteforce(p, q, r)
    formula = band_det_formula(n, p, q, r)
    return {
        "args": (n, p, q, r),
        "bruteforce": brute,
        "formula": formula,
        "abs_equal": abs(brute) == abs(formula),
        "sign_agree": brute == formula,
    }


def compare_rhombus(n: int, k: int, l: int) -> dict:
    """Brute force vs closed form for the rhombus determinant."""
    brute = rhombus_det_bruteforce(n, k, l)
    formula = rhombus_det_formula(n, k, l)
    return {
        "args": (n, k, l),
        "bruteforce": brute,
        "formula": formula,
        "abs_equal": abs(brute) == abs(formula),
        "sign_agree": brute == formula,
    }
