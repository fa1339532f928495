"""Exact and floating-point multilinear algebra.

Determinants, the fold of :func:`append_row` over the rows, whose step is
fraction-free Bareiss elimination (:func:`bareiss_append`) on integer rows
and LU elimination (:func:`float_append`) on float rows; extended binomial
coefficients; and two families of integer binomial determinants with their
closed forms:

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

import functools
import math
from fractions import Fraction

from .scalars import FLOAT, settle_mode


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

    A rescale-only step, one whose lead is 0 or whose ``rest`` is all 0,
    only scales the row by pivot / previous pivot, and over a run of such
    steps the factors telescope to P / Q, the run's last pivot over the
    pivot before it; so such a step only pops the lead.  The next updating
    step divides by Q instead of P, which cancels the deferred factor
    exactly: (x P/Q pivot - lead P/Q y) / P = (x pivot - lead y) / Q.  A
    run that ends the row is applied once, as x P // Q.  The step returned
    is the one the plain update gives.  A divisor of 1 (the first updating
    step's, and on the sparse Veronese rows often a later one's) is not
    divided by.  Exact Veronese rows are upper
    triangular, so a flag's own earlier rows always give zero leads, and
    the unit rows of the flags at 0 and at infinity leave zero rests that
    every row stacked below them passes through.

    After n rows of length n the last pivot is the determinant with the
    columns taken in pivot order, so the determinant is that pivot times
    (-1) ** (sum of the indices).  A shared prefix of rows is reduced once
    and extended many times.
    """
    r = list(row)
    prev = pivot = 1   # prev: the divisor of the next updating step
    for index, pivot, rest in steps:
        lead = r.pop(index)
        if lead and any(rest):
            if prev == 1:   # nothing to divide out
                r = [x * pivot - lead * y for x, y in zip(r, rest)]
            else:
                r = [(x * pivot - lead * y) // prev for x, y in zip(r, rest)]
            prev = pivot
    if pivot != prev:   # a run of rescale-only steps ends the row
        r = [x * pivot // prev for x in r] if prev != 1 else [x * pivot for x in r]
    for index, x in enumerate(r):
        if x:
            return index, x, r[:index] + r[index + 1:]
    return None


def float_append(steps, row):
    """The float step of :func:`append_row`: :func:`bareiss_append` for an
    LU elimination that pivots on each new row's entry of largest magnitude
    (partial pivoting of the transpose).  A step is ``(index, minor, rest)``:
    the minor is the product of the pivots so far, the minor of the stacked
    rows on the pivot columns as a Bareiss pivot is, and ``rest`` is divided
    by the pivot, so the update is x - lead / pivot times the pivot row, and
    no stored entry exceeds 1 in magnitude.  Returns None for a zero row."""
    r = list(row)
    minor = 1
    for index, minor, rest in steps:
        lead = r.pop(index)
        r = [x - lead * y for x, y in zip(r, rest)]
    pivot = max(r, key=abs)
    if not pivot:
        return None
    index = r.index(pivot)
    del r[index]
    return index, minor * pivot, [x / pivot for x in r]


def append_row(state, row, step):
    """The elimination state one row below ``state``, by ``step``:
    :func:`bareiss_append` for integer rows, :func:`float_append` for float
    rows.  The empty stack is ``((), 0)``.  Below n rows a state is
    ``(steps, skipped)``: the steps, and the free columns the pivots passed
    over (0 exactly when each step pivoted in the next free column; its
    parity is the sign of the column order).  At n rows it is the signed
    determinant, the last step's pivot with that sign, and once a row is
    dependent it is 0."""
    if not state:   # rows that are dependent stay dependent
        return 0
    steps, skipped = state
    new = step(steps, row)
    if new is None:
        return 0
    index, pivot, rest = new
    skipped += index
    if rest:
        return steps + (new,), skipped
    return -pivot if skipped & 1 else pivot


def det_int(rows) -> int:
    """Determinant of square integer rows, appended one at a time from the
    empty stack by :func:`append_row` with the Bareiss step."""
    return functools.reduce(functools.partial(append_row, step=bareiss_append), rows, ((), 0))


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
    of ``scalars.settle_mode``): ScalarModeError otherwise.

    Exact rows are cleared to integers by :func:`integer_row`, so integer
    Bareiss elimination serves integral and rational input alike.  Float rows
    are appended one at a time by :func:`append_row` with the step
    :func:`float_append`.
    """
    n = len(rows)
    if not n or any(len(r) != n for r in rows):
        raise ValueError("determinant of an empty or non-square matrix")
    if settle_mode((x for row in rows for x in row), mode)[0] == FLOAT:
        return float(functools.reduce(functools.partial(append_row, step=float_append),
                                      rows, ((), 0)))
    cleared = [integer_row(row) for row in rows]
    return Fraction(det_int([r for r, _ in cleared]), math.prod(s for _, s in cleared))


def ext_binomial(n: int, p: int) -> int:
    """Binomial coefficient extended by 0 outside the range 0 <= p <= n."""
    return math.comb(n, p) if 0 <= p <= n else 0


# ---------------------------------------------------------------------------
# binomial determinants


def _check_band(p: int, q: int, r: int):
    if p < 0 or q < 1 or r < 0:
        raise ValueError("band determinant needs p, r >= 0 and q >= 1")


def band_matrix(p: int, q: int, r: int):
    """q x q integer rows, entry (i, j) = ext_binomial(p + r, p + i - j), 0-indexed."""
    _check_band(p, q, r)
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
    _check_band(p, q, r)
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


def _check_rhombus(n: int, k: int, l: int):
    if n < 0 or l < 0:
        raise ValueError("rhombus determinant needs n, l >= 0")
    if not 0 <= k <= n:
        raise ValueError(f"rhombus determinant needs 0 <= k <= n, got k={k}, n={n}")


def rhombus_matrix(n: int, k: int, l: int):
    """(l+1) x (l+1) integer rows, entry (i, j) = ext_binomial(n + i + j, k + j)."""
    _check_rhombus(n, k, l)
    return [[ext_binomial(n + i + j, k + j) for j in range(l + 1)] for i in range(l + 1)]


def rhombus_det_bruteforce(n: int, k: int, l: int) -> int:
    return det_int(rhombus_matrix(n, k, l))


def rhombus_det_formula(n: int, k: int, l: int) -> Fraction:
    """Closed form for the rhombus determinant, evaluated literally.

    n! (n+1)! ... (n+l)! over k! ... (k+l)! (n-k)! ... (n-k+l)!,
    times (-1)^(l(l+1)/2) 1! ... l!.
    """
    _check_rhombus(n, k, l)
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


def _compare(args: tuple, brute: int, formula: Fraction) -> dict:
    return {"args": args, "bruteforce": brute, "formula": formula,
            "abs_equal": abs(brute) == abs(formula), "sign_agree": brute == formula}


def compare_band(n: int, p: int, q: int, r: int) -> dict:
    """Brute force vs closed form for the band determinant (comparison layer)."""
    return _compare((n, p, q, r), band_det_bruteforce(p, q, r), band_det_formula(n, p, q, r))


def compare_rhombus(n: int, k: int, l: int) -> dict:
    """Brute force vs closed form for the rhombus determinant."""
    return _compare((n, k, l), rhombus_det_bruteforce(n, k, l), rhombus_det_formula(n, k, l))
