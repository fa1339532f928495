"""Complete flags in R^n and their projective invariants.

A flag is stored as an ordered basis (v_1, ..., v_n); level d is the span of
the first d vectors.  The two invariants implemented here are ratios of
top-degree wedge products of stacked leading blocks:

* the (p, q, r) triple ratio of a generic flag triple (p, q, r >= 1,
  p + q + r = n), a six-factor quotient,
* the p-th double ratio of a generic flag quadruple (1 <= p <= n-1), a
  four-factor quotient with a leading minus sign.

Both are invariant under the projective linear action and under rescaling
each flag's basis vectors; the identification of the top wedge power with the
scalars is fixed once and for all as the standard-basis determinant.

An exact flag clears each basis row to integers once, when it is built, as
an integer row over a positive scale.  Every stacked wedge of exact flags is
then one integer Bareiss determinant (``multilinear.det_int``) over the
product of the stacked rows' scales, checked exactly nonzero.  Nothing is
shared between calls: each ratio computes its own wedges from its own flags.
Float flags use ``multilinear.det_raw`` and a relative genericity threshold.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalars import EXACT, FLOAT, infer_mode, join_mode
from .multilinear import det_int, det_raw, integer_row

_FLOAT_RANK_TOL = 1e-12  # |det| > tol * (product of row norms) counts as nonzero


class DegenerateFlagError(ValueError):
    """A flag tuple fails the genericity needed by an invariant."""


class Flag:
    """A complete flag given by an ordered basis of R^n; an exact flag also
    keeps each row as (integer row, scale), see ``multilinear.integer_row``."""

    __slots__ = ("n", "basis", "mode", "_int_rows", "_scales")

    def __init__(self, basis):
        rows = [tuple(row) for row in basis]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("flag basis must be n vectors of length n")
        self.mode = infer_mode(x for row in rows for x in row)
        self.n = n
        if self.mode == FLOAT:
            self.basis = tuple(tuple(float(x) for x in row) for row in rows)
        else:
            self.basis = tuple(tuple(Fraction(x) for x in row) for row in rows)
            cleared = [integer_row(row) for row in rows]
            self._int_rows = tuple(r for r, _ in cleared)
            self._scales = tuple(s for _, s in cleared)
        if not _wedge([(self, n)], self.mode)[1]:
            raise DegenerateFlagError("flag basis is not linearly independent")

    def level(self, d: int):
        """The first d basis vectors (spanning the d-dimensional level)."""
        if not 0 <= d <= self.n:
            raise ValueError(f"level {d} out of range for dimension {self.n}")
        return self.basis[:d]

    def rescaled(self, scales) -> "Flag":
        """Same flag with basis vector i multiplied by scales[i] (all nonzero,
        in the flag's mode or plain ints)."""
        infer_mode(scales, requested=self.mode)
        if any(s == 0 for s in scales):
            raise ValueError("rescaling by zero")
        return Flag([[s * x for x in row] for s, row in zip(scales, self.basis)])

    def __repr__(self):
        return f"Flag(n={self.n}, mode={self.mode})"


class FlagTuple:
    """An ordered tuple of flags of a common dimension."""

    __slots__ = ("flags", "n", "mode")

    def __init__(self, flags):
        flags = tuple(flags)
        if not flags:
            raise ValueError("empty flag tuple")
        n = flags[0].n
        mode = flags[0].mode
        for f in flags[1:]:
            if f.n != n:
                raise ValueError("flags of different dimensions")
            join_mode(mode, f.mode)
        self.flags, self.n, self.mode = flags, n, mode

    def __iter__(self):
        return iter(self.flags)

    def __len__(self):
        return len(self.flags)


def _wedge(levels, mode):
    """The stacked wedge of ``levels``, pairs (flag, d) taking the first d
    basis vectors of each flag, and whether it counts as nonzero.

    Exact flags stack their integer rows for one integer Bareiss
    determinant, divided by the product of the row scales, and the zero
    check is exact.  Float flags use ``det_raw`` and count as nonzero when
    |det| exceeds _FLOAT_RANK_TOL times the product of the row norms.
    """
    if mode == EXACT:
        rows, scale = [], 1
        for flag, d in levels:
            rows.extend(flag._int_rows[:d])
            scale *= math.prod(flag._scales[:d])
        value = det_int(rows)
        return Fraction(value, scale), value != 0
    rows = [row for flag, d in levels for row in flag.basis[:d]]
    value = det_raw(rows, mode)
    norms = math.prod(math.sqrt(sum(x * x for x in row)) for row in rows)
    return value, abs(value) > _FLOAT_RANK_TOL * norms


def _compositions(n: int, k: int):
    """All k-tuples of nonnegative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head,) + rest


def is_generic(t: FlagTuple) -> bool:
    """Whether every selection of leading blocks of total dimension n is direct.

    For each composition (n_1, ..., n_k) of n, the wedge of the first n_1
    vectors of flag 1, first n_2 of flag 2, ... must be nonzero.
    """
    return all(_wedge(zip(t, comp), t.mode)[1]
               for comp in _compositions(t.n, len(t)))


def _guarded_wedge(levels, mode, what: str):
    value, nonzero = _wedge(levels, mode)
    if not nonzero:
        raise DegenerateFlagError(f"vanishing wedge factor in {what}")
    return value


def triple_ratio(E: Flag, F: Flag, G: Flag, p: int, q: int, r: int):
    """The (p, q, r) triple ratio of a generic flag triple.

    T_pqr = (e^{p+1} f^q g^{r-1} * e^p f^{q-1} g^{r+1} * e^{p-1} f^{q+1} g^r)
          / (e^{p-1} f^q g^{r+1} * e^p f^{q+1} g^{r-1} * e^{p+1} f^{q-1} g^r)

    where e^d is the wedge of the first d basis vectors of E, etc., and each
    product of total degree n is read off as a determinant.  Independent of
    the basis choices within each flag.
    """
    n = E.n
    mode = join_mode(join_mode(E.mode, F.mode), G.mode)
    if F.n != n or G.n != n:
        raise ValueError("flags of different dimensions")
    if min(p, q, r) < 1 or p + q + r != n:
        raise ValueError(f"need p, q, r >= 1 with p + q + r = {n}, got {(p, q, r)}")

    def w(dp, dq, dr):
        return _guarded_wedge([(E, dp), (F, dq), (G, dr)], mode, "triple ratio")

    num = w(p + 1, q, r - 1) * w(p, q - 1, r + 1) * w(p - 1, q + 1, r)
    den = w(p - 1, q, r + 1) * w(p, q + 1, r - 1) * w(p + 1, q - 1, r)
    return num / den


def double_ratio(E: Flag, F: Flag, G: Flag, Gp: Flag, p: int):
    """The p-th double ratio of a generic flag quadruple (E, F, G, G').

    D_p = - (e^p f^{n-p-1} g^1 * e^{p-1} f^{n-p} g'^1)
          / (e^p f^{n-p-1} g'^1 * e^{p-1} f^{n-p} g^1)
    """
    n = E.n
    mode = join_mode(join_mode(E.mode, F.mode), join_mode(G.mode, Gp.mode))
    if F.n != n or G.n != n or Gp.n != n:
        raise ValueError("flags of different dimensions")
    if not 1 <= p <= n - 1:
        raise ValueError(f"need 1 <= p <= {n - 1}, got {p}")

    def w(dp, dq, last: Flag):
        return _guarded_wedge([(E, dp), (F, dq), (last, 1)], mode, "double ratio")

    num = w(p, n - p - 1, G) * w(p - 1, n - p, Gp)
    den = w(p, n - p - 1, Gp) * w(p - 1, n - p, G)
    return -num / den
