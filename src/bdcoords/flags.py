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

Both ratios are read off a :class:`WedgeTable` of the flags' stacked wedges,
the only copy of the two formulas, as a pair (num, den).  An exact table
stacks integer rows: an exact flag's basis rows, each cleared to integers by
a positive factor that the ratios do not see, or the integer Veronese rows
that the bd module's kernel builds for ``bd_vector`` and the exact identity
suites.  So the pair is two integer products of wedges.  An exact table
reads each wedge off a :class:`WedgeTrie` of Bareiss elimination states, so
leading rows shared by several wedges are reduced once, and checks it
exactly nonzero.  A wedge through the flag at 0, whose rows are unit rows,
is read off the last pivot of the other blocks when they pivoted in order
(the leading minor, by Bareiss), so that flag's rows are not appended;
otherwise all rows are stacked.  A float table computes each wedge once with
``multilinear.det_raw`` against a relative genericity threshold.
:func:`triple_ratio` and :func:`double_ratio` build a fresh table per call;
the identity suites build one per sampled case, and the bd module one trie
per surface.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalars import EXACT, FLOAT, infer_mode, join_mode
from .multilinear import bareiss_append, det_int, det_raw, integer_row

_FLOAT_RANK_TOL = 1e-12  # |det| > tol * (product of row norms) counts as nonzero


class DegenerateFlagError(ValueError):
    """A flag tuple fails the genericity needed by an invariant."""


class Flag:
    """A complete flag given by an ordered basis of R^n.

    ``basis`` holds the rows as Fractions in exact mode and as floats in
    float mode; an exact flag also keeps each row cleared to integers (see
    ``multilinear.integer_row``), the rows its wedge tables stack.
    """

    __slots__ = ("n", "mode", "basis", "_int_rows")

    def __init__(self, basis):
        rows = [tuple(row) for row in basis]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("flag basis must be n vectors of length n")
        self.n = n
        self.mode = infer_mode(x for row in rows for x in row)
        if self.mode == EXACT:
            self.basis = tuple(tuple(Fraction(x) for x in row) for row in rows)
            self._int_rows = tuple(integer_row(row)[0] for row in self.basis)
            independent = det_int(self._int_rows) != 0
        else:
            self.basis = tuple(tuple(float(x) for x in row) for row in rows)
            independent = _float_wedge(self.basis)[1]
        if not independent:
            raise DegenerateFlagError("flag basis is not linearly independent")

    def __repr__(self):
        return f"Flag(n={self.n}, mode={self.mode})"


def _float_wedge(rows):
    """``det_raw`` of float rows, and whether it counts as nonzero: |det|
    above _FLOAT_RANK_TOL times the product of the row norms."""
    value = det_raw(rows, FLOAT)
    norms = math.prod(math.sqrt(sum(x * x for x in row)) for row in rows)
    return value, abs(value) > _FLOAT_RANK_TOL * norms


class WedgeTrie:
    """Fraction-free elimination states of stacked integer flag rows.

    Each added flag gets a key.  A state, keyed by the stacked blocks
    ``((key, level), ...)`` with zero levels dropped, is its parent (one row
    fewer) with the next row appended by ``multilinear.bareiss_append``, so
    rows shared by many wedges, in one table or across tables, are reduced
    once.  A state of n rows is its signed determinant; an exactly
    dependent one is 0, as is every state below it.

    A flag whose rows are the unit rows e_n, e_{n-1}, ... (the Veronese flag
    at 0 = [0 : 1]) is recognised by those rows when it is added, and
    :meth:`wedge` does not stack its first block: see there.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows = []                 # integer rows of each added flag, by key
        self._states = {(): ((), 0)}   # stacked blocks -> elimination state
        self._at_zero = set()          # keys of the flags with rows e_n, e_{n-1}, ...
        self._zero_rows = [[int(j == n - 1 - i) for j in range(n)] for i in range(n)]

    def add(self, rows) -> int:
        """The key of a new flag with these integer rows."""
        self.rows.append(rows)
        key = len(self.rows) - 1
        if [list(row) for row in rows] == self._zero_rows:
            self._at_zero.add(key)
        return key

    def wedge(self, blocks):
        """The signed determinant of stacked blocks of n rows in all, 0 when
        they are dependent; memoised like every state.

        The first block of a flag at 0, at level a with m rows stacked after
        it, spans the last a columns, so the wedge is
        (-1)^(a(a-1)/2 + a m) times the leading (n - a)-minor of the other
        blocks.  When every step of their state pivoted in the next free
        column, that minor is its last pivot (Bareiss: the k-th pivot of an
        elimination without column swaps is the leading k x k minor; 1 for
        the empty stack), and the block's rows are never appended.  When the
        other blocks are dependent or pivoted out of order, all rows are
        stacked as for any other wedge.
        """
        value = self._states.get(blocks)
        if value is not None:
            return value
        stacked = 0   # rows in the blocks before the current one
        for i, (key, level) in enumerate(blocks):
            if key in self._at_zero:
                state = self._state(blocks[:i] + blocks[i + 1:])
                if state and not state[1]:   # independent, pivoted in order
                    value = state[0][-1][1] if state[0] else 1
                    if (level * (level - 1) // 2 + level * (self.n - stacked - level)) & 1:
                        value = -value
                    self._states[blocks] = value
                    return value
                break
            stacked += level
        return self._state(blocks)

    def _state(self, blocks):
        """The elimination state of the stacked blocks: ``(steps, skipped)``
        below n rows, the signed determinant at n rows, 0 once dependent.
        ``skipped`` counts the free columns the pivots passed over: its
        parity is the sign of the column order, and it is 0 exactly when
        every step pivoted in the next free column."""
        state = self._states.get(blocks)
        if state is None:
            key, level = blocks[-1]
            parent = blocks[:-1] + ((key, level - 1),) if level > 1 else blocks[:-1]
            state = _append(self._state(parent), self.rows[key][level - 1])
            self._states[blocks] = state
        return state


def _append(state, row):
    """The elimination state one integer row below ``state``."""
    if not state:   # rows that are dependent stay dependent
        return 0
    steps, skipped = state
    step = bareiss_append(steps, row)
    if step is None:
        return 0
    index, pivot, rest = step
    skipped += index
    if rest:
        return steps + (step,), skipped
    return -pivot if skipped & 1 else pivot


class WedgeTable:
    """The stacked wedges of a tuple of flags, and the two ratios read off them.

    The entry at levels (d_1, ..., d_m), summing to n, is the determinant of
    the first d_1 rows of flag 1, then the first d_2 rows of flag 2, and so
    on: here an integer read off a trie that holds the flags under ``keys``.
    ``where`` places the table in errors ("at pants P0 triangle 1").
    """

    def __init__(self, trie: WedgeTrie, keys, where: str):
        self.trie, self.keys, self.where = trie, tuple(keys), where
        self.n = trie.n

    def wedge(self, *levels):
        """The entry at ``levels``; DegenerateFlagError when it vanishes."""
        value = self.trie.wedge(
            tuple([(key, d) for key, d in zip(self.keys, levels) if d]))
        if value == 0:
            raise DegenerateFlagError(
                f"vanishing wedge factor {self.where}: wedge {levels} "
                f"is exactly 0 at n = {self.n}")
        return value

    @staticmethod
    def quotient(num, den):
        """The value of a ratio given as (num, den)."""
        return Fraction(num, den)

    def triple_ratio(self, p: int, q: int, r: int):
        """The (p, q, r) triple ratio of the first three flags (E, F, G) as (num, den).

        T_pqr = (e^{p+1} f^q g^{r-1} * e^p f^{q-1} g^{r+1} * e^{p-1} f^{q+1} g^r)
              / (e^{p-1} f^q g^{r+1} * e^p f^{q+1} g^{r-1} * e^{p+1} f^{q-1} g^r)

        where e^d is the wedge of the first d basis vectors of E, etc., and
        each product of total degree n is read off as a determinant.
        """
        if min(p, q, r) < 1 or p + q + r != self.n:
            raise ValueError(f"need p, q, r >= 1 with p + q + r = {self.n}, "
                             f"got {(p, q, r)} {self.where}")
        w = self.wedge
        num = w(p + 1, q, r - 1) * w(p, q - 1, r + 1) * w(p - 1, q + 1, r)
        den = w(p - 1, q, r + 1) * w(p, q + 1, r - 1) * w(p + 1, q - 1, r)
        return num, den

    def double_ratio(self, p: int):
        """The p-th double ratio of the flags (E, F, G, G') as (num, den).

        D_p = - (e^p f^{n-p-1} g^1 * e^{p-1} f^{n-p} g'^1)
              / (e^p f^{n-p-1} g'^1 * e^{p-1} f^{n-p} g^1)
        """
        n = self.n
        if not 1 <= p <= n - 1:
            raise ValueError(f"need 1 <= p <= {n - 1}, got {p} {self.where}")
        w = self.wedge
        num = w(p, n - p - 1, 1, 0) * w(p - 1, n - p, 0, 1)
        den = w(p, n - p - 1, 0, 1) * w(p - 1, n - p, 1, 0)
        return -num, den


class _FloatWedgeTable(WedgeTable):
    """A table of float flags: each entry is ``det_raw`` of the stacked
    rows, computed once per level tuple, and it vanishes below the relative
    genericity threshold."""

    def __init__(self, flags, where: str):
        self.rows, self.n, self.where = tuple(f.basis for f in flags), flags[0].n, where
        self._entries = {}

    def wedge(self, *levels):
        entry = self._entries.get(levels)
        if entry is None:
            entry = self._entries[levels] = _float_wedge(
                [row for basis, d in zip(self.rows, levels) for row in basis[:d]])
        value, nonzero = entry
        if not nonzero:
            raise DegenerateFlagError(f"vanishing wedge factor {self.where} at n = {self.n}")
        return value

    @staticmethod
    def quotient(num, den):
        return num / den


def wedge_table(flags, where: str) -> WedgeTable:
    """A fresh table of a nonempty sequence of flags of one dimension, exact
    or float by their common mode."""
    flags = tuple(flags)
    if not flags:
        raise ValueError("empty flag tuple")
    n, mode = flags[0].n, flags[0].mode
    for f in flags[1:]:
        if f.n != n:
            raise ValueError("flags of different dimensions")
        join_mode(mode, f.mode)
    if mode == FLOAT:
        return _FloatWedgeTable(flags, where)
    trie = WedgeTrie(n)
    return WedgeTable(trie, [trie.add(f._int_rows) for f in flags], where)


def _compositions(n: int, k: int):
    """All k-tuples of nonnegative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head,) + rest


def is_generic(flags) -> bool:
    """Whether every selection of leading blocks of total dimension n is direct.

    For each composition (n_1, ..., n_k) of n, the wedge of the first n_1
    vectors of flag 1, first n_2 of flag 2, ... must be nonzero (one table).
    """
    table = wedge_table(flags, "in a flag tuple")
    try:
        for comp in _compositions(table.n, len(flags)):
            table.wedge(*comp)
    except DegenerateFlagError:
        return False
    return True


def triple_ratio(E: Flag, F: Flag, G: Flag, p: int, q: int, r: int):
    """The (p, q, r) triple ratio of a generic flag triple, a Fraction or a
    float by the flags' mode (see :meth:`WedgeTable.triple_ratio`)."""
    table = wedge_table((E, F, G), "in triple ratio")
    return table.quotient(*table.triple_ratio(p, q, r))


def double_ratio(E: Flag, F: Flag, G: Flag, Gp: Flag, p: int):
    """The p-th double ratio of a generic flag quadruple (E, F, G, G'), see
    :meth:`WedgeTable.double_ratio`."""
    table = wedge_table((E, F, G, Gp), "in double ratio")
    return table.quotient(*table.double_ratio(p))
