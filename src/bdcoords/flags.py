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
the only copy of the two formulas, as a pair (num, den).  Only
:meth:`WedgeTrie.table` builds a table, exact or float, which reads each
wedge off that trie of elimination states, so leading rows shared by
several wedges are reduced once.  Each state is one
``multilinear.append_row`` below its parent, with the step of the trie's
mode: fraction-free Bareiss on integer rows in exact mode, LU pivoting on
each new row's largest entry in float mode; the fold of the same step is
``det_raw``, the independence check of a ``Flag``.  An exact table stacks
integer rows: an exact flag's basis rows, each cleared to integers, or the
integer Veronese rows of a point (the bd module), so the pair is two
integer products of wedges, each checked exactly nonzero.  A float table
stacks a float flag's basis rows scaled to unit norm, or the orthonormal
float Veronese rows of a point, and an entry counts as nonzero when its
magnitude is above 1e-12.  Neither scale is seen by
a ratio.  A flag's integer Veronese rows are upper triangular, so its own
earlier rows give a new row zero leads, and a unit row stacked first leaves
a zero rest: ``bareiss_append`` only pops the lead of such a rescale-only
step and folds its factor into the next updating step's divisor, so every
state holds the integers of the plain update.  A flag at 0 is one whose
level-d rows lie in the last d columns, recognised by that support (such
as the unit rows of the Veronese flag at 0, where an exact identity-suite
case puts its first point); a wedge through it is the product of its
block's diagonal entries times the last pivot of the other blocks when they
pivoted in order (their leading minor), so that flag's rows are not
appended; otherwise all rows are stacked.

The ratios of a family read the same entry several times (the triple
ratios at n = 8 make 126 reads of 42 entries), and a table computes each
entry once and keeps it by its levels.  Every ratio is read one way, by
:meth:`WedgeTable.triple_ratio` or :meth:`WedgeTable.double_ratio` at its
index.  :func:`triple_ratio` and :func:`double_ratio` build a fresh trie
and table per call; the identity suites build one trie per sampled case
and ``bd_vector`` one per surface.  A Veronese trie of the identity chart
(``bd.veronese_trie``) borrows a base trie, one per rank and mode, that
holds the states of the flags at 0, 1 and infinity alone, and the table
entries that stack them alone, per key pattern (a table's keys with its
own flags masked): a table starts from its pattern's entries, and fills in
each one it is the first to compute.  An exact identity-suite case's trie
has no base: it holds the triangular rows at the points' images in the
chart of its first point, whose ratios are the points' own.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

from . import multilinear
from .scalars import EXACT, FLOAT, join_mode, settle_mode
from .multilinear import append_row, det_raw, integer_row

# a wedge counts as nonzero when its magnitude is above this: any nonzero
# exact wedge, and a float wedge of rows of unit norm above 1e-12
_RANK_TOL = {EXACT: 0, FLOAT: 1e-12}


class DegenerateFlagError(ValueError):
    """A flag tuple fails the genericity needed by an invariant."""


class Flag:
    """A complete flag given by an ordered basis of R^n.

    ``basis`` holds the rows as exact values (ints, and Fractions where not
    integral) in exact mode and as floats in float mode.  A flag also keeps
    the rows its wedge tables stack: in exact mode each row cleared to
    integers (see ``multilinear.integer_row``), in float mode each row
    scaled to unit norm.  Either is a positive scale of the row, which no
    ratio sees.
    """

    __slots__ = ("n", "mode", "basis", "_rows")

    def __init__(self, basis):
        rows = [tuple(row) for row in basis]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("flag basis must be n vectors of length n")
        self.n = n
        self.mode, entries = settle_mode(x for row in rows for x in row)
        self.basis = tuple(tuple(entries[k:k + n]) for k in range(0, n * n, n))
        if self.mode == EXACT:
            self._rows = tuple(integer_row(row)[0] for row in self.basis)
        else:
            self._rows = tuple(_unit(row) for row in self.basis)
        if not abs(det_raw(self._rows, self.mode)) > _RANK_TOL[self.mode]:
            raise DegenerateFlagError("flag basis is not linearly independent")

    def __repr__(self):
        return f"Flag(n={self.n}, mode={self.mode})"


def _unit(row):
    """A float row scaled to unit norm; a zero row stays zero."""
    norm = math.hypot(*row)
    return tuple(x / norm for x in row) if norm else row


class WedgeTrie:
    """Elimination states of stacked flag rows, exact or float by ``mode``.

    A flag is named by a hashable id (a ``Flag``, or a point in the bd
    module) and gets its rows ``rows_of(id)`` and a small key once.  A
    state, keyed by the stacked blocks ``((key, level), ...)`` with zero
    levels dropped, is its parent (one row fewer) with the next row appended
    by ``multilinear.append_row`` with the mode's step, picked once here,
    so rows shared by many wedges, in one table or across tables, are
    reduced once.  A state of n rows is its signed determinant; a dependent
    one is 0, as is every state below it.

    A ``base`` trie (or None) lends its flags, under its keys, to this one:
    every state whose blocks are all base flags is read off and kept in the
    base, which many tries share, and only the states that stack a flag of
    this trie's own are kept here.  The base's flags are named before it is
    lent, and a state, once stored, is never changed.  The base also keeps
    the table entries that stack its flags alone, per table pattern (see
    :class:`WedgeTable`), so a table starts from those.

    A flag whose level-d rows lie in the last d columns (a flag at 0, such
    as the unit rows e_n, e_{n-1}, ... of the Veronese flag at 0 = [0 : 1])
    is recognised by that support when it is first read, and keeps the
    products of its leading diagonal entries; :meth:`wedge` does not stack
    its first block: see there.
    """

    def __init__(self, n: int, rows_of, mode: str, base):
        self.n, self.rows_of, self.mode, self.base = n, rows_of, mode, base
        self.tol = _RANK_TOL[mode]
        self.step = multilinear.bareiss_append if mode == EXACT else multilinear.float_append
        self._states = {(): ((), 0)}   # stacked blocks -> elimination state
        self._seeds = {}               # pattern -> {levels: entry}, as a base: see WedgeTable
        if base is None:
            self.rows = []             # rows of each flag, by key
            self._keys = {}            # id -> key
            self._at_zero = {}         # key of a flag at 0 -> its diagonal products
        else:
            self.rows, self._keys = list(base.rows), dict(base._keys)
            self._at_zero = dict(base._at_zero)
        self._own = len(self.rows)     # the first key of a flag not the base's

    def keys_of(self, ids) -> list:
        """The keys of the flags named by ``ids``, each flag's rows read by
        ``rows_of`` when it is first named."""
        keys = []
        for flag_id in ids:
            key = self._keys.get(flag_id)
            if key is None:
                rows = self.rows_of(flag_id)
                key = self._keys[flag_id] = len(self.rows)
                diagonal = _zero_diagonal(rows)
                if diagonal is not None:
                    self._at_zero[key] = diagonal
                self.rows.append(rows)
            keys.append(key)
        return keys

    def table(self, ids, where: str) -> "WedgeTable":
        """The wedge table of the flags named by ``ids``; ``where`` places it
        in errors ("at pants P0 triangle 1")."""
        return WedgeTable(self, self.keys_of(ids), where)

    def wedge(self, blocks):
        """The signed determinant of stacked blocks of n rows in all, 0 when
        they are dependent; memoised like every state.  Blocks of the base's
        flags alone are the base's to read (:meth:`WedgeTable._entry` reads
        them there), so the memo of a shared entry is shared too.

        The first block of a flag at 0, at level a with m rows stacked after
        it, spans the last a columns, so the wedge is
        (-1)^(a(a-1)/2 + a m) times the product of its a diagonal entries
        times the leading (n - a)-minor of the other blocks.  When every
        step of their state pivoted in the next free column, that minor is
        its last pivot (the pivot of a step is the minor on the pivot
        columns, a Bareiss pivot and a float step's product of pivots alike;
        1 for the empty stack), and the block's rows are never appended.
        When the other blocks are dependent or pivoted out of order, all
        rows are stacked as for any other wedge.
        """
        value = self._states.get(blocks)
        if value is not None:
            return value
        stacked = 0   # rows in the blocks before the current one
        for i, (key, level) in enumerate(blocks):
            diagonal = self._at_zero.get(key)
            if diagonal is not None:
                state = self._prefix_state(blocks[:i] + blocks[i + 1:])
                if state and not state[1]:   # independent, pivoted in order
                    value = (state[0][-1][1] if state[0] else 1) * diagonal[level]
                    if (level * (level - 1) // 2 + level * (self.n - stacked - level)) & 1:
                        value = -value
                    self._states[blocks] = value
                    return value
                break
            stacked += level
        return self._state(blocks)

    def _prefix_state(self, blocks):
        """The state of stacked blocks that may hold the base's flags alone,
        read off the base then; :meth:`_state` of any other."""
        if self.base is not None and blocks and max(blocks)[0] < self._own:
            return self.base._state(blocks)
        return self._state(blocks)

    def _state(self, blocks):
        """The elimination state of stacked blocks (see
        ``multilinear.append_row``): ``(steps, skipped)`` below n rows, the
        signed determinant at n rows, 0 once dependent.  In a trie with a
        base the blocks hold a flag of its own, and only the parent that
        drops a whole block can stack the base's flags alone."""
        state = self._states.get(blocks)
        if state is None:
            key, level = blocks[-1]
            if level > 1:
                parent = self._state(blocks[:-1] + ((key, level - 1),))
            else:
                parent = self._prefix_state(blocks[:-1])
            state = append_row(parent, self.rows[key][level - 1], self.step)
            self._states[blocks] = state
        return state


def _zero_diagonal(rows):
    """The products of the first d diagonal entries, d = 0, ..., n, of a
    flag at 0: one whose level-d rows lie in the last d columns, the
    diagonal entry of row d being its entry in column n - d.  None for any
    other flag."""
    n = len(rows)
    products = [1]
    for d, row in enumerate(rows, 1):
        if any(row[:n - d]):
            return None
        products.append(products[-1] * row[n - d])
    return products


class WedgeTable:
    """The stacked wedges of a tuple of flags, and the two ratios read off them.

    The entry at levels (d_1, ..., d_m), summing to n, is the determinant of
    the first d_1 rows of flag 1, then the first d_2 rows of flag 2, and so
    on, read off a trie that holds the flags under ``keys``: an integer, or
    a float in float mode.  ``where`` places the table in errors ("at pants
    P0 triangle 1").

    The table's ``pattern`` is its keys with the trie's own flags masked
    (None).  An entry whose nonzero levels all fall on base flags depends on
    the pattern alone, so the trie's base keeps it per pattern once some
    table computed it, and every table of the pattern starts from those.
    """

    def __init__(self, trie: WedgeTrie, keys, where: str):
        self.trie, self.keys, self.where = trie, tuple(keys), where
        self.n = trie.n
        self.pattern = tuple([key if key < trie._own else None for key in self.keys])
        # the pattern's entries of base flags alone, shared by every table of it
        self._seeds = trie.base._seeds.setdefault(self.pattern, {}) if trie.base else {}
        self._entries = dict(self._seeds)   # levels -> entry, each computed once

    def wedge(self, *levels):
        """The entry at ``levels``, computed and checked against the trie's
        threshold once per table; DegenerateFlagError when it vanishes."""
        value = self._entries.get(levels)
        if value is None:
            value = self._entries[levels] = self._entry(levels)
        return value

    def _entry(self, levels):
        """The entry at ``levels`` read off the trie, and kept for the
        table's pattern when it stacks base flags alone; DegenerateFlagError,
        naming the table and the levels, when it is not above the threshold."""
        blocks = tuple([(key, d) for key, d in zip(self.keys, levels) if d])
        base_only = self.trie.base is not None and max(blocks)[0] < self.trie._own
        value = self.trie.base.wedge(blocks) if base_only else self.trie.wedge(blocks)
        if abs(value) > self.trie.tol:
            if base_only:
                self._seeds[levels] = value
            return value
        size = f"{abs(value):.3g}, not above {self.trie.tol:g}" if self.trie.tol else "exactly 0"
        raise DegenerateFlagError(f"vanishing wedge factor {self.where}: wedge {levels} "
                                  f"is {size} at n = {self.n}")

    def is_generic(self) -> bool:
        """Whether every selection of leading blocks of total dimension n is
        direct: for each composition (n_1, ..., n_k) of n, the wedge of the
        first n_1 vectors of flag 1, first n_2 of flag 2, ... is nonzero.
        Every entry is read, so a generic table holds them all."""
        try:
            for comp in _compositions(self.n, len(self.keys)):
                self.wedge(*comp)
        except DegenerateFlagError:
            return False
        return True

    def quotient(self, num, den):
        """The value of a ratio given as (num, den): a Fraction or a float by
        the trie's mode."""
        return Fraction(num, den) if self.trie.mode == EXACT else num / den

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
    return WedgeTrie(n, attrgetter("_rows"), mode, None).table(flags, where)


def _compositions(n: int, k: int):
    """All k-tuples of nonnegative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head,) + rest


def is_generic(flags) -> bool:
    """Whether a flag tuple is generic: :meth:`WedgeTable.is_generic` of a
    fresh table of the flags."""
    return wedge_table(flags, "in a flag tuple").is_generic()


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
