import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from bdcoords import bd
from bdcoords.flags import (DegenerateFlagError, Flag, double_ratio, is_generic,
                            triple_ratio, wedge_table)
from bdcoords.halfplane import ProjPoint, cross_ratio, is_clockwise, sort_ccw
from bdcoords.multilinear import det_int, det_raw, integer_row
from bdcoords.scalars import ScalarModeError
from bdcoords.veronese import exact_flag_rows, veronese_flag
from bdcoords.verification import random_generic_flags, sample_points
from oracles import (complement_rows, double_ratio_by, double_ratio_by_cofactors, random_unimodular,
                     rational_det, row_pivot_det, stacked_rows, triple_ratio_by,
                     triple_ratio_by_cofactors)

INF = ProjPoint(1, 0)


def standard_flag(n):
    return Flag([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def reversed_flag(n):
    return Flag([[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])


def rescaled(flag, scales):
    """The same flag with basis vector i multiplied by scales[i]."""
    return Flag([[s * x for x in row] for s, row in zip(scales, flag.basis)])


def apply_matrix(m, flag):
    rows = [[sum(m[i][k] * v[k] for k in range(flag.n)) for i in range(flag.n)]
            for v in flag.basis]
    return Flag(rows)


def test_flag_requires_independent_basis():
    with pytest.raises(DegenerateFlagError):
        Flag([[1, 2], [2, 4]])


@pytest.mark.parametrize("rows, kind", [
    pytest.param([[2, 0, 1], [0, -3, 0], [1, 1, 1]], Fraction, id="int"),
    pytest.param([[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(2, 5), 7],
                  [1, Fraction(-3, 4), Fraction(1, 6)]], Fraction, id="fraction"),
    pytest.param([[0.5, 0.25, 0], [0.0, 2.5, 7.0], [1, -0.75, 1.5]], float, id="float"),
])
def test_flag_keeps_its_basis_in_its_mode(rows, kind):
    # ints lift to the mode of the other entries, Fractions in exact mode
    flag = Flag(rows)
    assert (flag.n, flag.mode) == (3, "float" if kind is float else "exact")
    assert flag.basis == tuple(tuple(kind(x) for x in row) for row in rows)
    assert all(type(x) is kind for row in flag.basis for x in row)
    # the third row replaced by the sum of the first two
    with pytest.raises(DegenerateFlagError, match="not linearly independent"):
        Flag(rows[:2] + [[x + y for x, y in zip(*rows[:2])]])


def test_flag_of_exact_and_float_entries_is_rejected():
    with pytest.raises(ScalarModeError):
        Flag([[Fraction(1, 2), 0.0], [0, 1]])


def test_is_generic_examples():
    assert is_generic([standard_flag(3), reversed_flag(3)])
    assert not is_generic([standard_flag(3), standard_flag(3)])


# wedge_table checks its flags for every table, is_generic's included
FLAG_TUPLE_CHECKS = (lambda flags: wedge_table(flags, "in a test"), is_generic)


def test_flag_tuple_dimension_mismatch():
    for check in FLAG_TUPLE_CHECKS:
        with pytest.raises(ValueError, match="different dimensions"):
            check([standard_flag(3), standard_flag(4)])


def test_empty_flag_tuple_is_rejected():
    for check in FLAG_TUPLE_CHECKS:
        with pytest.raises(ValueError, match="empty"):
            check([])


def test_flag_tuple_of_exact_and_float_flags_is_rejected():
    float_flag = Flag([[float(x) for x in row] for row in standard_flag(3).basis])
    for check in FLAG_TUPLE_CHECKS:
        with pytest.raises(ScalarModeError):
            check([standard_flag(3), float_flag])
        with pytest.raises(ScalarModeError):
            check([float_flag, standard_flag(3)])


def test_is_generic_veronese_triples():
    flags = [veronese_flag(p, 4) for p in (INF, ProjPoint(1, 1), ProjPoint(0, 1))]
    assert is_generic(flags)


def test_triple_ratio_veronese_normalized_triple():
    flags = [veronese_flag(p, 3) for p in (INF, ProjPoint(1, 1), ProjPoint(0, 1))]
    assert triple_ratio(*flags, 1, 1, 1) == 1


def test_triple_ratio_index_validation():
    E, F, G = random_generic_flags(random.Random(0), 4, 3)
    with pytest.raises(ValueError):
        triple_ratio(E, F, G, 0, 2, 2)
    with pytest.raises(ValueError):
        triple_ratio(E, F, G, 1, 1, 1)


def test_triple_ratio_rejects_degenerate_triple():
    E = standard_flag(3)
    with pytest.raises(DegenerateFlagError):
        triple_ratio(E, E, reversed_flag(3), 1, 1, 1)


def test_triple_ratio_against_cofactor_oracle():
    rng = random.Random(12)
    for _ in range(10):
        E, F, G = random_generic_flags(rng, 4, 3)
        for pqr in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
            assert triple_ratio(E, F, G, *pqr) == triple_ratio_by_cofactors(E, F, G, *pqr)


def test_triple_ratio_permutation_laws():
    rng = random.Random(21)
    cases = 0
    for n in (3, 4, 5):
        for _ in range(35):
            E, F, G = random_generic_flags(rng, n, 3)
            for p in range(1, n - 1):
                for q in range(1, n - p):
                    r = n - p - q
                    t = triple_ratio(E, F, G, p, q, r)
                    assert t == triple_ratio(F, G, E, q, r, p)
                    assert t * triple_ratio(F, E, G, q, p, r) == 1
                    cases += 1
    assert cases >= 100


def test_projective_invariance():
    rng = random.Random(8)
    for n in (3, 4):
        E, F, G = random_generic_flags(rng, n, 3)
        m = random_unimodular(rng, n)
        for pqr in [(1, 1, n - 2)]:
            assert triple_ratio(apply_matrix(m, E), apply_matrix(m, F),
                                apply_matrix(m, G), *pqr) == triple_ratio(E, F, G, *pqr)
    E, F, G, Gp = random_generic_flags(rng, 3, 4)
    m = random_unimodular(rng, 3)
    for p in (1, 2):
        assert double_ratio(apply_matrix(m, E), apply_matrix(m, F),
                            apply_matrix(m, G), apply_matrix(m, Gp), p) == \
            double_ratio(E, F, G, Gp, p)


def test_scaling_independence():
    rng = random.Random(15)
    E, F, G = random_generic_flags(rng, 4, 3)
    scaled = rescaled(E, [Fraction(3), Fraction(-1, 2), Fraction(5), Fraction(2, 7)])
    for pqr in ((1, 1, 2), (2, 1, 1)):
        assert triple_ratio(E, F, G, *pqr) == triple_ratio(scaled, F, G, *pqr)


def test_double_ratio_lines_in_r2():
    flags = [veronese_flag(p, 2)
             for p in (INF, ProjPoint(0, 1), ProjPoint(2, 1), ProjPoint(1, 1))]
    assert double_ratio(*flags, 1) == Fraction(-1, 2)


def test_double_ratio_veronese_n3():
    flags = [veronese_flag(p, 3)
             for p in (INF, ProjPoint(0, 1), ProjPoint(3, 1), ProjPoint(1, 1))]
    assert double_ratio(*flags, 1) == Fraction(-1, 3)
    assert double_ratio(*flags, 2) == Fraction(-1, 3)


def test_double_ratio_against_cofactor_oracle():
    rng = random.Random(30)
    for _ in range(10):
        E, F, G, Gp = random_generic_flags(rng, 3, 4)
        assert double_ratio(E, F, G, Gp, 2) == double_ratio_by_cofactors(E, F, G, Gp, 2)


def test_double_ratio_index_range():
    E, F, G, Gp = random_generic_flags(random.Random(1), 3, 4)
    with pytest.raises(ValueError):
        double_ratio(E, F, G, Gp, 0)
    with pytest.raises(ValueError):
        double_ratio(E, F, G, Gp, 3)


def test_float_mode_agrees_with_exact():
    rng = random.Random(44)
    for _ in range(5):
        flags = random_generic_flags(rng, 3, 4)
        float_flags = [Flag([[float(x) for x in row] for row in f.basis]) for f in flags]
        exact = double_ratio(*flags, 1)
        approx = double_ratio(*float_flags, 1)
        assert abs(float(approx) - float(exact)) <= 1e-9 * abs(float(exact))
        exact_t = triple_ratio(*flags[:3], 1, 1, 1)
        approx_t = triple_ratio(*float_flags[:3], 1, 1, 1)
        assert abs(float(approx_t) - float(exact_t)) <= 1e-9 * abs(float(exact_t))


# ---------------------------------------------------------------------------
# rational entries: common denominators and per-row scales

RATIONAL_POINTS = (ProjPoint(Fraction(3, 7), Fraction(-5, 2)),
                   ProjPoint(Fraction(-2, 9), 1),
                   ProjPoint(1, Fraction(4, 5)),
                   ProjPoint(Fraction(11, 3), Fraction(1, 6)))


def integer_wedge(flags, levels):
    """The stacked wedge of flags built from their basis, as an exact table
    holds it: ``rational_det`` of the stacked rows cleared to integers by
    ``integer_row``, which is ``rational_det`` of the rows themselves times
    the product of the row scales."""
    rows = stacked_rows(zip(flags, levels))
    cleared = [integer_row(row) for row in rows]
    value = rational_det([r for r, _ in cleared])
    assert value == rational_det(rows) * math.prod(scale for _, scale in cleared)
    return value


def is_generic_by_rational_det(flags):
    n = flags[0].n
    return all(rational_det(stacked_rows(zip(flags, comp))) != 0
               for comp in itertools.product(range(n + 1), repeat=len(flags))
               if sum(comp) == n)


@pytest.mark.parametrize("n", range(2, 9))
def test_veronese_flag_at_rational_points(n):
    for p in RATIONAL_POINTS + (INF, ProjPoint(0, Fraction(-3, 2))):
        expected = exact_flag_rows(p.a, p.b, n)
        assert [list(row) for row in veronese_flag(p, n).basis] == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_ratios_at_rational_points_match_det_raw(n):
    flags = [veronese_flag(p, n) for p in RATIONAL_POINTS]
    for E, F, G in itertools.permutations(flags[:3]):
        for p in range(1, n - 1):
            for q in range(1, n - p):
                pqr = (p, q, n - p - q)
                assert triple_ratio(E, F, G, *pqr) == triple_ratio_by(rational_det, E, F, G, *pqr)
    for p in range(1, n):
        assert double_ratio(*flags, p) == double_ratio_by(rational_det, *flags, p)
    for t in (flags[:3], flags, flags[:2] + flags[:1]):
        assert is_generic(t) == is_generic_by_rational_det(t)
    assert not is_generic(flags[:2] + flags[:1])


@pytest.mark.parametrize("n", (3, 5, 8))
def test_exact_suite_ratios_equal_det_int_of_the_complement_basis(n):
    # the values the exact identity suites compute, off a Veronese trie of the
    # triangular rows at integer points, and the ratios of exact Veronese
    # flags both equal the ratios of one-shot wedges of the (b X - a Y) rows
    def complement_flag(p):
        return Flag(complement_rows(p.a, p.b, n))

    for a, b, c in suite_cases(n, 6, n, 3, "exact"):
        pts = (c, b, a)
        flags, old = [veronese_flag(p, n) for p in pts], [complement_flag(p) for p in pts]
        table = bd.veronese_table(bd.veronese_trie(n, "exact"), pts, "in triple ratio")
        for pqr in bd.triple_indices(n):
            expected = triple_ratio_by(rational_det, *old, *pqr)
            assert table.quotient(*table.triple_ratio(*pqr)) == expected
            assert triple_ratio(*flags, *pqr) == expected
    for a, b, c, d in suite_cases(n, 6, n, 4, "exact"):
        pts = (a, c, b, d)
        flags, old = [veronese_flag(p, n) for p in pts], [complement_flag(p) for p in pts]
        table = bd.veronese_table(bd.veronese_trie(n, "exact"), pts, "in double ratio")
        for p in range(1, n):
            expected = double_ratio_by(rational_det, *old, p)
            assert table.quotient(*table.double_ratio(p)) == expected
            assert double_ratio(*flags, p) == expected


def test_flag_rows_with_different_denominators():
    E = Flag([[Fraction(1, 2), Fraction(1, 3), 0],
              [0, Fraction(2, 5), 7],
              [1, Fraction(-3, 4), Fraction(1, 6)]])
    assert E.basis[1] == (Fraction(0), Fraction(2, 5), Fraction(7))
    F, G, Gp = (veronese_flag(p, 3) for p in RATIONAL_POINTS[:3])
    # the ratios cancel every row scale, so check the stacked wedges themselves
    flags = [E, Flag(F.basis), Flag(G.basis)]
    table = wedge_table(flags, "in a test")
    for levels in ((3, 0, 0), (2, 1, 0), (1, 1, 1), (1, 2, 0), (0, 1, 2)):
        assert table.wedge(*levels) == integer_wedge(flags, levels)
    assert triple_ratio(E, F, G, 1, 1, 1) == triple_ratio_by(rational_det, E, F, G, 1, 1, 1)
    for p in (1, 2):
        assert double_ratio(E, F, G, Gp, p) == double_ratio_by(rational_det, E, F, G, Gp, p)
    assert is_generic([E, F, G]) == is_generic_by_rational_det([E, F, G])
    with pytest.raises(DegenerateFlagError):
        Flag([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])


def test_rescaled_rational_flag():
    E, F, G, Gp = (veronese_flag(p, 4) for p in RATIONAL_POINTS)
    scales = [Fraction(3, 5), Fraction(-7, 2), 4, Fraction(1, 9)]
    scaled = rescaled(E, scales)
    assert scaled.basis == tuple(tuple(s * x for x in row) for s, row in zip(scales, E.basis))
    for pqr in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        assert triple_ratio(scaled, F, G, *pqr) == triple_ratio(E, F, G, *pqr)
        assert triple_ratio(F, G, scaled, *pqr) == triple_ratio(F, G, E, *pqr)
    for p in (1, 2, 3):
        assert double_ratio(scaled, F, G, Gp, p) == double_ratio(E, F, G, Gp, p)
        assert double_ratio(F, G, scaled, Gp, p) == \
            double_ratio_by(rational_det, F, G, scaled, Gp, p)


# ---------------------------------------------------------------------------
# wedge tables


def level_tuples(n, m):
    return [ds for ds in itertools.product(range(n + 1), repeat=m) if sum(ds) == n]


def rational_flag(rng, n):
    """A flag whose rows have entries over different denominators."""
    while True:
        try:
            return Flag([[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
                         for _ in range(n)])
        except DegenerateFlagError:
            continue


@pytest.mark.parametrize("n", range(2, 9))
def test_every_stacked_wedge_of_rational_flags_is_det_raw_of_its_rows(n):
    rng = random.Random(900 + n)
    flags = [rational_flag(rng, n) for _ in range(4)]
    assert any(x.denominator > 1 for f in flags for row in f.basis for x in row)
    # four-flag tables have (n + 3 choose 3) entries: keep the oracle's big
    # determinants to the smaller ranks
    for t in (flags[:3], flags[1:]) + ((flags,) if n <= 6 else ()):
        table = wedge_table(t, "in a test")
        for levels in level_tuples(n, len(t)):
            expected = integer_wedge(t, levels)
            if expected:
                assert table.wedge(*levels) == expected
            else:
                with pytest.raises(DegenerateFlagError):
                    table.wedge(*levels)


def integer_flag(rng, n, first=None):
    """An integer flag, with the given first row if any, whose first row
    is 0 in column 1 and whose leading 2-minor is nonzero: a stack that
    starts with it pivots out of order, and its wedge with the flag at 0
    at level n - 2 is nonzero."""
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rows[0] = list(first) if first else [0] + rows[0][1:]
        if rows[0][1] * rows[1][0] and det_int(rows):
            return Flag(rows)


@pytest.mark.parametrize("n", range(2, 11))
def test_flag_at_zero_beside_blocks_that_pivot_out_of_order(n):
    rng = random.Random(300 + n)
    zero = reversed_flag(n)    # the rows e_n, e_{n-1}, ... of the flag at 0
    E, F = integer_flag(rng, n), rational_flag(rng, n)
    tables = [(E, zero), (zero, E), (E, F, zero), (E, zero, F), (zero, E, F), (E, zero, zero)]
    for t in tables:
        table = wedge_table(t, "in a test")
        for levels in level_tuples(n, len(t)):
            expected = integer_wedge(t, levels)
            if expected:
                assert table.wedge(*levels) == expected
            else:
                with pytest.raises(DegenerateFlagError):
                    table.wedge(*levels)
    if n > 2:
        # E's first row pivots in column 2, yet the wedge is E's leading
        # 2-minor times the sign of reversing the n - 2 unit rows
        a = n - 2
        assert wedge_table((E, zero), "in a test").wedge(2, a) == integer_wedge(
            (E, zero), (2, a)) == -E.basis[0][1] * E.basis[1][0] * (-1) ** (a * (a - 1) // 2)


@pytest.mark.parametrize("n", range(2, 11))
def test_dependent_stack_beside_the_flag_at_zero_raises(n):
    rng = random.Random(400 + n)
    E = integer_flag(rng, n)
    F = integer_flag(rng, n, first=[2 * x for x in E.basis[0]])
    levels = (1, 1, n - 2)
    table = wedge_table((E, F, reversed_flag(n)), "in a case")
    with pytest.raises(DegenerateFlagError,
                       match=rf"in a case: wedge {re.escape(str(levels))} is exactly 0 "
                             rf"at n = {n}$"):
        table.wedge(*levels)


def suite_cases(n, samples, seed, count, mode):
    """The counterclockwise point tuples the identity suites draw: ``count``
    points a case, infinity in every 7th triple and every 5th quadruple, and
    in float mode a chordal gap of 0.2 between the points."""
    rng = random.Random(seed)
    every = 7 if count == 3 else 5
    cases = [sort_ccw(sample_points(rng, count, with_infinity=(case % every == 0),
                                    min_separation=0.2 if mode == "float" else 0.0))
             for case in range(samples)]
    if mode == "float":
        return [tuple(ProjPoint(float(p.a), float(p.b)) for p in pts) for pts in cases]
    return cases


def outcome(ratio, *args):
    """A ratio's value, or the message of the DegenerateFlagError it raised
    (float wedges below the genericity threshold)."""
    try:
        return ratio(*args)
    except DegenerateFlagError as exc:
        return str(exc)


@pytest.mark.parametrize("mode", ("exact", "float"))
@pytest.mark.parametrize("n", (3, 5, 8))
def test_one_table_per_case_gives_the_per_call_ratios(n, mode):
    value_type = Fraction if mode == "exact" else float
    for a, b, c in suite_cases(n, 10, n, 3, mode):
        assert is_clockwise(c, b, a)
        flags = [veronese_flag(p, n) for p in (c, b, a)]
        table = wedge_table(flags, "in triple ratio")
        for pqr in bd.triple_indices(n):
            value = outcome(lambda: table.quotient(*table.triple_ratio(*pqr)))
            assert value == outcome(triple_ratio, *flags, *pqr)
            assert type(value) in (value_type, str)
            assert mode == "float" or value == 1
    for a, b, c, d in suite_cases(n, 10, n, 4, mode):
        flags = [veronese_flag(p, n) for p in (a, c, b, d)]
        table = wedge_table(flags, "in double ratio")
        for p in range(1, n):
            value = outcome(lambda: table.quotient(*table.double_ratio(p)))
            assert value == outcome(double_ratio, *flags, p)
            assert type(value) in (value_type, str)
            assert mode == "float" or value == -1 / cross_ratio(c, d, a, b)


def float_det(rows):
    return det_raw(rows, "float")


@pytest.mark.parametrize("n", (3, 5, 8))
def test_float_table_ratios_are_the_det_raw_oracle(n):
    # the trie's ratios, off rows of unit norm with shared prefixes, against
    # one-shot wedges of the basis rows by det_raw and by the oracle's
    # row-swapping LU: the same to a relative 1e-12
    rng = random.Random(40 + n)
    pts = sample_points(rng, 4, min_separation=0.2)
    flags = [veronese_flag(ProjPoint(float(p.a), float(p.b)), n) for p in pts]
    flags[3] = Flag([[x * (1 + 0.25 * i) for x in row] for i, row in enumerate(flags[3].basis)])
    table = wedge_table(flags, "in a test")
    for det in (float_det, row_pivot_det):
        for pqr in bd.triple_indices(n):
            assert table.quotient(*table.triple_ratio(*pqr)) == \
                pytest.approx(triple_ratio_by(det, *flags[:3], *pqr), rel=1e-12)
        for p in range(1, n):
            assert table.quotient(*table.double_ratio(p)) == \
                pytest.approx(double_ratio_by(det, *flags, p), rel=1e-12)


def triple_levels(n):
    """The level tuples that the triple ratios of one table read."""
    return {levels for p, q, r in bd.triple_indices(n)
            for levels in ((p + 1, q, r - 1), (p, q - 1, r + 1), (p - 1, q + 1, r),
                           (p - 1, q, r + 1), (p, q + 1, r - 1), (p + 1, q - 1, r))}


@pytest.mark.parametrize("mode", ("exact", "float"))
def test_a_table_computes_each_entry_once(mode, monkeypatch):
    n = 8
    pts = sample_points(random.Random(48), 3, min_separation=0.2)
    calls = []
    if mode == "exact":
        table = bd.veronese_table(bd.veronese_trie(n, "exact"), pts, "in a test")
    else:
        table = wedge_table([veronese_flag(ProjPoint(float(p.a), float(p.b)), n) for p in pts], "in a test")
    trie_wedge = table.trie.wedge
    monkeypatch.setattr(table.trie, "wedge",
                        lambda blocks: calls.append(blocks) or trie_wedge(blocks))
    for _ in range(2):
        for pqr in bd.triple_indices(n):
            table.triple_ratio(*pqr)
    # 126 reads per pass, one computation per distinct level tuple
    assert len(calls) == len(triple_levels(n)) == 42
    assert len({str(blocks) for blocks in calls}) == len(calls)


@pytest.mark.parametrize("mode", ("exact", "float"))
@pytest.mark.parametrize("n", (3, 5, 8))
def test_repeated_flag_raises_on_every_ratio_through_it(n, mode):
    pts = (ProjPoint(Fraction(1, 3), 1), ProjPoint(-2, 1), ProjPoint(5, 2))
    if mode == "float":
        pts = tuple(ProjPoint(float(p.a), float(p.b)) for p in pts)
    E, F, G = (veronese_flag(p, n) for p in pts)
    # the table's fourth flag repeats the first: triple ratios of (E, F, G)
    # never stack it, every double ratio of (E, F, G, E) does
    table = wedge_table([E, F, G, E], "in a case")
    for pqr in bd.triple_indices(n):
        assert table.quotient(*table.triple_ratio(*pqr)) == triple_ratio(E, F, G, *pqr)
    for p in range(1, n):
        # the first dependent factor: e^{p-1} f^{n-p} e^1, or e^1 f^{n-2} e^1
        levels = (p - 1, n - p, 0, 1) if p > 1 else (1, n - 2, 0, 1)
        size = "exactly 0" if mode == "exact" else r"\S+, not above 1e-12"
        message = (f"^vanishing wedge factor in a case: wedge {re.escape(str(levels))} "
                   f"is {size} at n = {n}$")
        with pytest.raises(DegenerateFlagError, match=message):
            table.double_ratio(p)
        with pytest.raises(DegenerateFlagError):
            double_ratio(E, F, G, E, p)
