import itertools
import random
from fractions import Fraction

import pytest

from bdcoords.flags import (DegenerateFlagError, Flag, FlagTuple, _wedge, double_ratio,
                            is_generic, triple_ratio)
from bdcoords.halfplane import ProjPoint
from bdcoords.multilinear import det_raw
from bdcoords.veronese import flag_rows, veronese_flag
from bdcoords.verification import random_generic_flags, random_unimodular
from oracles import (double_ratio_by, double_ratio_by_cofactors, stacked_rows,
                     triple_ratio_by, triple_ratio_by_cofactors)

INF = ProjPoint(1, 0)


def standard_flag(n):
    return Flag([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def reversed_flag(n):
    return Flag([[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])


def apply_matrix(m, flag):
    rows = [[sum(m[i][k] * v[k] for k in range(flag.n)) for i in range(flag.n)]
            for v in flag.basis]
    return Flag(rows)


def test_flag_requires_independent_basis():
    with pytest.raises(DegenerateFlagError):
        Flag([[1, 2], [2, 4]])


def test_is_generic_examples():
    assert is_generic(FlagTuple([standard_flag(3), reversed_flag(3)]))
    assert not is_generic(FlagTuple([standard_flag(3), standard_flag(3)]))


def test_flag_tuple_dimension_mismatch():
    with pytest.raises(ValueError):
        FlagTuple([standard_flag(3), standard_flag(4)])


def test_is_generic_veronese_triples():
    flags = [veronese_flag(p, 4) for p in (INF, ProjPoint(1, 1), ProjPoint(0, 1))]
    assert is_generic(FlagTuple(flags))


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
    scaled = E.rescaled([Fraction(3), Fraction(-1, 2), Fraction(5), Fraction(2, 7)])
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


def exact_det(rows):
    return det_raw(rows, "exact")


def is_generic_by_det_raw(flags):
    n = flags[0].n
    return all(exact_det(stacked_rows(zip(flags, comp))) != 0
               for comp in itertools.product(range(n + 1), repeat=len(flags))
               if sum(comp) == n)


@pytest.mark.parametrize("n", range(2, 9))
def test_veronese_flag_at_rational_points(n):
    for p in RATIONAL_POINTS + (INF,):
        expected = flag_rows(p.a, p.b, n, Fraction(1))
        assert [list(row) for row in veronese_flag(p, n).basis] == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_ratios_at_rational_points_match_det_raw(n):
    flags = [veronese_flag(p, n) for p in RATIONAL_POINTS]
    for E, F, G in itertools.permutations(flags[:3]):
        for p in range(1, n - 1):
            for q in range(1, n - p):
                pqr = (p, q, n - p - q)
                assert triple_ratio(E, F, G, *pqr) == triple_ratio_by(exact_det, E, F, G, *pqr)
    for p in range(1, n):
        assert double_ratio(*flags, p) == double_ratio_by(exact_det, *flags, p)
    for t in (flags[:3], flags, flags[:2] + flags[:1]):
        assert is_generic(FlagTuple(t)) == is_generic_by_det_raw(t)
    assert not is_generic(FlagTuple(flags[:2] + flags[:1]))


def test_flag_rows_with_different_denominators():
    E = Flag([[Fraction(1, 2), Fraction(1, 3), 0],
              [0, Fraction(2, 5), 7],
              [1, Fraction(-3, 4), Fraction(1, 6)]])
    assert E.basis[1] == (Fraction(0), Fraction(2, 5), Fraction(7))
    F, G, Gp = (veronese_flag(p, 3) for p in RATIONAL_POINTS[:3])
    # the ratios cancel every row scale, so check the stacked wedges themselves
    for levels in (((E, 3),), ((E, 2), (F, 1)), ((G, 1), (E, 1), (F, 1)), ((F, 2), (E, 1))):
        assert _wedge(levels, "exact") == (exact_det(stacked_rows(levels)), True)
    assert triple_ratio(E, F, G, 1, 1, 1) == triple_ratio_by(exact_det, E, F, G, 1, 1, 1)
    for p in (1, 2):
        assert double_ratio(E, F, G, Gp, p) == double_ratio_by(exact_det, E, F, G, Gp, p)
    assert is_generic(FlagTuple([E, F, G])) == is_generic_by_det_raw([E, F, G])
    with pytest.raises(DegenerateFlagError):
        Flag([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])


def test_rescaled_rational_flag():
    E, F, G, Gp = (veronese_flag(p, 4) for p in RATIONAL_POINTS)
    scales = [Fraction(3, 5), Fraction(-7, 2), 4, Fraction(1, 9)]
    scaled = E.rescaled(scales)
    assert scaled.basis == tuple(tuple(s * x for x in row) for s, row in zip(scales, E.basis))
    for pqr in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        assert triple_ratio(scaled, F, G, *pqr) == triple_ratio(E, F, G, *pqr)
        assert triple_ratio(F, G, scaled, *pqr) == triple_ratio(F, G, E, *pqr)
    for p in (1, 2, 3):
        assert double_ratio(scaled, F, G, Gp, p) == double_ratio(E, F, G, Gp, p)
        assert double_ratio(F, G, scaled, Gp, p) == double_ratio_by(exact_det, F, G, scaled, Gp, p)
