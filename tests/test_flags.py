import random
from fractions import Fraction

import pytest

from bdcoords.flags import (DegenerateFlagError, Flag, FlagTuple, double_ratio,
                            is_generic, triple_ratio)
from bdcoords.halfplane import ProjPoint
from bdcoords.veronese import veronese_flag
from bdcoords.verification import random_generic_flags, random_unimodular
from oracles import triple_ratio_by_cofactors, double_ratio_by_cofactors

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
