import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bdcoords.flags import Flag
from bdcoords.halfplane import Mobius, ProjPoint, fourth_point, wedge
from bdcoords.scalars import EXACT, FLOAT, ScalarModeError
from bdcoords.multilinear import (band_det_bruteforce, band_det_formula, band_matrix,
                                  bareiss_append, compare_band, compare_rhombus, det_int,
                                  det_raw, ext_binomial, rhombus_det_bruteforce,
                                  rhombus_det_formula, rhombus_matrix)
from oracles import cofactor_det, matmul


# -- determinants -----------------------------------------------------------

def test_det_identity():
    basis = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for mode in (EXACT, FLOAT):
        assert det_raw(basis, mode) == 1
        # swapping two rows flips the sign
        assert det_raw([basis[1], basis[0], *basis[2:]], mode) == -1


def test_det_2x2_against_cofactor_oracle():
    rows = [[1, 2], [3, 4]]
    assert cofactor_det(rows) == -2
    assert det_raw(rows, EXACT) == -2
    assert det_int(rows) == -2


def test_det_rhombus_2x2_case():
    assert det_raw([[2, 3], [3, 6]], EXACT) == 3


def test_det_float_partial_pivot():
    rows = [[0.0, 2.0, 1.0], [1.0, 0.5, -3.0], [2.0, 1.0, 1.0]]
    expected = cofactor_det([[Fraction(0), Fraction(2), Fraction(1)],
                             [Fraction(1), Fraction(1, 2), Fraction(-3)],
                             [Fraction(2), Fraction(1), Fraction(1)]])
    assert det_raw(rows, FLOAT) == pytest.approx(float(expected), rel=1e-12)


def as_floats(rows):
    return [[float(x) for x in row] for row in rows]


@pytest.mark.parametrize("n", range(3, 9))
def test_det_float_lu_matches_exact_on_random_rationals(n):
    rng = random.Random(100 + n)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)]
        exact = float(det_raw(rows, EXACT))
        assert exact != 0
        assert det_raw(as_floats(rows), FLOAT) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 7))
def test_det_float_lu_swaps_rows_at_every_step(n):
    # The rows of an upper-triangular matrix with dominant diagonal (and small
    # entries below it), cycled by one: at every elimination step the largest
    # entry of the pivot column sits in the last row, so each step swaps, and
    # the n - 1 swaps give the sign (-1)^(n-1).
    upper = [[Fraction(8 * (i + 1) * (-1) ** i) if i == j
              else Fraction(1, 2 + i + j) if j > i else Fraction(1, 16)
              for j in range(n)] for i in range(n)]
    rows = upper[1:] + upper[:1]
    exact = det_raw(rows, EXACT)
    assert exact == cofactor_det(rows)
    assert det_raw(as_floats(rows), FLOAT) == pytest.approx(float(exact), rel=1e-12)


def test_det_float_lu_zero_pivot_column_gives_zero():
    zero_column = [[1.0, 2.0, 0.0, 4.0], [3.0, -1.0, 0.0, 2.0],
                   [0.5, 7.0, 0.0, 1.0], [2.0, 2.0, 0.0, -3.0]]
    assert det_raw(zero_column, FLOAT) == 0.0
    # column 1 becomes all zero below the pivot only after the first step
    dependent = [[1.0, 2.0, 3.0], [2.0, 4.0, 7.0], [1.0, 2.0, 5.0]]
    assert det_raw(dependent, FLOAT) == 0.0


def test_det_requires_square():
    for mode in (EXACT, FLOAT):
        with pytest.raises(ValueError):
            det_raw([[1, 2, 3], [4, 5, 6]], mode)


def test_det_multiplicative_on_random_exact_matrices():
    rng = random.Random(5)
    for n in range(2, 6):
        for _ in range(20):
            a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            b = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            assert det_raw(matmul(a, b), EXACT) == det_raw(a, EXACT) * det_raw(b, EXACT)


def test_det_matches_cofactor_oracle_random():
    rng = random.Random(9)
    for n in range(1, 6):
        for _ in range(10):
            rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            assert det_raw(rows, EXACT) == det_int(rows) == cofactor_det(rows)


def appended_det(rows):
    """The determinant of square integer rows by appending them one at a
    time, and the pivot index of every step taken."""
    steps = []
    for row in rows:
        step = bareiss_append(steps, row)
        if step is None:
            return 0, [index for index, _, _ in steps]
        steps.append(step)
    indices = [index for index, _, _ in steps]
    return (-1) ** sum(indices) * steps[-1][1], indices


@pytest.mark.parametrize("n", range(1, 8))
def test_bareiss_append_matches_det_int(n):
    rng = random.Random(40 + n)
    for density in (1.0, 0.5, 0.2):
        for _ in range(15):
            rows = [[rng.randint(-50, 50) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(n)]
            assert appended_det(rows)[0] == det_int(rows)


@pytest.mark.parametrize("n", range(2, 7))
def test_bareiss_append_pivots_on_columns(n):
    # the anti-diagonal: each row's first nonzero free column is its last one
    rows = [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
    value, indices = appended_det(rows)
    assert indices == list(range(n - 1, -1, -1))
    assert value == det_int(rows) == (-1) ** (n * (n - 1) // 2)


def test_bareiss_append_stops_at_a_dependent_row():
    rows = [[1, 2, 3, 4], [0, 1, 1, 0], [2, 5, 7, 8], [1, 1, 1, 1]]
    assert appended_det(rows) == (0, [0, 0])
    assert bareiss_append([], [0, 0, 0]) is None


# -- the mode rule ----------------------------------------------------------

# Each case combines operands in the mode of u with the value v; v is a
# scalar entry or argument, except for wedge, whose v is a second point.
MODE_CASES = {
    "Flag": lambda u, v: Flag([[u, v], [0, 1]]),
    "ProjPoint": lambda u, v: ProjPoint(u, v),
    "Mobius": lambda u, v: Mobius([[u, v], [0, 1]]),
    "wedge": lambda u, v: wedge(ProjPoint(u, 1), ProjPoint(v, 1)),
    "fourth_point": lambda u, v: fourth_point(ProjPoint(u, 1), ProjPoint(1, u),
                                              ProjPoint(-u, 1), v),
}


@pytest.mark.parametrize("case", sorted(MODE_CASES))
def test_exact_and_float_never_mix(case):
    build = MODE_CASES[case]
    for u, v in ((Fraction(1, 2), 0.25), (0.5, Fraction(1, 4))):
        with pytest.raises(ScalarModeError):
            build(u, v)
    # a plain int lifts into either mode; a point of ints is exact
    build(Fraction(1, 2), 3)
    if case != "wedge":
        build(0.5, 3)


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_det_raw_applies_the_mode_rule(mode):
    with pytest.raises(ScalarModeError):
        det_raw([[Fraction(1, 3), 2], [1, 0.5]], mode)
    other = Fraction(1, 2) if mode == FLOAT else 0.5
    with pytest.raises(ScalarModeError):
        det_raw([[other, 2], [1, 3]], mode)
    # plain ints lift into the requested mode
    assert det_raw([[1, 2], [3, 4]], mode) == -2


# -- extended binomials -----------------------------------------------------

def test_ext_binomial_values():
    assert ext_binomial(5, 2) == 10
    assert ext_binomial(3, 5) == 0
    assert ext_binomial(4, -1) == 0


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=-5, max_value=45))
def test_ext_binomial_symmetry(n, p):
    if 0 <= p <= n:
        assert ext_binomial(n, p) == ext_binomial(n, n - p)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=-6, max_value=46))
def test_ext_binomial_pascal(n, p):
    assert ext_binomial(n, p) + ext_binomial(n, p + 1) == ext_binomial(n + 1, p + 1)


# -- rhombus determinants ---------------------------------------------------

def test_rhombus_1x1_is_binomial():
    for n in range(6):
        for k in range(n + 1):
            assert rhombus_det_bruteforce(n, k, 0) == ext_binomial(n, k)
            assert rhombus_det_formula(n, k, 0) == ext_binomial(n, k)


def test_rhombus_2x2_documented_sign_mismatch():
    assert rhombus_det_bruteforce(2, 1, 1) == 3
    assert rhombus_det_formula(2, 1, 1) == -3


def test_rhombus_3x3_against_cofactor_oracle():
    rows = rhombus_matrix(3, 1, 2)
    assert rhombus_det_bruteforce(3, 1, 2) == cofactor_det(rows)
    assert abs(rhombus_det_formula(3, 1, 2)) == abs(cofactor_det(rows))


def test_rhombus_out_of_range_k():
    with pytest.raises(ValueError):
        rhombus_det_bruteforce(3, 4, 1)
    with pytest.raises(ValueError):
        rhombus_det_formula(3, -1, 1)


def test_rhombus_abs_equality_up_to_12():
    mismatches = 0
    for n in range(13):
        for k in range(n + 1):
            for l in range(13):
                r = compare_rhombus(n, k, l)
                assert r["abs_equal"], (n, k, l)
                mismatches += not r["sign_agree"]
    assert mismatches > 0  # the closed form's sign prefix genuinely disagrees


# -- band determinants ------------------------------------------------------

def test_band_small_values():
    assert band_det_bruteforce(1, 1, 1) == 2
    assert band_det_bruteforce(1, 2, 1) == 3
    assert cofactor_det([[2, 1], [1, 2]]) == 3
    for p in range(5):
        for r in range(5):
            assert band_det_bruteforce(p, 1, r) == ext_binomial(p + r, p)


def test_band_formula_values():
    assert band_det_formula(3, 1, 1, 1) == 2
    assert band_det_formula(4, 1, 2, 1) == -3


def test_band_formula_requires_consistent_n():
    with pytest.raises(ValueError):
        band_det_formula(5, 1, 2, 1)


def test_band_abs_equality_up_to_12():
    # the determinant counts plane partitions in a p x r x q box, so it is
    # positive, and the literal prefix (-1)^C(q,2) disagrees in sign exactly
    # when C(q, 2) is odd
    for n in range(1, 13):
        for p in range(n):
            for q in range(1, n - p + 1):
                r = n - p - q
                res = compare_band(n, p, q, r)
                assert res["abs_equal"], (n, p, q, r)
                assert res["sign_agree"] == (math.comb(q, 2) % 2 == 0), (n, p, q, r)


def test_band_bruteforce_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(25):
        p, q, r = rng.randint(0, 6), rng.randint(1, 6), rng.randint(0, 6)
        rows = band_matrix(p, q, r)
        assert band_det_bruteforce(p, q, r) == cofactor_det(rows)


def test_band_reduces_to_rhombus():
    # the band determinant equals the rhombus determinant at
    # (n - q, n - r - q, q - 1); both brute-force values agree exactly
    for p in range(1, 5):
        for q in range(1, 5):
            for r in range(1, 5):
                n = p + q + r
                assert band_det_bruteforce(p, q, r) == \
                    rhombus_det_bruteforce(n - q, n - r - q, q - 1)


def test_band_positive_for_interior_triples():
    # MacMahon: the band determinant counts the plane partitions in a
    # p x r x q box, the product over i <= p, j <= r of (i + j + q - 1) / (i + j - 1)
    for p in range(7):
        for q in range(1, 7):
            for r in range(7):
                count = math.prod(Fraction(i + j + q - 1, i + j - 1)
                                  for i in range(1, p + 1) for j in range(1, r + 1))
                assert band_det_bruteforce(p, q, r) == count > 0, (p, q, r)
