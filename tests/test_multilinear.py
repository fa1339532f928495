import functools
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
                                  det_raw, ext_binomial, float_append, rhombus_det_bruteforce,
                                  rhombus_det_formula, rhombus_matrix)
from bdcoords.veronese import exact_flag_rows
from oracles import cofactor_det, matmul, plain_bareiss_append, row_pivot_det, row_swap_det


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
    # entries below it), cycled by one: at every step of the row-pivoting
    # oracle the largest entry of the pivot column sits in the last row, so
    # each step swaps, and the n - 1 swaps give the sign (-1)^(n-1); the
    # library's appends pivot on each row's diagonal entry, out of order.
    upper = [[Fraction(8 * (i + 1) * (-1) ** i) if i == j
              else Fraction(1, 2 + i + j) if j > i else Fraction(1, 16)
              for j in range(n)] for i in range(n)]
    rows = upper[1:] + upper[:1]
    exact = det_raw(rows, EXACT)
    assert exact == cofactor_det(rows)
    assert det_raw(as_floats(rows), FLOAT) == pytest.approx(float(exact), rel=1e-12)
    assert row_pivot_det(as_floats(rows)) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_det_raw_float_matches_the_row_pivot_oracle(n):
    rng = random.Random(300 + n)
    for _ in range(20):
        rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        assert det_raw(rows, FLOAT) == pytest.approx(row_pivot_det(rows), rel=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_float_step_stores_the_minor_on_its_pivot_columns(n):
    # each step's minor is the determinant of the rows so far on the columns
    # their pivots took, in pivot order, as a Bareiss pivot is: the reading
    # the trie's flag-at-0 shortcut takes; no stored entry exceeds 1
    rng = random.Random(500 + n)
    rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    steps, free, taken = [], list(range(n)), []
    for k, row in enumerate(rows[:-1], start=1):
        steps.append(float_append(steps, row))
        index, minor, rest = steps[-1]
        taken.append(free.pop(index))
        minor_rows = [[r[c] for c in taken] for r in rows[:k]]
        assert minor == pytest.approx(row_pivot_det(minor_rows), rel=1e-12)
        assert all(abs(y) <= 1 for y in rest)
    assert float_append([], [0.0] * n) is None


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
        with pytest.raises(ValueError, match="empty"):
            det_raw([], mode)


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
    time, and the pivot index of every step taken.  Every step, or the None
    of a dependent row, is the plain update's."""
    steps = []
    for row in rows:
        step = bareiss_append(steps, row)
        assert step == plain_bareiss_append(steps, row)
        if step is None:
            return 0, [index for index, _, _ in steps]
        steps.append(step)
    indices = [index for index, _, _ in steps]
    return (-1) ** sum(indices) * steps[-1][1], indices


def append_cases(rng, n):
    """Square integer rows whose appends take every kind of step."""
    # dense and sparse random rows
    cases = [[[rng.randint(-50, 50) if rng.random() < density else 0 for _ in range(n)]
              for _ in range(n)] for density in (1.0, 0.5, 0.2) for _ in range(15)]
    if n < 2:
        return cases
    # stacked triangular Veronese rows: a flag's own earlier rows give zero
    # leads, from the first step (previous pivot 1) to the end of the row
    points = [(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(2)] + [(0, 1), (1, 0)]
    flags = [exact_flag_rows(a, b, n) for a, b in points]
    for e, f, g in ((flags[0], flags[1], flags[2]), (flags[3], flags[0], flags[1])):
        cases += [e[:i] + f[:j] + g[:n - i - j] for i in range(n + 1) for j in range(n + 1 - i)]
    # a nonzero lead, then a run of zero leads that ends the row
    e = flags[0]
    for k in range(2, n):
        cases.append(e[:k] + [[3 * x + (j >= k) * rng.randint(1, 9) for j, x in enumerate(e[0])]]
                     + flags[1][:n - k - 1])
    # dense rows whose first two pivot in columns 0 and 1
    dense = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
    dense[0][0] = rng.randint(1, 50)
    if dense[0][0] * dense[1][1] == dense[0][1] * dense[1][0]:
        dense[1][1] += 1
    # the unit rows of the flags at 0 and at infinity, plain and scaled,
    # above dense rows: every row below passes them as zero-rest steps
    axes = [flags[2], flags[3], exact_flag_rows(0, 3, n), exact_flag_rows(2, 0, n)]
    for e in axes:
        cases += [e[:i] + dense[:n - i] for i in range(1, n)]
    for e, f in ((axes[3], axes[2]), (axes[1], axes[2]), (axes[2], axes[3])):
        cases += [e[:i] + f[:j] + dense[:n - i - j]
                  for i in range(1, n) for j in range(1, n + 1 - i)]
    # a zero-rest step between two updating steps: the second row, three
    # times the first plus a unit row, reduces to a multiple of the unit row
    for c in range(1, n):
        cases.append([dense[0], [3 * x + 5 * (j == c) for j, x in enumerate(dense[0])]]
                     + dense[1:n - 1])
    # a run of zero-rest steps that ends the row: combinations of the first
    # two rows plus unit rows past their pivot columns
    for k in range(3, n + 1):
        cases.append(dense[:2] + [[2 * x - y + 7 * (j == c)
                                   for j, (x, y) in enumerate(zip(dense[0], dense[1]))]
                                  for c in range(2, k)] + dense[2:n + 2 - k])
    # dependent rows: a combination of the rows above, a repeated flag row
    for _ in range(5):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        i = rng.randrange(1, n)
        rows[i] = [2 * x - 3 * y for x, y in zip(rows[0], rows[i - 1])]
        cases.append(rows)
    cases.append(flags[0][:1] + flags[1][:n - 2] + flags[0][:1])
    return cases


@pytest.mark.parametrize("n", range(1, 13))
def test_bareiss_append_matches_det_int(n):
    # det_int is the fold of these appends; the row-swapping oracle shares
    # no code with them
    for rows in append_cases(random.Random(40 + n), n):
        assert appended_det(rows)[0] == det_int(rows) == row_swap_det(rows)


@pytest.mark.parametrize("n", range(2, 7))
def test_bareiss_append_pivots_on_columns(n):
    # the anti-diagonal: each row's first nonzero free column is its last one
    rows = [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
    value, indices = appended_det(rows)
    assert indices == list(range(n - 1, -1, -1))
    assert value == det_int(rows) == (-1) ** (n * (n - 1) // 2)


class NoArithmetic(int):
    """An int that refuses to be multiplied: a row of them shows that an
    append did no element arithmetic."""

    def __mul__(self, other):
        raise AssertionError("element arithmetic on a rescale-only step")

    __rmul__ = __mul__


@pytest.mark.parametrize("n", range(3, 9))
def test_rows_below_unit_rows_append_with_no_arithmetic(n):
    # e_1, e_2 (the flag at infinity) and e_n, e_(n-1) (at 0) leave zero
    # rests with pivots 1, so a dense row below them is only popped, where
    # the plain update multiplies each of its entries
    rng = random.Random(60 + n)
    for point in ((1, 0), (0, 1)):
        steps = []
        for row in exact_flag_rows(*point, n)[:2]:
            steps.append(bareiss_append(steps, row))
        row = [rng.randint(1, 50) for _ in range(n)]
        step = bareiss_append(steps, [NoArithmetic(x) for x in row])
        assert step == plain_bareiss_append(steps, row)


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


def test_rhombus_sign_mismatch_is_the_sign_prefix():
    # every brute-force rhombus determinant at n, l <= 10 is positive, so the
    # literal closed form disagrees in sign exactly where its prefix
    # (-1)^(l(l+1)/2) is -1: l = 1, 2, 5, 6, 9, 10
    cases = [(n, k, l) for n in range(11) for k in range(n + 1) for l in range(11)]
    assert len(cases) == 726
    assert all(rhombus_det_bruteforce(*case) > 0 for case in cases)
    mismatches = {case for case in cases if not compare_rhombus(*case)["sign_agree"]}
    assert mismatches == {(n, k, l) for n, k, l in cases if l * (l + 1) // 2 % 2}
    assert len(mismatches) == 396


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


def test_band_constants_cancel_in_every_triple_ratio():
    # a wedge of three nonzero Veronese blocks at levels (a, b, c) carries
    # the constant K = band_det_bruteforce(a, b, c), one with an empty block
    # K = 1 (README); the point factors of T_pqr cancel by exponent count,
    # so its three numerator constants multiply to its three denominator ones
    @functools.cache
    def K(a, b, c):
        return band_det_bruteforce(a, b, c) if min(a, b, c) >= 1 else 1

    for n in range(3, 25):
        for p in range(1, n - 1):
            for q in range(1, n - p):
                r = n - p - q
                num = K(p + 1, q, r - 1) * K(p, q - 1, r + 1) * K(p - 1, q + 1, r)
                den = K(p - 1, q, r + 1) * K(p, q + 1, r - 1) * K(p + 1, q - 1, r)
                assert num == den, (p, q, r)
