import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bdcoords.halfplane import (DegenerateConfigurationError, Mobius, ProjPoint,
                                axis_data, cross_ratio, fourth_point, is_clockwise,
                                mobius_to_standard, orientation,
                                shear_from_quadruple, sort_ccw)
from bdcoords.scalars import EXACT, FLOAT, ScalarModeError
from oracles import affine_cross_ratio, projectively_equal

INF = ProjPoint(1, 0)
IDENTITY = Mobius([[1, 0], [0, 1]])


def pt(x):
    return ProjPoint(Fraction(x), 1)


def float_pt(p):
    """The point p in float coordinates."""
    return ProjPoint(float(p.a), float(p.b))


def affine(p):
    """The affine coordinate a / b of a finite point."""
    return p.a / p.b


# -- cross ratio ------------------------------------------------------------

def test_cross_ratio_normalization():
    assert cross_ratio(pt(0), pt(1), INF, pt(5)) == 5


def test_cross_ratio_symmetric_quadruple():
    assert cross_ratio(pt(-1), pt(0), pt(1), INF) == -1


@given(st.lists(st.integers(min_value=-30, max_value=30),
                min_size=4, max_size=4, unique=True))
def test_cross_ratio_matches_affine_formula(values):
    a, b, c, d = values
    assert cross_ratio(pt(a), pt(b), pt(c), pt(d)) == affine_cross_ratio(a, b, c, d)


@given(st.lists(st.integers(min_value=-30, max_value=30),
                min_size=4, max_size=4, unique=True))
def test_cross_ratio_classical_relation(values):
    # z(a,b,c,d) = z'(d,b,a,c) for z'(a,b,c,d) = (a-c)(b-d)/((a-d)(b-c))
    a, b, c, d = values
    zprime = Fraction(d - a) * (b - c) / ((d - c) * (b - a))
    assert cross_ratio(pt(a), pt(b), pt(c), pt(d)) == zprime


def test_cross_ratio_degenerate():
    with pytest.raises(DegenerateConfigurationError):
        cross_ratio(pt(0), pt(0), pt(1), pt(2))


def test_cross_ratio_mobius_invariance():
    rng = random.Random(2)
    for _ in range(100):
        while True:
            entries = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                break
        m = Mobius([entries[:2], entries[2:]])
        pts = []
        while len(pts) < 4:
            a, b = rng.randint(-20, 20), rng.randint(0, 3)
            if a == 0 and b == 0:
                continue
            q = ProjPoint(a, b)
            if all(q != p for p in pts):
                pts.append(q)
        expected = cross_ratio(*pts)
        assert cross_ratio(*(m(p) for p in pts)) == expected


# -- Moebius maps -----------------------------------------------------------

def test_mobius_call_identity_and_rotation():
    p = pt(7)
    assert IDENTITY(p) == p
    rot = Mobius([[0, -1], [1, 0]])
    assert rot(INF) == pt(0)


def test_mobius_diagonal_action():
    t = 0.35
    m = Mobius([[math.exp(t), 0.0], [0.0, math.exp(-t)]])
    image = m(ProjPoint(1.7, 1.0))
    assert affine(image) == pytest.approx(math.exp(2 * t) * 1.7)


def test_mobius_to_standard_identity():
    m = mobius_to_standard(INF, pt(1), pt(0))
    assert projectively_equal(m, IDENTITY)


def test_mobius_to_standard_involution():
    m = mobius_to_standard(pt(0), pt(1), INF)
    assert m(pt(0)) == INF
    assert m(INF) == pt(0)
    assert projectively_equal(m @ m, IDENTITY)


def test_mobius_to_standard_computes_cross_ratio():
    a, b, c, d = pt(-3), pt(2), pt(5), pt(11)
    m = mobius_to_standard(a, b, c)
    image = m(d)
    assert affine(image) == cross_ratio(c, b, a, d)


def test_mobius_to_standard_round_trip():
    rng = random.Random(4)
    for _ in range(25):
        pts = []
        while len(pts) < 3:
            a, b = rng.randint(-9, 9), rng.randint(0, 3)
            if a == 0 and b == 0:
                continue
            q = ProjPoint(a, b)
            if all(q != p for p in pts):
                pts.append(q)
        m = mobius_to_standard(*pts)
        images = [m(p) for p in pts]
        again = mobius_to_standard(*images)
        assert projectively_equal(again, IDENTITY)


def test_mobius_to_standard_rejects_coincident():
    with pytest.raises(DegenerateConfigurationError):
        mobius_to_standard(pt(1), pt(1), pt(0))


def test_fourth_point_inverts_cross_ratio():
    a, c, d = pt(2), pt(-1), INF
    for r in (Fraction(3), Fraction(-5, 7)):
        b = fourth_point(a, c, d, r)
        assert cross_ratio(a, b, c, d) == r


# -- orientation ------------------------------------------------------------

def test_orientation_examples():
    assert orientation(pt(0), pt(1), INF) > 0
    assert is_clockwise(INF, pt(1), pt(0))
    assert not is_clockwise(pt(0), pt(1), INF)


def test_orientation_cyclic_invariance():
    triple = (pt(-2), pt(1), INF)
    a, b, c = triple
    assert orientation(a, b, c) == orientation(b, c, a) == orientation(c, a, b)
    assert orientation(a, b, c) == -orientation(b, a, c)


def test_sort_ccw():
    pts = [pt(3), INF, pt(-1), pt(0)]
    assert [p.b == 0 or affine(p) for p in sort_ccw(pts)] == [-1, 0, 3, True]


# -- shears -----------------------------------------------------------------

def test_shear_examples():
    z = shear_from_quadruple
    assert z(float_pt(pt(0)), float_pt(pt(1)), float_pt(INF), float_pt(pt(-1))) == 0
    assert z(float_pt(pt(0)), float_pt(pt(2)), float_pt(INF), float_pt(pt(-1))) == \
        pytest.approx(math.log(2))
    assert z(float_pt(pt(0)), float_pt(pt(1)), float_pt(INF), float_pt(pt(-3))) == \
        pytest.approx(-math.log(3))


def test_shear_rejects_nonnegative_cross_ratio():
    with pytest.raises(DegenerateConfigurationError):
        shear_from_quadruple(pt(0), INF, pt(1), pt(2))


def test_shear_symmetric_under_full_swap():
    # swapping the two triangles (x <-> y, zl <-> zr) preserves the shear
    y, zr, x, zl = (float_pt(p) for p in (pt(0), pt(3), INF, pt(-2)))
    s1 = shear_from_quadruple(y, zr, x, zl)
    s2 = shear_from_quadruple(x, zl, y, zr)
    assert s1 == pytest.approx(s2)


def test_shear_antisymmetric_under_side_swap():
    # reflecting the side vertices through the axis (zl <-> zr) negates it
    y, zr, x, zl = (float_pt(p) for p in (pt(0), pt(3), INF, pt(-2)))
    s1 = shear_from_quadruple(y, zr, x, zl)
    s2 = shear_from_quadruple(y, zl, x, zr)
    assert s1 == pytest.approx(-s2)


# -- axes and twists --------------------------------------------------------

def test_axis_data_diagonal():
    l = 1.3
    m = Mobius([[math.exp(l / 2), 0.0], [0.0, math.exp(-l / 2)]])
    att, rep, length = axis_data(m)
    assert att.is_infinity and rep == ProjPoint(0.0, 1.0)
    assert length == pytest.approx(l)


def test_axis_data_trace_formula():
    att, rep, length = axis_data(Mobius([[2.0, 1.0], [1.0, 1.0]]))
    assert length == pytest.approx(2 * math.acosh(1.5))


def test_axis_data_conjugation_equivariance():
    l = 0.9
    m = Mobius([[math.exp(l / 2), 0.0], [0.0, math.exp(-l / 2)]])
    g = Mobius([[1.0, 2.0], [0.5, 3.0]])
    att, rep, length = axis_data(g @ m @ g.inverse())
    assert length == pytest.approx(l)
    assert att == g(float_pt(INF))
    assert rep == g(ProjPoint(0.0, 1.0))


def test_axis_data_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        axis_data(Mobius([[1.0, 1.0], [0.0, 1.0]]))  # parabolic
    with pytest.raises(ValueError):
        axis_data(Mobius([[0.0, -1.0], [1.0, 0.0]]))  # elliptic


# -- the mode rule in the constructors --------------------------------------

@pytest.mark.parametrize("coords, error", [
    ((Fraction(1, 3), 0.5), ScalarModeError),
    ((0.5, Fraction(1, 3)), ScalarModeError),
    ((True, 1.0), TypeError),
    ((1.0, True), TypeError),
    (("1", 1.0), TypeError),
    ((0.0, 0.0), ValueError),
    ((0, 0.0), ValueError),
    ((0, 0), ValueError),
])
def test_projpoint_rejects_mixed_and_degenerate_coordinates(coords, error):
    with pytest.raises(error) as info:
        ProjPoint(*coords)
    assert info.type is error


@pytest.mark.parametrize("coords, expected, mode", [
    ((0.25, 0.5), (0.5, 1.0), FLOAT),
    ((-3.0, 0.75), (-1.0, 0.25), FLOAT),
    ((2, 4.0), (0.5, 1.0), FLOAT),
    ((-3.0, 1), (-1.0, 1 / 3), FLOAT),
    ((3, 6), (Fraction(3), Fraction(6)), EXACT),
    ((Fraction(1, 2), 3), (Fraction(1, 2), Fraction(3)), EXACT),
])
def test_projpoint_settles_its_mode(coords, expected, mode):
    p = ProjPoint(*coords)
    assert (p.a, p.b, p.mode) == (*expected, mode)
    assert {type(p.a), type(p.b)} == {float if mode == FLOAT else Fraction}
    if mode == FLOAT:
        assert max(abs(p.a), abs(p.b)) == 1.0


@pytest.mark.parametrize("rows, error", [
    ([[Fraction(1), 0.5], [0.0, 1.0]], ScalarModeError),
    ([[1.0, 0.0], [0.0, Fraction(1)]], ScalarModeError),
    ([[True, 1.0], [0.0, 1.0]], TypeError),
    ([[1.0, 0.0], [0.0, False]], TypeError),
    ([[0.0, 0.0], [0.0, 0.0]], ValueError),
    ([[1.0, 2.0], [2.0, 4.0]], ValueError),
    ([[1, 2.0], [2, 4]], ValueError),
])
def test_mobius_rejects_mixed_and_singular_entries(rows, error):
    with pytest.raises(error) as info:
        Mobius(rows)
    assert info.type is error


@pytest.mark.parametrize("rows, expected, mode", [
    ([[4.0, 0.0], [0.0, 1.0]], ((2.0, 0.0), (0.0, 0.5)), FLOAT),
    ([[0.0, -2.0], [2.0, 0.0]], ((0.0, -1.0), (1.0, 0.0)), FLOAT),
    ([[2, 0.0], [0.0, 2]], ((1.0, 0.0), (0.0, 1.0)), FLOAT),
    ([[1, 2], [3, 4]], ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))), EXACT),
])
def test_mobius_settles_its_mode(rows, expected, mode):
    m = Mobius(rows)
    assert (m.m, m.mode) == (expected, mode)
    assert {type(x) for row in m.m for x in row} == {float if mode == FLOAT else Fraction}
