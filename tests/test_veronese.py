import math
import random
from fractions import Fraction
from itertools import product

import pytest

from bdcoords.flags import is_generic
from bdcoords.halfplane import Mobius, ProjPoint
from bdcoords.multilinear import det_int, det_raw, ext_binomial
from bdcoords.veronese import exact_flag_rows, flag_rows, veronese_flag
from oracles import complement_factor, complement_rows, irrep_n, matmul

INF = ProjPoint(1, 0)


def random_sl2(rng):
    while True:
        a, b, c = (Fraction(rng.randint(-4, 4)) for _ in range(3))
        if a == 0:
            continue
        # choose d to make the determinant 1 when possible
        if b * c == 0:
            if (1 + b * c) % a == 0:
                return Mobius([[a, b], [c, (1 + b * c) / a]])
        else:
            d = Fraction(1 + b * c, a)
            return Mobius([[a, b], [c, d]])


def test_irrep_n2_is_identity_map():
    m = Mobius([[3, 2], [1, 1]])
    assert irrep_n(m, 2) == [[3, 2], [1, 1]]


def test_irrep_diagonal_n3():
    lam = Fraction(5, 2)
    rep = irrep_n(Mobius([[lam, 0], [0, 1 / lam]]), 3)
    assert rep == [[lam ** 2, 0, 0], [0, 1, 0], [0, 0, lam ** -2]]


def test_irrep_determinant_is_one():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        rep = irrep_n(random_sl2(rng), n)
        assert det_raw(rep, "exact") == 1  # symmetric power of SL2 lands in SL(n)


def test_irrep_homomorphism():
    rng = random.Random(6)
    for n in (3, 4, 5):
        a, b = random_sl2(rng), random_sl2(rng)
        lhs = irrep_n(a @ b, n)
        rhs = matmul(irrep_n(a, n), irrep_n(b, n))
        assert lhs == rhs


def test_irrep_inverse():
    rng = random.Random(7)
    for n in (3, 4):
        a = random_sl2(rng)
        prod = matmul(irrep_n(a, n), irrep_n(a.inverse(), n))
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_veronese_levels_at_zero_and_infinity():
    n = 5
    # at 0 the level-d space is the span of the last d monomials, at
    # infinity the span of the first d
    f0 = veronese_flag(ProjPoint(0, 1), n)
    finf = veronese_flag(INF, n)
    for d in range(1, n + 1):
        for vec in f0.basis[:d]:
            assert all(vec[i] == 0 for i in range(n - d))
        for vec in finf.basis[:d]:
            assert all(vec[i] == 0 for i in range(d, n))


def test_veronese_leading_vector_is_the_curve():
    p = ProjPoint(3, 2)
    f = veronese_flag(p, 4)
    assert tuple(f.basis[0]) == (27, 18 * 3, 12 * 3, 8)  # (3X + 2Y)^3


def subspace_equal(block_a, block_b, n):
    """Exact equality of spans via wedge annihilation."""
    from bdcoords.multilinear import det_raw
    d = len(block_a)
    assert len(block_b) == d
    import itertools
    # each vector of block_b must be dependent on block_a: every (d+1)-row
    # selection of standard-completed minors vanishes
    for v in block_b:
        rows = [list(w) for w in block_a] + [list(v)]
        for cols in itertools.combinations(range(n), d + 1):
            minor = [[row[c] for c in cols] for row in rows]
            if det_raw(minor, "exact") != 0:
                return False
    return True


def test_veronese_equivariance():
    rng = random.Random(11)
    for n in (3, 4):
        a = random_sl2(rng)
        for x in (ProjPoint(0, 1), ProjPoint(1, 1), INF, ProjPoint(-2, 3)):
            moved = veronese_flag(a(x), n)
            # the basis vectors are the columns of B^T, pushed as columns of A B^T
            basis_t = [list(col) for col in zip(*veronese_flag(x, n).basis)]
            pushed = list(zip(*matmul(irrep_n(a, n), basis_t)))
            for d in range(1, n + 1):
                assert subspace_equal(pushed[:d], [list(r) for r in moved.basis[:d]], n)


def test_sym_eigenvalues_pattern():
    # the symmetric power of diag(lam, 1/lam) is diag(lam^(n-1), lam^(n-3),
    # ..., lam^(1-n)): every eigenvalue gap is lam^2, so every l_p of the
    # closed leaf condition is the hyperbolic length 2 log lam
    l = 1.1
    m = Mobius([[math.exp(l / 2), 0.0], [0.0, math.exp(-l / 2)]])
    rep = irrep_n(m, 4)
    lam = math.exp(l / 2)
    assert [rep[i][j] for i in range(4) for j in range(4) if i != j] == [0.0] * 12
    assert [rep[i][i] for i in range(4)] == pytest.approx([lam ** 3, lam, lam ** -1, lam ** -3])


def test_wedge_pairing_identity():
    # the pairing of leading blocks at infinity and zero with the Veronese
    # vector at z: always (-1)^(n-p-1) * binom(n-1, p) * z^(n-p-1), the
    # determinant of the stacked rows in the standard basis
    std = lambda n: [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for n in range(2, 9):
        basis = std(n)
        for z in (Fraction(2), Fraction(-3, 2), Fraction(5, 7)):
            s_z = [ext_binomial(n - 1, i) * z ** (n - 1 - i) for i in range(n)]
            for p in range(0, n):
                if n - p - 1 < 0:
                    continue
                vectors = basis[:p] + basis[n - (n - p - 1):] + [s_z]
                got = det_raw(vectors, "exact")
                expected = (Fraction(-1) ** (n - p - 1)) * ext_binomial(n - 1, p) \
                    * z ** (n - p - 1)
                assert got == expected, (n, p, z)


def test_veronese_triples_generic():
    for n in (3, 5):
        flags = [veronese_flag(p, n)
                 for p in (ProjPoint(-1, 1), ProjPoint(2, 1), INF)]
        assert is_generic(flags)


def seeded_coordinates(rng, count):
    """[a : b] pairs: 0, infinity, [0 : b] and [a : 0] off the unit
    coordinates, and random ones of either sign."""
    pairs = [(0, 1), (1, 0), (0, -3), (0, 5), (-2, 0)]
    while len(pairs) < count:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) != (0, 0):
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("n", range(2, 10))
def test_exact_rows_are_triangular_with_nonzero_diagonal(n):
    rng = random.Random(20 + n)
    pairs = seeded_coordinates(rng, 12) + [(Fraction(-3, 4), Fraction(5, 6))]
    for a, b in pairs:
        rows = exact_flag_rows(a, b, n)
        for d, row in enumerate(rows, start=1):
            if a == 0:
                # anti-triangular: row d is b^(n-d) e_{n-d+1}
                assert row == [b ** (n - d) if k == n - d + 1 else 0
                               for k in range(1, n + 1)]
            else:
                assert row[:d - 1] == [0] * (d - 1)
                assert row[d - 1] == a ** (n - d) != 0
        sign = (-1) ** (n * (n - 1) // 2) if a == 0 else 1
        assert det_raw(rows, "exact") == sign * (b if a == 0 else a) ** (n * (n - 1) // 2)
    assert exact_flag_rows(0, 1, n) == [[int(k == n - d + 1) for k in range(1, n + 1)]
                                        for d in range(1, n + 1)]
    assert exact_flag_rows(1, 0, n) == [[int(k == d) for k in range(1, n + 1)]
                                        for d in range(1, n + 1)]


@pytest.mark.parametrize("n", range(2, 10))
def test_complement_basis_wedge_is_the_exact_wedge_times_its_factors(n):
    # every level tuple of 2-4 flags: the (b X - a Y) rows of the float
    # path and the triangular exact rows differ by c^C(d, 2) per block
    rng = random.Random(60 + n)
    pairs = seeded_coordinates(rng, 9)
    rows = {p: (complement_rows(*p, n), exact_flag_rows(*p, n)) for p in pairs}
    tuples = [pairs[:2], pairs[1:4], [pairs[0], pairs[5], pairs[2], pairs[6]]]
    tuples += [rng.sample(pairs, m) for m in (2, 3, 4) for _ in range(8)]
    for pts in tuples:
        for levels in product(range(n + 1), repeat=len(pts)):
            if sum(levels) != n:
                continue
            old, new = ([row for p, d in zip(pts, levels) for row in rows[p][i][:d]]
                        for i in (0, 1))
            factor = math.prod(complement_factor(*p) ** math.comb(d, 2)
                               for p, d in zip(pts, levels))
            assert det_int(old) == det_int(new) * factor


@pytest.mark.parametrize("n", range(2, 13))
def test_float_basis_is_orthonormal(n):
    # the (b X - a Y) rows at [a : b] of unit norm, in the coordinates of the
    # Bombieri inner product: the Gram matrix is the identity to 1e-12
    rng = random.Random(90 + n)
    pairs = [(0.0, 1.0), (1.0, 0.0), (-3.0, 0.5)]
    pairs += [(rng.uniform(-40, 40), rng.uniform(0.1, 40)) for _ in range(6)]
    for a, b in pairs:
        rows = flag_rows(a, b, n)
        for i in range(n):
            for j in range(n):
                dot = sum(x * y for x, y in zip(rows[i], rows[j]))
                assert abs(dot - (i == j)) <= 1e-12, (a, b, i, j)
