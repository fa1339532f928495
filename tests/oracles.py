"""Independent oracles: deliberately naive implementations used only to
cross-check the library (cofactor expansion instead of elimination, affine
cross ratios instead of projective ones, the symmetric-power representation
as plain rows, a kernel of one-shot determinants in the other Veronese
basis), and one-off invariant values read off a wedge kernel of their own."""
from fractions import Fraction

import bdcoords.bd as bd
from bdcoords.multilinear import det_int
from bdcoords.veronese import flag_rows

CLOCKWISE = (0, 2, 1)   # corners of a placed triangle, clockwise from corner 0


def cofactor_det(rows):
    """Recursive cofactor expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def affine_cross_ratio(a, b, c, d):
    """z(a,b,c,d) = (d-a)(b-c)/((d-c)(b-a)) on finite numbers."""
    return Fraction(d - a) * (b - c) / ((d - c) * (b - a))


def stacked_rows(flags_with_dims):
    rows = []
    for flag, d in flags_with_dims:
        rows.extend(flag.basis[:d])
    return rows


def triple_ratio_by(det, E, F, G, p, q, r):
    """Triple ratio with every wedge factor computed by ``det`` on the
    stacked basis rows."""
    def w(dp, dq, dr):
        return det(stacked_rows([(E, dp), (F, dq), (G, dr)]))

    num = w(p + 1, q, r - 1) * w(p, q - 1, r + 1) * w(p - 1, q + 1, r)
    den = w(p - 1, q, r + 1) * w(p, q + 1, r - 1) * w(p + 1, q - 1, r)
    return Fraction(num) / den


def double_ratio_by(det, E, F, G, Gp, p):
    """Double ratio with every wedge factor computed by ``det`` on the
    stacked basis rows."""
    n = E.n

    def w(dp, dq, last):
        return det(stacked_rows([(E, dp), (F, dq), (last, 1)]))

    num = w(p, n - p - 1, G) * w(p - 1, n - p, Gp)
    den = w(p, n - p - 1, Gp) * w(p - 1, n - p, G)
    return -Fraction(num) / den


def triple_ratio_by_cofactors(E, F, G, p, q, r):
    """Triple ratio with every wedge factor expanded by cofactors."""
    return triple_ratio_by(cofactor_det, E, F, G, p, q, r)


def double_ratio_by_cofactors(E, F, G, Gp, p):
    return double_ratio_by(cofactor_det, E, F, G, Gp, p)


def triangle_invariant(ds, pants_id, tri, vertex, p, q, r, n):
    """log T_pqr at one ideal triangle's flags, on a kernel of its own, with
    the vertices taken clockwise from ``vertex``."""
    pts = ds.pants[pants_id].triangles[tri].pts
    k = CLOCKWISE.index(vertex)
    table = bd.WedgeKernel(n).table([pts[CLOCKWISE[(k + m) % 3]] for m in range(3)],
                                    f"at pants {pants_id} triangle {tri}")
    return table.log_triple_ratio(p, q, r)


def complement_factor(a, b):
    """The factor c such that a block of d rows of the Veronese flag at
    [a : b] has wedge c^C(d, 2) times larger in the complement basis
    (b X - a Y) than in the triangular exact basis: b X - a Y is
    c Y + (b / a)(a X + b Y) with c = -(a^2 + b^2) / a, and b X itself
    at a = 0."""
    return Fraction(b) if a == 0 else Fraction(-(a * a + b * b), a)


def integer_coordinates(pt):
    """[numerator : denominator] of a point's affine value a / b, or
    [1 : 0] at infinity."""
    if pt.b == 0:
        return 1, 0
    x = Fraction(pt.a) / Fraction(pt.b)
    return x.numerator, x.denominator


class ComplementKernel(bd.WedgeKernel):
    """A wedge kernel whose flags are the integer rows of the complement
    basis (b X - a Y) and whose every wedge is one ``det_int`` of the
    stacked rows: no trie, no shared prefix, no pivot read.  Passed for
    ``bd.WedgeKernel``, it gives the invariants of the float basis in exact
    arithmetic."""

    def table(self, points, where):
        keys = [self.add(flag_rows(*integer_coordinates(pt), self.n)) for pt in points]
        return bd.InvariantTable(self, keys, where)

    def wedge(self, blocks):
        return det_int([row for key, d in blocks for row in self.rows[key][:d]])


def slice_point_of(v, spec):
    """The slice point read off an invariant vector: each leaf's shear and
    each curve's gluing value is the mean of its block over p."""
    shears = {pid: {} for pid in spec.pants}
    for (pid, leaf, _p), x in v.sigma.items():
        shears[pid].setdefault(leaf, []).append(x)
    gluing = {}
    for (cid, _p), x in v.theta.items():
        gluing.setdefault(cid, []).append(x)
    return bd.SlicePoint(
        shears={pid: {leaf: sum(xs) / len(xs) for leaf, xs in leaves.items()}
                for pid, leaves in shears.items()},
        gluing={cid: sum(xs) / len(xs) for cid, xs in gluing.items()})


def random_unimodular(rng, n, steps=12):
    """A random integer matrix of determinant 1, a product of elementary
    shears."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def irrep_n(A, n):
    """The symmetric-power image of a Moebius map's matrix, as rows in the
    monomial basis X^{n-1}, X^{n-2} Y, ..., Y^{n-1}.

    Column j holds the coefficients of (a11 X + a21 Y)^{n-j} (a12 X + a22 Y)^{j-1},
    so that the Veronese curve is equivariant:
    irrep_n(A, n) . veronese(p) = veronese(A . p) projectively.
    """
    (a, b), (c, d) = A.m
    cols = []
    for j in range(1, n + 1):
        poly = [1]
        for factor, power in (([a, c], n - j), ([b, d], j - 1)):
            for _ in range(power):
                poly = _poly_mul(poly, factor)
        cols.append(poly)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def matmul(a, b):
    """The product of two matrices given as rows."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def projectively_equal(m, other, tol=1e-9):
    """Whether two Moebius maps have proportional matrices: exactly for exact
    maps, and entrywise within ``tol`` after scaling for float ones."""
    assert m.mode == other.mode
    xs = [x for row in m.m for x in row]
    ys = [x for row in other.m for x in row]
    if m.mode == "exact":
        return all(xs[i] * ys[j] == xs[j] * ys[i]
                   for i in range(4) for j in range(i + 1, 4))
    i0 = max(range(4), key=lambda i: abs(ys[i]))
    scale = xs[i0] / ys[i0]
    return all(abs(xs[i] - scale * ys[i]) <= tol for i in range(4))
