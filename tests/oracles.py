"""Independent oracles: deliberately naive implementations used only to
cross-check the library (cofactor expansion instead of elimination, affine
cross ratios instead of projective ones), and one-off invariant values read
off a wedge kernel of their own."""
from fractions import Fraction

import bdcoords.bd as bd

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
                                    f"pants {pants_id} triangle {tri}")
    return table.log_triple_ratio(p, q, r)


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
