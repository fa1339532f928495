"""Independent oracles: deliberately naive implementations used only to
cross-check the library (cofactor expansion instead of elimination, a
Bareiss elimination and a float LU with row swaps instead of the library's
column-pivoting row appends, the plain Bareiss update at every step of an
append, affine cross ratios instead of projective ones, the
symmetric-power representation as plain rows, a trie of one-shot
determinants in the other Veronese basis, a Veronese wedge in closed form,
one fan walk per spiral sum), and
one-off invariant values read off a Veronese trie of their own, or off a
table at one index."""
import functools
import math
from fractions import Fraction

import bdcoords.bd as bd
from bdcoords.flags import WedgeTrie
from bdcoords.multilinear import band_det_bruteforce
from bdcoords.surfaces import fan_cycle

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


def row_swap_det(rows) -> int:
    """Determinant of integer rows by Bareiss elimination (all divisions are
    exact), swapping in a lower row when a diagonal pivot is 0: one pass
    over the whole matrix, sharing no code with the library's column-pivoting
    row appends (``multilinear.bareiss_append``)."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def row_pivot_det(rows) -> float:
    """Determinant of float rows by LU elimination with partial pivoting over
    the whole matrix: each step swaps in the row with the largest entry in
    the pivot column, each swap flips the sign, and the determinant is the
    signed product of the pivots (0.0 once a pivot column is all zero).  It
    shares no code with the library's row appends, which pivot on the
    largest entry of each new row (``multilinear.float_append``)."""
    n = len(rows)
    a = [[float(x) for x in row] for row in rows]
    result = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            result = -result
        row_k = a[k]
        pivot = row_k[k]
        result *= pivot
        for row_i in a[k + 1:]:
            factor = row_i[k] / pivot
            for j in range(k + 1, n):
                row_i[j] -= factor * row_k[j]
    return result


def rational_det(rows) -> Fraction:
    """Determinant of rational rows: ``row_swap_det`` of the rows, each
    scaled to integers by the product of its denominators."""
    rows = [[Fraction(x) for x in row] for row in rows]
    scales = [math.prod(x.denominator for x in row) for row in rows]
    return Fraction(row_swap_det([[int(x * s) for x in row] for row, s in zip(rows, scales)]),
                    math.prod(scales))


def plain_bareiss_append(steps, row):
    """``multilinear.bareiss_append`` with the plain update at every step,
    zero leads included: the row is reduced by (x * pivot - lead * y) //
    previous pivot through each step in turn."""
    r = list(row)
    prev = 1
    for index, pivot, rest in steps:
        lead = r.pop(index)
        r = [(x * pivot - lead * y) // prev for x, y in zip(r, rest)]
        prev = pivot
    for index, x in enumerate(r):
        if x:
            return index, x, r[:index] + r[index + 1:]
    return None


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
    """log T_pqr at one ideal triangle's flags, on a trie of its own, with
    the vertices taken clockwise from ``vertex``."""
    pts = ds.pants[pants_id].triangles[tri].pts
    k = CLOCKWISE.index(vertex)
    table = bd.veronese_table(bd.veronese_trie(n, "exact"),
                              [pts[CLOCKWISE[(k + m) % 3]] for m in range(3)],
                              f"at pants {pants_id} triangle {tri}")
    return log_triple_ratio(table, p, q, r)


def log_triple_ratio(table, p, q, r):
    """log T_pqr of a table alone, by ``bd._log_ratio`` of that index."""
    return bd._log_ratio(table, "triple ratio T_", (p, q, r), *table.triple_ratio(p, q, r))


def log_double_ratio(table, p):
    """log D_p of a table alone, as ``log_triple_ratio``."""
    return bd._log_ratio(table, "double ratio D_", p, *table.double_ratio(p))


def spiral_sum(v, spec, curve_id, p, side, vertex_rule):
    """R_p (side="right") or L_p (side="left") of a curve read term by term
    off the displayed formulas, with a fan walk of its own: each crossing
    adds its leaf's sigma at p or n - p, then the row of its spike
    triangle's tau, rotated from the canonical vertex to the spike vertex.
    "swapped" exchanges the two tau index blocks."""
    n = v.n
    pid, slot = spec.side(curve_id, side)
    lam = spec.pants[pid]
    sign = lam.spiral_signs[slot]
    with_direction = (side == "right") == (sign == 1)
    if with_direction == (vertex_rule == "verbatim"):
        terms = [(p, q, n - p - q) for q in range(1, n - p)]
    else:
        terms = [(n - p, q, p - q) for q in range(1, p)]
    total = 0.0
    for step in fan_cycle(lam, slot):
        toward = lam.forward_end(step.leaf) == step.fan_end
        total += v.sigma[(pid, step.leaf, p if toward == with_direction else n - p)]
        k = CLOCKWISE.index(step.corner)   # (p, q, r) -> (r, p, q), k times
        for pqr in terms:
            total += v.tau[(pid, step.tri, pqr[3 - k:] + pqr[:3 - k])]
    return sign * total


def complement_rows(a, b, n):
    """The rows (a X + b Y)^{n-d} (b X - a Y)^{d-1}, d = 1, ..., n, of the
    Veronese flag at [a : b] in the monomial basis, with coefficients in the
    ring of a and b: the complement basis without the library's unit scaling
    and orthonormal weights."""
    lead, aux = [[1]], [[1]]
    for _ in range(n - 1):
        lead.append(_poly_mul(lead[-1], [a, b]))
        aux.append(_poly_mul(aux[-1], [b, -a]))
    return [_poly_mul(lead[n - d], aux[d - 1]) for d in range(1, n + 1)]


def complement_factor(a, b):
    """The factor c such that a block of d rows of the Veronese flag at
    [a : b] has wedge c^C(d, 2) times larger in the complement basis
    (b X - a Y) than in the triangular exact basis: b X - a Y is
    c Y + (b / a)(a X + b Y) with c = -(a^2 + b^2) / a, and b X itself
    at a = 0."""
    return Fraction(b) if a == 0 else Fraction(-(a * a + b * b), a)


_band_det = functools.cache(band_det_bruteforce)


def veronese_wedge(points, levels):
    """The wedge of the exact Veronese flag rows (``exact_flag_rows``) at
    integer points [a_i : b_i], every a_i != 0, stacked at ``levels``, in
    closed form (Kalman 1984, *The generalized Vandermonde matrix*):
    K * prod a_i^C(d_i, 2) * prod_{i<j} (a_i b_j - a_j b_i)^(d_i d_j) over
    the nonzero blocks in stacking order, where K is 1 for one or two
    blocks and the band determinant of the levels for three."""
    blocks = [(a, b, d) for (a, b), d in zip(points, levels) if d]
    if len(blocks) > 3:
        raise ValueError("the closed form covers at most three nonzero blocks")
    value = _band_det(*(d for _, _, d in blocks)) if len(blocks) == 3 else 1
    for i, (a, b, d) in enumerate(blocks):
        value *= a ** math.comb(d, 2)
        for c, e, f in blocks[i + 1:]:
            value *= (a * e - c * b) ** (d * f)
    return value


def integer_coordinates(pt):
    """[numerator : denominator] of a point's affine value a / b, or
    [1 : 0] at infinity."""
    if pt.b == 0:
        return 1, 0
    x = Fraction(pt.a) / Fraction(pt.b)
    return x.numerator, x.denominator


def complement_trie(n, mode):
    """A Veronese trie whose flags, named by integer points, are the integer
    rows of the complement basis (b X - a Y) there, and whose every wedge is
    one ``row_swap_det`` of the stacked rows: no base, no shared prefix, no
    row append, no pivot read.  Passed for ``bd.veronese_trie``, with
    ``integer_coordinates`` for ``bd._integer_point``, it gives the
    invariants of the float basis in exact arithmetic."""
    trie = WedgeTrie(n, lambda point: complement_rows(*point, n), mode, None)
    trie.wedge = lambda blocks: row_swap_det(
        [row for key, d in blocks for row in trie.rows[key][:d]])
    return trie


def random_vector(rng, vec):
    """A vector with vec's keys and independent random values, so a sum
    that reads a wrong index or vertex comes out different."""
    return bd.BDVector(n=vec.n, **{block: {k: rng.uniform(-2.0, 2.0) for k in values}
                                   for block, values in (("tau", vec.tau), ("sigma", vec.sigma),
                                                         ("theta", vec.theta))})


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
