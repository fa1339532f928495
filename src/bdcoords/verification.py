"""Seeded identity suites: projective-invariant laws at scale.

All randomness flows through ``random.Random(seed)`` (Python's Mersenne
Twister), drawing only integers via ``randint``; reports are therefore
reproducible bit for bit from (suite, parameters, seed).

Exact-mode suites assert identities exactly (the worst deviation is then 0
or 1): the triple-ratio suite decides T = 1 as num == den and the
double-ratio suite D = -1/z by cross-multiplying with the numerator and
denominator of -1/z, so neither builds a Fraction per ratio.  Float-mode
suites report the worst absolute deviation against the stated tolerance.
The triple- and double-ratio suites read each case off a fresh
``bd.veronese_trie`` of their mode (the path of ``bd_vector``; no ``Flag``
is built), in exact mode off the triangular rows at the points' images in
the chart that puts the case's first point at 0, whose unit rows are never
stacked; the permutation suite reads each case off the one trie that
checked its flags generic.  Every report lists
its first 20 failing cases, then "..." if there are more, on stdout and in
its JSON.
"""
from __future__ import annotations

import math
import random

from .flags import DegenerateFlagError, Flag, wedge_table
from .halfplane import ProjPoint, cross_ratio, is_clockwise, shear_from_quadruple, sort_ccw
from .multilinear import compare_band, compare_rhombus
from .surfaces import (PantsLamination, SLOTS, SurfaceSpec, assemble_surface,
                       boundary_lengths, cyclic_pair, develop_pants, leaf_name,
                       validate_shears)
from . import bd

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 1
GENUS2_RANKS = (3, 4, 5)   # the ranks of the genus2 and roundtrip suites


class SuiteReport:
    """The tally of one suite run, kept by its ``record`` calls."""

    def __init__(self, suite: str, params: dict):
        self.suite = suite
        self.params = params
        self.cases = 0
        self.failures = []
        self.worst = 0.0
        self.sign_mismatches = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, deviation: float, label: str, tol: float = 0.0):
        self.worst = max(self.worst, deviation)
        if deviation > tol:
            self.record_failure(f"{label}: deviation {deviation:.6g}")
        else:
            self.cases += 1

    def record_failure(self, message: str):
        """Count a case that failed without a deviation, such as a ratio
        whose wedge factors fell below the float genericity threshold."""
        self.cases += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        elif len(self.failures) == 20:
            self.failures.append("...")

    def lines(self):
        status = "PASS" if self.passed else "FAIL"
        head = (f"[{status}] {self.suite} cases={self.cases} "
                f"worst={self.worst:.6g}")
        if self.sign_mismatches is not None:
            head += f" sign_mismatches={self.sign_mismatches} (informational)"
        out = [head]
        out.extend(f"    {f}" for f in self.failures)
        return out

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "params": {k: v for k, v in sorted(self.params.items())},
            "cases": self.cases,
            "passed": self.passed,
            "worst_deviation": format(self.worst, ".17g"),
            "sign_mismatches": self.sign_mismatches,
            "failures": list(self.failures),
        }


# ---------------------------------------------------------------------------
# samplers


def sample_points(rng: random.Random, count: int, with_infinity: bool = False,
                  min_separation: float = 0.0) -> list:
    """Distinct exact boundary points [a : b], -40 <= a <= 40 and 1 <= b <= 40.

    min_separation > 0 additionally enforces a chordal gap between the
    normalized points; float-mode suites need it because determinants of
    nearly-coincident high-degree Veronese flags are below double precision.
    """
    points = []
    if with_infinity:
        points.append(ProjPoint(1, 0))

    def separated(p: ProjPoint, q: ProjPoint) -> bool:
        if min_separation <= 0.0:
            return p != q
        num = abs(float(p.a) * float(q.b) - float(p.b) * float(q.a))
        scale = math.hypot(float(p.a), float(p.b)) * math.hypot(float(q.a), float(q.b))
        return num > min_separation * scale

    tries = 0
    while len(points) < count:
        tries += 1
        if tries > 10000:
            raise RuntimeError("point sampling stalled")
        a = rng.randint(-40, 40)
        b = rng.randint(1, 40)
        p = ProjPoint(a, b)
        if all(separated(p, q) for q in points):
            points.append(p)
    return points


def sample_float(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform float from integer draws (keeps the RNG protocol int-only)."""
    return lo + (hi - lo) * rng.randint(0, 10 ** 9) / 10 ** 9


def random_generic_flags(rng: random.Random, n: int, count: int):
    """Random exact flags forming a generic tuple (rejection sampled), and
    the table that checked them (``WedgeTable.is_generic``)."""
    for _ in range(200):
        flags = []
        try:
            for _ in range(count):
                basis = [[rng.randint(-9, 9) for _ in range(n)]
                         for _ in range(n)]
                flags.append(Flag(basis))
        except ValueError:
            continue
        table = wedge_table(flags, "in a flag tuple")
        if table.is_generic():
            return flags, table
    raise RuntimeError("generic flag sampling stalled")


# ---------------------------------------------------------------------------
# flag identity suites


def run_triple_ratio(n: int, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                     mode: str = "exact") -> SuiteReport:
    """Triple ratios of Veronese flags at clockwise triples all equal 1.

    Every index of a case is read off one wedge table of its three flags."""
    rng = random.Random(seed)
    report = SuiteReport("triple-ratio", dict(n=n, samples=samples, seed=seed, mode=mode))
    min_sep = 0.2 if mode == "float" else 0.0
    for case in range(samples):
        pts = sample_points(rng, 3, with_infinity=(case % 7 == 0),
                            min_separation=min_sep)
        a, b, c = sort_ccw(pts)
        triple = (c, b, a)   # clockwise
        assert is_clockwise(*triple)
        trie = bd.veronese_trie(n, mode, triple[0] if mode == "exact" else None)
        table = bd.veronese_table(trie, triple, "in triple ratio")
        for p, q, r in bd.triple_indices(n):
            try:
                num, den = table.triple_ratio(p, q, r)
            except DegenerateFlagError as exc:
                report.record_failure(f"case {case} T_{p}{q}{r}: {exc}")
                continue
            if mode == "exact":
                dev = 0.0 if num == den else 1.0
            else:
                dev = abs(num / den - 1.0)
            report.record(dev, f"case {case} T_{p}{q}{r}", bd.TOL if mode == "float" else 0.0)
    return report


def run_double_ratio(n: int, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                     mode: str = "exact") -> SuiteReport:
    """Double ratios of Veronese flags against -1/(cross ratio), every
    index of a case read off one wedge table of its four flags."""
    rng = random.Random(seed)
    report = SuiteReport("double-ratio", dict(n=n, samples=samples, seed=seed, mode=mode))
    min_sep = 0.2 if mode == "float" else 0.0
    for case in range(samples):
        pts = sample_points(rng, 4, with_infinity=(case % 5 == 0),
                            min_separation=min_sep)
        a, b, c, d = sort_ccw(pts)   # counterclockwise quadruple
        z = cross_ratio(c, d, a, b)
        expected = -1 / z
        trie = bd.veronese_trie(n, mode, a if mode == "exact" else None)
        table = bd.veronese_table(trie, (a, c, b, d), "in double ratio")
        for p in range(1, n):
            try:
                num, den = table.double_ratio(p)
            except DegenerateFlagError as exc:
                report.record_failure(f"case {case} D_{p}: {exc}")
                continue
            if mode == "exact":
                # num / den == expected, cross-multiplied (den and the
                # expected denominator are nonzero)
                dev = 0.0 if num * expected.denominator == den * expected.numerator else 1.0
                report.record(dev, f"case {case} D_{p}")
            else:
                e = float(expected)
                dev = abs(num / den - e) / max(1.0, abs(e))
                report.record(dev, f"case {case} D_{p}", bd.TOL)
    return report


def run_permutation(n: int, samples: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """The triple-ratio permutation laws on random generic exact flags, each
    case's three orders read off the trie of the sampler's genericity check,
    whose table holds every entry of the order (E, F, G)."""
    rng = random.Random(seed)
    report = SuiteReport("permutation", dict(n=n, samples=samples, seed=seed))
    for case in range(samples):
        (E, F, G), efg = random_generic_flags(rng, n, 3)
        fge = efg.trie.table((F, G, E), "in triple ratio")
        feg = efg.trie.table((F, E, G), "in triple ratio")
        for p, q, r in bd.triple_indices(n):
            t = efg.quotient(*efg.triple_ratio(p, q, r))
            ok = (t == fge.quotient(*fge.triple_ratio(q, r, p))
                  and t * feg.quotient(*feg.triple_ratio(q, p, r)) == 1)
            report.record(0.0 if ok else 1.0, f"case {case} T_{p}{q}{r}")
    return report


# ---------------------------------------------------------------------------
# binomial determinant suites


def run_rhombus(max_n: int = 10) -> SuiteReport:
    """|closed form| equals |brute force| for the rhombus determinants, n, l <= max_n."""
    report = SuiteReport("rhombus", dict(max_n=max_n, max_l=max_n))
    mismatches = 0
    for n in range(max_n + 1):
        for k in range(n + 1):
            for l in range(max_n + 1):
                r = compare_rhombus(n, k, l)
                report.record(0.0 if r["abs_equal"] else 1.0, f"rhombus{(n, k, l)}")
                mismatches += not r["sign_agree"]
    report.sign_mismatches = mismatches
    return report


def run_band(max_index: int = 10) -> SuiteReport:
    """|closed form| equals |brute force| for the band determinants."""
    report = SuiteReport("band", dict(max_index=max_index))
    mismatches = 0
    for p in range(max_index + 1):
        for q in range(1, max_index + 1):
            for r in range(max_index + 1):
                n = p + q + r
                res = compare_band(n, p, q, r)
                report.record(0.0 if res["abs_equal"] else 1.0, f"band{(p, q, r)}")
                mismatches += not res["sign_agree"]
    report.sign_mismatches = mismatches
    return report


# ---------------------------------------------------------------------------
# pants suites


def lamination_variants():
    """Every lamination kind and spiraling sign pattern with nonempty range."""
    out = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                out.append(PantsLamination(
                    kind="I", spiral_signs={1: s1, 2: s2, 3: s3},
                    leaf_orientations={}))
    for dist in SLOTS:
        j, k = cyclic_pair(dist)
        for sd in (1, -1):
            signs = {dist: sd, j: 1, k: 1}
            out.append(PantsLamination(kind="II", spiral_signs=signs,
                                       leaf_orientations={}, distinguished=dist))
    return out


def sample_valid_shears(rng: random.Random, lam: PantsLamination, hi: float = 2.5) -> dict:
    """Rejection-sample shears {leaf: value}, |value| in [0.05, hi], in the valid range."""
    leaves = lam.leaves()
    for _ in range(10000):
        values = {}
        for leaf in leaves:
            mag = sample_float(rng, 0.05, hi)
            if lam.kind == "II" and leaf != leaf_name(lam.distinguished, lam.distinguished):
                values[leaf] = mag
            else:
                values[leaf] = mag if rng.randint(0, 1) else -mag
        if validate_shears(lam, values):
            return values
    raise RuntimeError("shear sampling stalled")


def run_pants(samples: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Developed boundary lengths against signed spiral shear sums, and the
    shear round trip through the developed leaf quadruples."""
    rng = random.Random(seed)
    report = SuiteReport("pants", dict(samples=samples, seed=seed))
    for lam in lamination_variants():
        tag = f"{lam.kind}/{lam.distinguished}/{tuple(lam.spiral_signs.values())}"
        for case in range(samples):
            s = sample_valid_shears(rng, lam)
            dev_pants = develop_pants(lam, s)
            expected = boundary_lengths(lam, s)
            for slot in SLOTS:
                fan = dev_pants.fans[slot]
                dev = abs(fan.length - expected[slot])
                report.record(dev, f"{tag} case {case} length slot {slot}", bd.TOL)
                signed = lam.spiral_signs[slot] * fan.shear_sum
                report.record(0.0 if signed > 0 else 1.0,
                              f"{tag} case {case} spiral sign slot {slot}")
            for leaf, quad in dev_pants.leaf_quadruples.items():
                back = shear_from_quadruple(quad.y, quad.zr, quad.x, quad.zl)
                dev = abs(back - s[leaf])
                report.record(dev, f"{tag} case {case} shear {leaf}", bd.TOL)
    return report


# ---------------------------------------------------------------------------
# genus-2 suites


def sample_sign_pattern(rng: random.Random):
    return tuple(1 if rng.randint(0, 1) else -1 for _ in SLOTS)


def shears_from_lengths(signs, lengths) -> dict:
    """Kind-I shears realizing given boundary lengths with given spiraling.

    The spiral sums are (x12 + x13, x12 + x23, x13 + x23); they must equal
    sign_i * length_i, which pins the three shears linearly.
    """
    t1, t2, t3 = (s * l for s, l in zip(signs, lengths))
    x12 = (t1 + t2 - t3) / 2.0
    x13 = (t1 - t2 + t3) / 2.0
    x23 = (-t1 + t2 + t3) / 2.0
    return {leaf_name(1, 2): x12, leaf_name(1, 3): x13, leaf_name(2, 3): x23}


def sample_genus2(rng: random.Random):
    """A random genus-2 instance: spec, shears, twists with matching lengths.

    Lengths and twists stay in a moderate band: developing runs in double
    precision, and developed vertices approach each other exponentially
    fast in the shear magnitudes.
    """
    signs0 = sample_sign_pattern(rng)
    signs1 = sample_sign_pattern(rng)
    lengths = [sample_float(rng, 0.8, 1.6) for _ in SLOTS]
    pants = {"P0": PantsLamination(kind="I", spiral_signs={s: signs0[s - 1] for s in SLOTS},
                                   leaf_orientations={}),
             "P1": PantsLamination(kind="I", spiral_signs={s: signs1[s - 1] for s in SLOTS},
                                   leaf_orientations={})}
    spec = SurfaceSpec(genus=2, pants=pants,
                       curves={f"C{i}": (("P0", i), ("P1", i)) for i in SLOTS})
    shears = {"P0": shears_from_lengths(signs0, lengths),
              "P1": shears_from_lengths(signs1, lengths)}
    twists = {f"C{i}": sample_float(rng, -1.5, 1.5) for i in SLOTS}
    return spec, shears, twists


def run_genus2_invariants(n_values=GENUS2_RANKS, seeds: int = 50,
                          seed: int = DEFAULT_SEED) -> SuiteReport:
    """Vanishing triangle block, index independence, shear recovery, and the
    closed leaf condition on random genus-2 assemblies."""
    report = SuiteReport("genus2-invariants",
                         dict(n_values=list(n_values), seeds=seeds, seed=seed))
    rng = random.Random(seed)
    for case in range(seeds):
        spec, shears, twists = sample_genus2(rng)
        ds = assemble_surface(spec, shears, twists)
        for n in n_values:
            vec = bd.bd_vector(ds, n)
            devs = bd.slice_deviations(vec)
            for key in vec.tau:
                report.record(devs["tau", key], f"case {case} n={n} tau{key}", bd.TOL)
            for pid, lam in spec.pants.items():
                for leaf in lam.leaves():
                    report.record(devs["sigma", pid, leaf],
                                  f"case {case} n={n} sigma spread {pid}/{leaf}", bd.TOL)
                    sigma1 = vec.sigma[(pid, leaf, 1)]
                    report.record(abs(sigma1 - shears[pid][leaf]),
                                  f"case {case} n={n} shear recovery {pid}/{leaf}", bd.TOL)
                    quad = ds.pants[pid].leaf_quadruples[leaf]
                    classical = shear_from_quadruple(quad.y, quad.zr, quad.x, quad.zl)
                    report.record(abs(sigma1 - classical),
                                  f"case {case} n={n} classical shear {pid}/{leaf}", bd.TOL)
            for cid in spec.curves:
                report.record(devs["theta", cid],
                              f"case {case} n={n} theta spread {cid}", bd.TOL)
            rep = bd.closed_leaf_report(vec, ds)
            report.record(rep.max_deviation(), f"case {case} n={n} closed leaf", bd.TOL)
            ok, problems = bd.polytope_membership(rep)
            report.record(0.0 if ok else 1.0, f"case {case} n={n} polytope {problems[:2]}")
            report.record(0.0 if bd.slice_membership(vec) else 1.0,
                          f"case {case} n={n} slice membership")
    return report


def run_roundtrip(n_values=GENUS2_RANKS, seeds: int = 50, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Slice realization round trip: realize a random slice point once,
    compute its invariants at every n on that surface and compare them
    coordinatewise with the point; plus the twist-solve residuals."""
    report = SuiteReport("roundtrip", dict(n_values=list(n_values), seeds=seeds, seed=seed))
    rng = random.Random(seed)
    for case in range(seeds):
        spec, shears, _ = sample_genus2(rng)
        gluing = {cid: sample_float(rng, -1.5, 1.5) for cid in spec.curves}
        sp = bd.SlicePoint(shears=shears, gluing=gluing)
        ds = bd.realize_slice(sp, spec)
        residual = max(bd.twist_residual(chart, gluing[cid])
                       for cid, chart in ds.curves.items())
        for n in n_values:
            vec = bd.bd_vector(ds, n)
            report.record(bd.roundtrip_deviation(vec, sp), f"case {case} n={n} roundtrip", bd.TOL)
            report.record(residual, f"case {case} n={n} solve residual", bd.TOL)
    return report


SUITES = {
    "triple-ratio": lambda n, samples, seed, mode: run_triple_ratio(n, samples, seed, mode),
    "double-ratio": lambda n, samples, seed, mode: run_double_ratio(n, samples, seed, mode),
    "permutation": lambda n, samples, seed: run_permutation(n, samples, seed),
    "rhombus": lambda max: run_rhombus(max),
    "band": lambda max: run_band(max),
    "pants": lambda samples, seed: run_pants(samples, seed),
    "genus2": lambda samples, seed: run_genus2_invariants(seeds=samples, seed=seed),
    "roundtrip": lambda samples, seed: run_roundtrip(seeds=samples, seed=seed),
}
"""The suites of ``bdcoords verify``.  Each runs on the options it reads, its
parameters (named as the parsed arguments; ``mode`` is ``--exact``/``--float``),
and ``verify`` refuses any other option given; each looks its run up per call."""

# the suites that do not read ``--n``, and the ranks each runs instead
FIXED_RANKS = {
    "rhombus": "the ranks set by --max",
    "band": "the ranks set by --max",
    "pants": "no rank (it checks hyperbolic pants)",
    "genus2": "n = " + ", ".join(map(str, GENUS2_RANKS)),
    "roundtrip": "n = " + ", ".join(map(str, GENUS2_RANKS)),
}
