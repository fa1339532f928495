"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run as:  pytest tests/test_acceptance.py -v -s
"""
import time

import pytest

import bdcoords.bd as bd
from bdcoords.surfaces import genus2_spec
from bdcoords.verification import (run_band, run_double_ratio, run_genus2_invariants,
                                   run_pants, run_rhombus, run_roundtrip,
                                   run_triple_ratio)

SEED = 20240811


def _finish(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_triple_ratios_exact():
    """Triple ratios of Veronese flags at clockwise triples equal 1 exactly,
    n = 3..8, 200 seeded samples each, within the runtime target."""
    start = time.time()
    reports = [run_triple_ratio(n, samples=200, seed=SEED + n) for n in range(3, 9)]
    elapsed = time.time() - start
    ok = all(r.passed for r in reports) and elapsed < 60.0
    cases = sum(r.cases for r in reports)
    _finish("criterion-1 (triple ratios = 1, exact, n=3..8)", ok,
            f"cases={cases} elapsed={elapsed:.1f}s")


def test_criterion_2_double_ratios():
    """Double ratios equal -1/z exactly (rational) and to 1e-9 (float),
    n = 2..8, 200 seeded samples each."""
    exact = [run_double_ratio(n, samples=200, seed=SEED + 10 * n) for n in range(2, 9)]
    approx = [run_double_ratio(n, samples=200, seed=SEED + 10 * n, mode="float")
              for n in range(2, 9)]
    ok = all(r.passed for r in exact) and all(r.passed for r in approx)
    worst = max(r.worst for r in approx)
    _finish("criterion-2 (double ratios = -1/z, n=2..8)", ok,
            f"exact_cases={sum(r.cases for r in exact)} float_worst={worst:.2e}")


def test_criterion_3_binomial_determinants():
    """|closed form| = |brute force| for every band and rhombus determinant
    with indices at most 10; sign mismatches are counted, not failed."""
    rhombus = run_rhombus(max_n=10)
    band = run_band(max_index=10)
    ok = rhombus.passed and band.passed
    _finish("criterion-3 (binomial determinant closed forms)", ok,
            f"cases={rhombus.cases + band.cases} "
            f"sign_mismatches={rhombus.sign_mismatches + band.sign_mismatches} "
            "(expected nonzero, informational)")


def test_criterion_4_pants_developing():
    """Developed boundary translation lengths match the signed spiral shear
    sums to 1e-9, 100 valid samples per lamination kind and sign pattern."""
    report = run_pants(samples=100, seed=SEED)
    _finish("criterion-4 (pants developing vs shear sums)", report.passed,
            f"cases={report.cases} worst={report.worst:.2e}")


def test_criterion_5_fuchsian_invariants():
    """On 50 random genus-2 assemblies and n = 3, 4, 5: triangle invariants
    vanish, shearing/gluing invariants are index-independent, and the
    shearing invariants recover the classical shear, all to 1e-9."""
    report = run_genus2_invariants(n_values=(3, 4, 5), seeds=50, seed=SEED)
    _finish("criterion-5 (vanishing tau, index-independence, shear recovery)",
            report.passed, f"cases={report.cases} worst={report.worst:.2e}")


def test_criterion_6_closed_leaf_condition():
    """l_p = R_p = L_p to 1e-9 for every curve and index.  On the Fuchsian
    locus every eigenvalue-gap length l_p of the symmetric power is the
    curve's hyperbolic length, the translation length of its developed deck
    map."""
    report = run_genus2_invariants(n_values=(3, 4, 5), seeds=25, seed=SEED + 1)
    closed = [f for f in report.failures if "closed leaf" in f or "polytope" in f]
    _finish("criterion-6 (closed leaf condition)", report.passed and not closed,
            f"worst={report.worst:.2e}")


def test_criterion_7_slice_round_trip():
    """50 seeded random slice points at n = 3..5 realize to surfaces whose
    invariant vectors reproduce them to 1e-9, with twist-solve residuals
    below 1e-9."""
    report = run_roundtrip(n_values=(3, 4, 5), seeds=50, seed=SEED)
    _finish("criterion-7 (slice realization round trip)", report.passed,
            f"cases={report.cases} worst={report.worst:.2e}")


def test_criterion_8_dimension_bookkeeping():
    """Integer bookkeeping for genus 2, n = 3: invariant vector length 22,
    six closed-leaf equalities, six free slice parameters."""
    counts = bd.dimension_counts(genus2_spec(), 3)
    ok = (counts["N"] == 22
          and counts["closed_leaf_equalities"] == 6
          and counts["hitchin_dimension"] == 16
          and counts["slice_coordinates"] == 9
          and counts["slice_equalities"] == 3
          and counts["slice_dimension"] == 6
          and counts["slice_dimension"] == counts["teichmueller_dimension"])
    _finish("criterion-8 (dimension bookkeeping)", ok, str(counts))
