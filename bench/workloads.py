"""The benchmark's workloads: seeded inputs and the per-op oracle.

A workload turns a seed into a list of ops.  An op is one ``bdcoords`` CLI
call (its argument vector) plus the oracle that checks what the call wrote.
``build`` returns the ops and the input files they read, as (path, JSON
payload) pairs; the runner writes them before any op runs, so the program
only ever sees files.  All randomness is ``random.Random(seed)``
drawing integers through the library's own samplers, so one seed always
gives the same ops.  The runner runs every op at least once, so a corpus is
sized to pass once in well under a run (about 17 s for ``invariants-n8``,
14 s for ``exact-identities-n8`` and 4 s for ``realize-n3`` on a 2-core
Xeon).

The oracle recomputes its verdict from the output file and the input; it
does not trust the program's own summary fields alone.  An output that is
not the documented report (a missing file, bad JSON, a wrong invariant or
case count) is ``MalformedOutput``; a report that misses a tolerance or a
membership check is ``OracleMiss``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

TOL = 1e-9           # the library's acceptance tolerance
GENUS = 2            # every input surface is a genus-2 surface


class OracleMiss(Exception):
    """An op exited 0 but its output misses the oracle; the message names why."""


class MalformedOutput(Exception):
    """An op exited 0 but its output is not the report it documents."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    outputs: tuple                      # files the op writes; removed before it runs
    check: Callable[[], None]           # raises OracleMiss or MalformedOutput


def expected_size(n: int) -> int:
    """Invariant count of a genus-2 surface at rank n (3|chi|/2 gluing,
    3|chi| shearing blocks of n-1, 2|chi| triangle blocks of C(n-1, 2))."""
    chi = 2 * (GENUS - 1)
    return (3 * chi // 2) * (n - 1) + 3 * chi * (n - 1) + 2 * chi * math.comb(n - 1, 2)


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def write_input(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _vector_values(vec: dict, n: int):
    rows = vec["tau"] + vec["sigma"] + vec["theta"]
    if len(rows) != expected_size(n):
        raise MalformedOutput(f"count: {len(rows)} invariants, genus 2 at n={n} has "
                              f"{expected_size(n)}")
    return ([float(r["value"]) for r in vec["tau"]],
            [(r["pants"], r["leaf"], float(r["value"])) for r in vec["sigma"]],
            [(r["curve"], float(r["value"])) for r in vec["theta"]])


def check_invariants(out_json: Path, n: int):
    """Closed-leaf deviation <= TOL, |tau| <= TOL, polytope and slice membership."""
    data = _load(out_json)
    tau, _, _ = _vector_values(data["invariants"], n)
    worst_tau = max((abs(v) for v in tau), default=0.0)
    if worst_tau > TOL:
        raise OracleMiss(f"tau: |tau| {worst_tau:.3g} > {TOL:g}")
    if len(data["closed_leaf"]["entries"]) != 3 * (n - 1):
        raise MalformedOutput("closed_leaf: entry count")
    worst_leaf = 0.0
    for e in data["closed_leaf"]["entries"]:
        r, l, lp = float(e["R"]), float(e["L"]), float(e["length"])
        worst_leaf = max(worst_leaf, abs(r - l), abs(r - lp), abs(l - lp))
    if worst_leaf > TOL:
        raise OracleMiss(f"closed_leaf: deviation {worst_leaf:.3g} > {TOL:g}")
    if data["polytope_membership"] is not True:
        raise OracleMiss("polytope: membership false")
    if data["slice_membership"] is not True:
        raise OracleMiss("slice: membership false")


def check_realize(out_json: Path, n: int, shears: dict, gluing: dict):
    """Round trip: every invariant recovers its input within TOL."""
    data = _load(out_json)
    tau, sigma, theta = _vector_values(data["invariants"], n)
    dev = max((abs(v) for v in tau), default=0.0)
    for pid, leaf, v in sigma:
        dev = max(dev, abs(v - float(shears[pid][leaf])))
    for cid, v in theta:
        dev = max(dev, abs(v - float(gluing[cid])))
    if dev > TOL:
        raise OracleMiss(f"roundtrip: deviation {dev:.3g} > {TOL:g}")
    reported = float(data["max_roundtrip_deviation"])
    if reported > TOL:
        raise OracleMiss(f"roundtrip: reported deviation {reported:.3g} > {TOL:g}")


def check_verify(report_json: Path, suite: str, cases: int):
    """One passing report of the named suite with the expected case count."""
    reports = _load(report_json)
    if len(reports) != 1 or reports[0]["suite"] != suite:
        raise MalformedOutput(f"verify: expected one {suite} report")
    if reports[0]["cases"] != cases:
        raise MalformedOutput(f"verify: {reports[0]['cases']} cases, expected {cases}")
    if reports[0]["passed"] is not True:
        raise OracleMiss("verify: report failed")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    count_ops: int          # ops whose per-layer counts are reported exactly
    build: Callable         # (modules, seed, workdir, data_dir) -> (ops, inputs to write)


def build_invariants(mods, seed: int, workdir: Path, data_dir: Path, *,
                     n: int = 8, corpus: int = 250) -> list:
    """The shipped surface, then seeded genus-2 surfaces, all at rank n."""
    rng = random.Random(seed)
    out = workdir / "out"
    outputs = (out.with_suffix(".json"), out.with_suffix(".csv"))
    paths = [data_dir / "genus2_surface.json"]
    files = []
    for i in range(corpus - 1):
        spec, shears, twists = mods.verification.sample_genus2(rng)
        payload = mods.cli.spec_to_dict(spec)
        payload["shears"] = shears
        payload["twists"] = twists
        paths.append(workdir / f"surface-{i:04d}.json")
        files.append((paths[-1], payload))
    return [Op(argv=("invariants", "--input", str(p), "--n", str(n), "--out", str(out)),
               outputs=outputs, check=partial(check_invariants, outputs[0], n))
            for p in paths], files


def build_realize(mods, seed: int, workdir: Path, data_dir: Path, *,
                  n: int = 3, corpus: int = 400) -> list:
    """The shipped slice point, then seeded slice points, all at rank n."""
    rng = random.Random(seed)
    out = workdir / "out"
    outputs = (out.with_suffix(".json"), out.with_suffix(".csv"))
    shipped = data_dir / "genus2_slice.json"
    data = _load(shipped)
    inputs = [(shipped, data["shears"], data["gluing"])]
    files = []
    for i in range(corpus - 1):
        spec, shears, _ = mods.verification.sample_genus2(rng)
        gluing = {cid: mods.verification.sample_float(rng, -1.5, 1.5)
                  for cid in sorted(spec.curves)}
        payload = mods.cli.spec_to_dict(spec)
        payload["shears"] = shears
        payload["gluing"] = gluing
        path = workdir / f"slice-{i:04d}.json"
        files.append((path, payload))
        inputs.append((path, shears, gluing))
    return [Op(argv=("realize", "--input", str(p), "--n", str(n), "--out", str(out)),
               outputs=outputs, check=partial(check_realize, outputs[0], n, sh, gl))
            for p, sh, gl in inputs], files


# (suite, samples per op): about 50 ms each at n = 8, so the two op kinds
# form one latency mode rather than two.
EXACT_SUITES = (("triple-ratio", 2), ("double-ratio", 4))


def build_exact(mods, seed: int, workdir: Path, data_dir: Path, *,
                n: int = 8, corpus: int = 400) -> list:
    """Alternating exact triple-/double-ratio suites, a fresh seed per op."""
    rng = random.Random(seed)
    report = workdir / "report.json"
    per_sample = {"triple-ratio": len(mods.bd.triple_indices(n)), "double-ratio": n - 1}
    ops = []
    for i in range(corpus):
        suite, samples = EXACT_SUITES[i % len(EXACT_SUITES)]
        op_seed = rng.randint(1, 2 ** 31 - 1)
        ops.append(Op(argv=("verify", "--suite", suite, "--n", str(n), "--exact",
                            "--samples", str(samples), "--seed", str(op_seed),
                            "--out", str(report)),
                      outputs=(report,),
                      check=partial(check_verify, report, suite,
                                    samples * per_sample[suite])))
    return ops, []


WORKLOADS = {w.name: w for w in (
    Workload("invariants-n8",
             "float invariant path at the README's top rank; stresses veronese, "
             "flags and float multilinear; most ops fail today (known defect)",
             count_ops=40, build=build_invariants),
    Workload("realize-n3",
             "slice realization at n=3; stresses surfaces and halfplane "
             "(5 assemblies per op), flags and veronese stay small",
             count_ops=100, build=build_realize),
    Workload("exact-identities-n8",
             "exact triple/double-ratio suites at n=8; stresses Fraction arithmetic "
             "and exact multilinear Bareiss, no surfaces or halfplane",
             count_ops=40, build=build_exact),
)}
