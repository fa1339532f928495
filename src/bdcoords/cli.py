"""Command-line entry point.

Three subcommands:

* ``verify``      runs a seeded identity suite and exits 0 iff it passes;
* ``invariants``  computes the invariant vector of a surface JSON file;
* ``realize``     realizes a slice-point JSON file as a hyperbolic surface
                  and reports the round-trip invariants.

Exit codes: 0 success, 1 verification failure, 2 input error.  Reports are
deterministic functions of (arguments, input files): floats are printed with
17 significant digits and the only randomness is Python's Mersenne Twister
seeded from --seed.  Each JSON report is one line of compact JSON with sorted
keys.

``build_parser`` builds the argument parser on its first call, not at
import, and returns that parser afterwards; ``main`` only reads it, since
each ``parse_args`` fills a fresh namespace.  So a process that calls
``main`` many times builds the parser once.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from .scalars import serialize_value
from .surfaces import (LaminationError, PantsLamination, SurfaceSpec,
                       SurfaceSpecError, SLOTS, assemble_surface)
from . import bd
from . import verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2

# the options of ``verify`` by argument name, and the defaults of those not given
VERIFY_DEFAULTS = {"n": 3, "samples": verification.DEFAULT_SAMPLES,
                   "seed": verification.DEFAULT_SEED, "max": 10, "mode": "exact"}


# ---------------------------------------------------------------------------
# JSON codecs


def _integer(field: str, value) -> int:
    """An integer field of the surface data: a float or a bool is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SurfaceSpecError(f"{field} must be an integer, got {value!r}")
    return value


def _string(field: str, value) -> str:
    """An id of the surface data: anything but a JSON string is an error."""
    if not isinstance(value, str):
        raise SurfaceSpecError(f"{field} must be a string, got {value!r}")
    return value


def _slot_key(field: str, key: str) -> int:
    """A key of a section keyed by boundary slot: "1", "2" or "3"."""
    if key not in ("1", "2", "3"):
        raise SurfaceSpecError(f"{field} must be a slot 1, 2 or 3, got {key!r}")
    return int(key)


def _required(name: str, entry, key: str):
    """A required field of a JSON object of the surface data."""
    if key not in _json_typed(name, entry, dict):
        raise SurfaceSpecError(f"{name} has no {key!r}")
    return entry[key]


def spec_from_dict(data: dict):
    """Parse {genus, pants, curves} (+ shears/twists/gluing) from JSON data."""
    genus = _integer("genus", _required("surface data", data, "genus"))
    pants = {}
    for index, entry in enumerate(
            _json_typed("pants", _required("surface data", data, "pants"), list)):
        pid = _string("pants id", _required(f"pants entry {index}", entry, "id"))
        dist = entry.get("distinguished")
        signs = _json_typed(f"spiral_signs of pants {pid!r}",
                            entry.get("spiral_signs", {str(s): 1 for s in SLOTS}), dict)
        orient = _json_typed(f"leaf_orientations of pants {pid!r}",
                             entry.get("leaf_orientations", {}), dict)
        try:
            lam = PantsLamination(
                kind=_required(f"pants {pid!r}", entry, "type"),
                spiral_signs={
                    _slot_key(f"pants {pid!r} spiral_signs key", k):
                        _integer(f"pants {pid!r} spiral sign {k}", v)
                    for k, v in signs.items()},
                leaf_orientations={k: _integer(f"pants {pid!r} orientation of {k}", v)
                                   for k, v in orient.items()},
                distinguished=None if dist is None else _integer(
                    f"pants {pid!r} distinguished", dist))
        except LaminationError as exc:
            raise LaminationError(f"pants {pid!r}: {exc}") from exc
        if pid in pants:
            raise SurfaceSpecError(f"duplicate pants id {pid!r}")
        pants[pid] = lam
    curves = {}
    for index, entry in enumerate(
            _json_typed("curves", _required("surface data", data, "curves"), list)):
        cid = _string("curve id", _required(f"curve entry {index}", entry, "id"))
        ends = _required(f"curve {cid!r}", entry, "ends")
        if not isinstance(ends, list) or any(not isinstance(e, list) or len(e) != 2
                                             for e in ends):
            raise SurfaceSpecError(f"curve {cid!r} ends must be a list of "
                                   f"[pants id, slot] pairs, got {ends!r}")
        ends = tuple((_string(f"curve {cid!r} pants id", pid),
                      _integer(f"curve {cid!r} slot", slot)) for pid, slot in ends)
        if cid in curves:
            raise SurfaceSpecError(f"duplicate curve id {cid!r}")
        curves[cid] = ends
    return SurfaceSpec(genus=genus, pants=pants, curves=curves)


_CONTAINERS = {dict: "a JSON object", list: "a JSON array"}


def _json_typed(section: str, data, kind: type):
    """An input section, checked to be a JSON object (``kind`` dict) or a JSON
    array (``kind`` list).  A wrong scalar is echoed; a wrong object or array
    is named by its type, since it can be a whole section or the whole file."""
    if not isinstance(data, kind):
        found = _CONTAINERS.get(type(data)) or repr(data)
        raise SurfaceSpecError(f"{section} must be {_CONTAINERS[kind]}, got {found}")
    return data


def _known_ids(section: str, data, known, kind: str) -> dict:
    """An input section keyed by object id, checked to be a JSON object that
    names only objects of the surface (``known``, the pants or the curves of
    the spec)."""
    _json_typed(section, data, dict)
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise SurfaceSpecError(
            f"{section} names unknown {kind} {', '.join(map(repr, unknown))}; "
            f"the surface has {', '.join(map(repr, sorted(known)))}")
    return data


def _numbers(section: str, data: dict) -> dict:
    """The values of an input section, each a JSON number converted to a
    finite float (``json`` reads NaN and Infinity as floats); a bool or a
    string is an error."""
    out = {}
    for key, value in data.items():
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            out[key] = float(value)
        except (TypeError, OverflowError):
            raise SurfaceSpecError(
                f"{section} entry {key!r} must be a number, got {value!r}") from None
        if not math.isfinite(out[key]):
            raise SurfaceSpecError(
                f"{section} entry {key!r} must be a finite number, got {value!r}")
    return out


def shears_section(spec: SurfaceSpec, data) -> dict:
    """The shears section: for every pants of the surface, a JSON object
    mapping its leaves to shears."""
    _known_ids("shears", data, spec.pants, "pants")
    for pid in spec.pants:
        if pid not in data:
            raise SurfaceSpecError(f"missing shears for pants {pid!r}")
        _json_typed(f"shears of pants {pid!r}", data[pid], dict)
    return {pid: _numbers(f"shears of pants {pid!r}", data[pid]) for pid in spec.pants}


def gluing_section(spec: SurfaceSpec, data) -> dict:
    """The gluing section: a JSON object mapping every curve of the surface
    to its gluing invariant."""
    _known_ids("gluing", data, spec.curves, "curve")
    for cid in spec.curves:
        if cid not in data:
            raise SurfaceSpecError(f"missing gluing for curve {cid!r}")
    return _numbers("gluing", {cid: data[cid] for cid in spec.curves})


def spec_to_dict(spec: SurfaceSpec) -> dict:
    return {
        "genus": spec.genus,
        "pants": [
            {"id": pid, "type": lam.kind,
             **({"distinguished": lam.distinguished} if lam.kind == "II" else {}),
             "spiral_signs": {str(s): lam.spiral_signs[s] for s in SLOTS},
             "leaf_orientations": dict(sorted(lam.leaf_orientations.items()))}
            for pid, lam in sorted(spec.pants.items())],
        "curves": [{"id": cid, "ends": [list(end) for end in ends]}
                   for cid, ends in sorted(spec.curves.items())],
    }


def _dump_json(data, path: str):
    """Write a report as one line of compact JSON with sorted keys.  Only the
    one-shot ``json.dumps`` without ``indent`` runs the C encoder."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True) + "\n")


# by command, the section of an input file that only the other command reads
_OTHER_SECTION = {"invariants": ("gluing", "realize"), "realize": ("twists", "invariants")}


def _read_input(path: str, command: str):
    """The surface data of an input file for ``command``, its spec and its
    shears.  A file that does not decode or parse as JSON, that is nested
    deeper than the parser's recursion limit, or that carries the section
    the other command reads, is bad input named by its path."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise SurfaceSpecError(
                f"input {path!r} is nested too deeply to read as JSON") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SurfaceSpecError(f"input {path!r} is not JSON: {exc}") from None
    spec = spec_from_dict(data)
    section, reader = _OTHER_SECTION[command]
    if section in data:
        raise SurfaceSpecError(
            f"input {path!r} has a {section!r} section, which {reader} reads, not {command}")
    return data, spec, shears_section(spec, data.get("shears", {}))


def _write_report(args: argparse.Namespace, payload: dict, vec: bd.BDVector, summary: str):
    """Write a command's report as ``<prefix>.json`` and its invariants as
    ``<prefix>.csv``, the prefix ``--out`` or the command's name, and say so."""
    prefix = args.out or args.command
    _dump_json(payload, f"{prefix}.json")
    with open(f"{prefix}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "object", "p", "q", "r", "value"])
        for block, obj, p, q, r, value in vec.rows():
            writer.writerow([block, obj, p, q, r, serialize_value(value)])
    print(f"wrote {prefix}.json and {prefix}.csv ({summary})")


# ---------------------------------------------------------------------------
# subcommands


def _reads(suite: str):
    """The options a suite reads: the parameter names of its run (see
    ``SUITES``), read off the code object so that ``inspect`` is not loaded."""
    code = verification.SUITES[suite].__code__
    return code.co_varnames[:code.co_argcount]


def _settle_verify_options(args: argparse.Namespace) -> str | None:
    """Why ``verify`` refuses its arguments, or None once the options left
    unset have taken their defaults.  A suite refuses each option given that
    it does not read (``all`` reads every option), and a count below 1."""
    if args.suite != "all" and args.suite not in verification.SUITES:
        return (f"unknown suite {args.suite!r}; known: "
                f"{', '.join(sorted(verification.SUITES))} or 'all'")
    reads = VERIFY_DEFAULTS if args.suite == "all" else _reads(args.suite)
    for opt, default in VERIFY_DEFAULTS.items():
        value = getattr(args, opt)
        if value is None:
            setattr(args, opt, default)
        elif opt == "n" and opt not in reads:
            return (f"suite {args.suite} does not read --n, got --n {value}; "
                    f"it runs {verification.FIXED_RANKS[args.suite]}")
        elif opt not in reads:
            given = f"--{value}" if opt == "mode" else f"--{opt} {value}"
            readable = ", ".join("--exact/--float" if o == "mode" else f"--{o}" for o in reads)
            return f"suite {args.suite} does not read {given}; it reads {readable}"
    for opt in ("samples", "max"):
        if getattr(args, opt) < 1:
            return f"need {opt} >= 1, got --{opt} {getattr(args, opt)}"
    if args.n < 3 and args.suite in ("triple-ratio", "permutation", "all"):
        return f"suite {args.suite} needs n >= 3 for its triple ratios, got --n {args.n}"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    reports = []
    for name in verification.SUITES if args.suite == "all" else [args.suite]:
        report = verification.SUITES[name](**{opt: getattr(args, opt) for opt in _reads(name)})
        reports.append(report)
        for line in report.lines():
            print(line)
    if args.out:
        _dump_json([r.to_json_dict() for r in reports], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_invariants(args: argparse.Namespace) -> int:
    data, spec, shears = _read_input(args.input, args.command)
    twists = _numbers("twists",
                      _known_ids("twists", data.get("twists", {}), spec.curves, "curve"))
    ds = assemble_surface(spec, shears, twists)
    vec = bd.bd_vector(ds, args.n)
    report = bd.closed_leaf_report(vec, ds)
    ok, problems = bd.polytope_membership(report)
    payload = {
        "surface": spec_to_dict(spec),
        "n": args.n,
        "invariants": vec.to_json_dict(),
        "closed_leaf": report.to_json_dict(),
        "polytope_membership": ok,
        "polytope_violations": problems,
        "slice_membership": bd.slice_membership(vec),
    }
    _write_report(args, payload, vec,
                  f"{vec.size()} invariants, slice={payload['slice_membership']}")
    return EXIT_OK


def cmd_realize(args: argparse.Namespace) -> int:
    data, spec, shears = _read_input(args.input, args.command)
    gluing = gluing_section(spec, data.get("gluing", {}))
    sp = bd.SlicePoint(shears=shears, gluing=gluing)
    ds = bd.realize_slice(sp, spec)
    vec = bd.bd_vector(ds, args.n)
    deviation = bd.roundtrip_deviation(vec, sp)
    payload = {
        "surface": spec_to_dict(spec),
        "n": args.n,
        "shears": {pid: {leaf: serialize_value(v) for leaf, v in sorted(m.items())}
                   for pid, m in sorted(shears.items())},
        "gluing_targets": {cid: serialize_value(v) for cid, v in sorted(gluing.items())},
        "twists": {cid: serialize_value(c.twist) for cid, c in sorted(ds.curves.items())},
        "gluing_quadruples": {
            cid: {"x": "0", "y": "inf",
                  "zl": serialize_value(float(c.zl.a) / float(c.zl.b)),
                  "zr": serialize_value(float(c.zr.a) / float(c.zr.b)),
                  "length": serialize_value(c.length)}
            for cid, c in sorted(ds.curves.items())},
        "invariants": vec.to_json_dict(),
        "max_roundtrip_deviation": serialize_value(deviation),
    }
    _write_report(args, payload, vec, f"max round-trip deviation {deviation:.3g}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdcoords",
        description="Bonahon-Dreyer coordinates of Fuchsian representations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a seeded identity suite")
    p_verify.add_argument("--suite", required=True,
                          help=f"one of {', '.join(sorted(verification.SUITES))}, or all")
    p_verify.add_argument("--n", type=int,
                          help="rank of the triple-ratio, double-ratio and "
                               f"permutation suites (default {VERIFY_DEFAULTS['n']})")
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--max", type=int,
                          help="index bound for the determinant suites")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="mode", action="store_const", const="exact")
    group.add_argument("--float", dest="mode", action="store_const", const="float")
    p_verify.add_argument("--out", help="also write the report as JSON")

    p_inv = sub.add_parser("invariants", help="invariants of a surface JSON file")
    p_inv.add_argument("--input", required=True)
    p_inv.add_argument("--n", type=int, required=True)
    p_inv.add_argument("--out", help="output path prefix (default 'invariants')")

    p_real = sub.add_parser("realize", help="realize a slice-point JSON file")
    p_real.add_argument("--input", required=True)
    p_real.add_argument("--n", type=int, required=True)
    p_real.add_argument("--out", help="output path prefix (default 'realize')")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    refusal = _settle_verify_options(args) if args.command == "verify" else None
    if refusal is None and args.n < 2:
        refusal = f"need n >= 2, got --n {args.n}"
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "invariants":
            return cmd_invariants(args)
        return cmd_realize(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
