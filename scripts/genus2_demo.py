#!/usr/bin/env python3
"""End-to-end walkthrough on the two-pants genus-2 surface.

Develops the surface of data/genus2_surface.json from its shear/twist data,
prints the rank-n invariant vector with the closed-leaf condition, then
realizes the slice point of data/genus2_slice.json and reports the
round-trip deviation.
"""
import argparse
import json
import os

import bdcoords.bd as bd
from bdcoords.cli import gluing_section, shears_section, spec_from_dict
from bdcoords.surfaces import assemble_surface

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "data")


def read_example(name):
    """An example input of data/: its JSON data, spec and shears."""
    with open(os.path.join(DATA, name)) as fh:
        data = json.load(fh)
    spec = spec_from_dict(data)
    return data, spec, shears_section(spec, data["shears"])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    args = parser.parse_args()
    n = args.n

    data, spec, shears = read_example("genus2_surface.json")
    print(f"== genus-2 surface, rank n = {n}")
    ds = assemble_surface(spec, shears, data["twists"])
    for cid, chart in sorted(ds.curves.items()):
        print(f"  {cid}: length {chart.length:.6f}  twist {chart.twist:+.3f}  "
              f"gluing cross ratio {chart.gluing_cross_ratio():+.6f}")

    vec = bd.bd_vector(ds, n)
    print(f"\n== invariant vector ({vec.size()} coordinates)")
    for block, obj, p, q, r, value in vec.rows():
        idx = f"({p},{q},{r})" if block == "tau" else f"p={p}"
        print(f"  {block:<6} {obj:<8} {idx:<8} {value:+.12f}")

    report = bd.closed_leaf_report(vec, ds)
    print(f"\n== closed leaf condition (max deviation {report.max_deviation():.2e})")
    for cid, p, right, left, length in report.entries:
        print(f"  {cid} p={p}:  R={right:.12f}  L={left:.12f}  l={length:.12f}")
    ok, _ = bd.polytope_membership(report)
    print(f"  polytope membership: {ok}   slice membership: {bd.slice_membership(vec)}")

    data, spec, shears = read_example("genus2_slice.json")
    target = bd.SlicePoint(shears=shears, gluing=gluing_section(spec, data["gluing"]))
    realized = bd.realize_slice(target, spec)
    dev = bd.roundtrip_deviation(bd.bd_vector(realized, n), target)
    shear_values = sorted({v for leaves in shears.values() for v in leaves.values()})
    print(f"\n== slice realization: shears {', '.join(map(str, shear_values))}, "
          f"gluing ({', '.join(f'{g:g}' for _, g in sorted(target.gluing.items()))})")
    solved = {cid: round(chart.twist, 6) for cid, chart in sorted(realized.curves.items())}
    print(f"  solved twists: {solved}")
    print(f"  round-trip deviation: {dev:.2e}")


if __name__ == "__main__":
    main()
