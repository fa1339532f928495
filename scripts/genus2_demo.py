#!/usr/bin/env python3
"""End-to-end walkthrough on the two-pants genus-2 surface.

Develops the surface from shear/twist data, prints the rank-n invariant
vector with the closed-leaf condition, then realizes a slice point and
reports the round-trip deviation.
"""
import argparse

import bdcoords.bd as bd
from bdcoords.surfaces import assemble_surface, genus2_spec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    args = parser.parse_args()
    n = args.n

    spec = genus2_spec()
    shears = {"P0": {"B12": 0.8, "B13": 0.6, "B23": 1.1},
              "P1": {"B12": 0.8, "B13": 0.6, "B23": 1.1}}
    twists = {"C1": 0.15, "C2": -0.4, "C3": 0.9}

    print(f"== genus-2 surface, rank n = {n}")
    ds = assemble_surface(spec, shears, twists)
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

    target = bd.SlicePoint(
        shears={"P0": {"B12": 1.0, "B13": 1.0, "B23": 1.0},
                "P1": {"B12": 1.0, "B13": 1.0, "B23": 1.0}},
        gluing={"C1": 0.0, "C2": 0.7, "C3": -1.2})
    realized = bd.realize_slice(target, spec)
    dev = bd.roundtrip_deviation(bd.bd_vector(realized, n), target)
    print(f"\n== slice realization: shears 1.0, gluing (0, 0.7, -1.2)")
    solved = {cid: round(chart.twist, 6) for cid, chart in sorted(realized.curves.items())}
    print(f"  solved twists: {solved}")
    print(f"  round-trip deviation: {dev:.2e}")


if __name__ == "__main__":
    main()
