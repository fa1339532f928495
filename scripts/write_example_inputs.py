#!/usr/bin/env python3
"""Regenerate the example input files in data/: the genus-2 surface that
`bdcoords invariants` reads and the slice point that `bdcoords realize` reads.
"""
import argparse
import json
import os
import sys

from bdcoords.cli import spec_to_dict
from bdcoords.surfaces import genus2_spec

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, os.pardir, "data")


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    spec = genus2_spec()
    surface = spec_to_dict(spec)
    surface["shears"] = {
        "P0": {"B12": 0.8, "B13": 0.6, "B23": 1.1},
        "P1": {"B12": 0.8, "B13": 0.6, "B23": 1.1},
    }
    surface["twists"] = {"C1": 0.15, "C2": -0.4, "C3": 0.9}

    slice_point = spec_to_dict(spec)
    slice_point["shears"] = {
        "P0": {"B12": 1.0, "B13": 1.0, "B23": 1.0},
        "P1": {"B12": 1.0, "B13": 1.0, "B23": 1.0},
    }
    slice_point["gluing"] = {"C1": 0.0, "C2": 0.7, "C3": -1.2}

    os.makedirs(DATA, exist_ok=True)
    for name, payload in (("genus2_surface.json", surface),
                          ("genus2_slice.json", slice_point)):
        path = os.path.join(DATA, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    sys.exit(main())
