"""The exact-versus-float mode rule.

Every quantity in this package is either *exact* (an arbitrary-precision
``fractions.Fraction``) or *float* (IEEE double), and numeric functions
return these raw values.  The two modes never mix silently: the
constructors of ``Flag``, ``ProjPoint`` and ``Mobius`` settle the common
mode of their entries and convert them to it with :func:`settle_mode`, and
operations on two objects check theirs with :func:`join_mode`; both raise
:class:`ScalarModeError` on a clash.  Plain python ``int`` values are
mode-agnostic and lift into whichever mode the other values carry; the
integer determinants of the multilinear module (``det_int``, the
brute-force binomial determinants) return them.  ``det_raw`` and
``flags.WedgeTrie`` take their mode as an argument (``flags.wedge_table``
settles it for a flag tuple), and it picks their elimination step once.
"""
from __future__ import annotations

from fractions import Fraction

EXACT = "exact"
FLOAT = "float"


class ScalarModeError(TypeError):
    """Raised when exact and float quantities are combined."""


def settle_mode(values, requested=None) -> tuple:
    """The common mode of a collection and its values converted to it, as
    (mode, list): ints lift into either mode (exact when nothing else, or
    ``requested``, says otherwise), Fraction and float clash, a bool or any
    other type is not a scalar, and a mode other than ``requested`` raises."""
    values = list(values)
    seen = set()
    for x in values:
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            continue
        if isinstance(x, float):
            seen.add(FLOAT)
        elif isinstance(x, Fraction):
            seen.add(EXACT)
        else:
            raise TypeError(f"cannot interpret {x!r} as a scalar")
    if len(seen) > 1:
        raise ScalarModeError("mixed exact and float values")
    mode = seen.pop() if seen else (requested or EXACT)
    if requested is not None and requested != mode:
        raise ScalarModeError(f"values are {mode}, requested {requested}")
    conv = float if mode == FLOAT else Fraction
    return mode, [conv(x) for x in values]


def join_mode(a: str, b: str) -> str:
    if a != b:
        raise ScalarModeError(f"mixed scalar modes: {a} vs {b}")
    return a


def serialize_value(raw: float) -> str:
    """Lossless text form of a float of a report: 17 significant digits."""
    return format(raw, ".17g")
