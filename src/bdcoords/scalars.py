"""The exact-versus-float mode rule.

Every quantity in this package is either *exact* (an arbitrary-precision
``fractions.Fraction``) or *float* (IEEE double), and numeric functions
return these raw values.  The two modes never mix silently: the
constructors of ``Flag``, ``ProjPoint`` and ``Mobius`` settle the common
mode of their entries with :func:`infer_mode`, and operations on two objects
check theirs with :func:`join_mode`; both raise :class:`ScalarModeError` on
a clash.  Plain python ``int`` values are mode-agnostic and lift into
whichever mode the other values carry; the integer determinants of the
multilinear module (``det_int``, the brute-force binomial determinants)
return them, and ``det_raw`` takes its mode as an argument.
"""
from __future__ import annotations

from fractions import Fraction

EXACT = "exact"
FLOAT = "float"


class ScalarModeError(TypeError):
    """Raised when exact and float quantities are combined."""


def infer_mode(values, requested=None) -> str:
    """Common mode of a collection: ints lift either way, Fraction/float clash."""
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
    inferred = seen.pop() if seen else (requested or EXACT)
    if requested is not None and requested != inferred:
        raise ScalarModeError(f"values are {inferred}, requested {requested}")
    return inferred


def join_mode(a: str, b: str) -> str:
    if a != b:
        raise ScalarModeError(f"mixed scalar modes: {a} vs {b}")
    return a


def serialize_value(raw) -> str:
    """Lossless text form: "p/q" for exact values, 17 significant digits for floats."""
    if isinstance(raw, float):
        return format(raw, ".17g")
    frac = Fraction(raw)
    return f"{frac.numerator}/{frac.denominator}"
