"""Bonahon-Dreyer coordinates of PSL(n, R)-Fuchsian representations.

Exact and floating-point machinery for flag triple/double ratios, the
Veronese flag curve, shear-coordinate developing of pants decompositions,
twist gluing, and the slice of the invariant polytope realized by hyperbolic
structures.
"""

from .scalars import EXACT, FLOAT, ScalarModeError
from .multilinear import (band_det_bruteforce, band_det_formula, compare_band,
                          compare_rhombus, ext_binomial, rhombus_det_bruteforce,
                          rhombus_det_formula)
from .flags import DegenerateFlagError, Flag, double_ratio, is_generic, triple_ratio
from .halfplane import (DegenerateConfigurationError, Mobius, ProjPoint, axis_data,
                        cross_ratio, is_clockwise, mobius_to_standard,
                        orientation, shear_from_quadruple)
from .veronese import veronese_flag
from .surfaces import (AssemblyError, DevelopedSurface, LaminationError,
                       PantsLamination, SurfaceSpec, SurfaceSpecError,
                       UnreachableTwistError, assemble_surface, boundary_lengths,
                       develop_pants, genus2_spec, solve_twist, validate_shears)
from .bd import (BDVector, ClosedLeafReport, SlicePoint, bd_vector,
                 closed_leaf_report, dimension_counts,
                 polytope_membership, realize_slice, slice_membership)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
