"""Unramified Brauer groups of simple involution surface bundles.

The package turns declarative degeneration data (curves, extensions,
residues, crossing points) into exact GF(2) linear algebra and reports
the dimension and generators of the 2-torsion unramified Brauer group,
alongside a small toric toolkit that certifies the uv = xyz singularity
resolution used by the same geometry.
"""

from .brauer import (
    BrauerReport,
    InvalidConfigurationError,
    brute_force_unramified,
    ramification_lift,
    residue_kernel,
    unramified_brauer,
)
from .dsl import ConfigParseError, builtin, emit, parse
from .model import (
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Extension,
    PointType,
    ResidueClass,
    SingularPoint,
    ValidationReport,
    validate,
)

__all__ = [
    "BrauerReport",
    "ConfigParseError",
    "Configuration",
    "CoverBehavior",
    "CoverKind",
    "Curve",
    "CurveType",
    "Extension",
    "InvalidConfigurationError",
    "PointType",
    "ResidueClass",
    "SingularPoint",
    "ValidationReport",
    "builtin",
    "brute_force_unramified",
    "emit",
    "parse",
    "ramification_lift",
    "residue_kernel",
    "unramified_brauer",
    "validate",
]

__version__ = "0.1.0"
