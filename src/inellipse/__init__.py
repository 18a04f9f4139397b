"""Inscribed ellipses of convex quadrilaterals.

Computes the one-parameter family of ellipses inscribed in a convex
quadrilateral (no parallel sides), finds the unique inscribed ellipse of
minimal eccentricity, and verifies that for midpoint-diagonal
quadrilaterals the angle between its equal conjugate diameters equals the
angle between the diagonals.
"""

from .conic import Conic, EllipseGeometry, conjugate_diameter_angle
from .errors import (Degenerate, HOutOfRange, InscribedEllipseError,
                     NoValidLabeling, NotAnEllipse, NotConvex, Trapezoid)
from .family import FamilyPoint, Spectral, TangentPoint, family_point
from .minecc import MinEccResult, maximize_ratio_sq, solve
from .oracle import OracleReport, containment, verify
from .quad import (CanonicalQuad, Isometry2, NewtonSegment, Point2,
                   QuadClass, QuadKind, canonicalize, classify,
                   diagonal_angle, newton_segment, validate)

__version__ = "0.1.0"

__all__ = [
    "CanonicalQuad", "Conic", "Degenerate", "EllipseGeometry",
    "FamilyPoint", "HOutOfRange", "InscribedEllipseError", "Isometry2",
    "MinEccResult", "NewtonSegment", "NoValidLabeling", "NotAnEllipse",
    "NotConvex", "OracleReport", "Point2", "QuadClass", "QuadKind",
    "Spectral", "TangentPoint", "Trapezoid", "canonicalize", "classify",
    "conjugate_diameter_angle", "containment", "diagonal_angle",
    "family_point", "maximize_ratio_sq", "newton_segment", "solve",
    "validate", "verify",
]
