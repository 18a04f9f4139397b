"""Inscribed ellipses of convex quadrilaterals.

Computes the one-parameter family of ellipses inscribed in a convex
quadrilateral (no parallel sides), finds the unique inscribed ellipse of
minimal eccentricity, and verifies that for midpoint-diagonal
quadrilaterals the angle between its equal conjugate diameters equals the
angle between the diagonals.
"""

from .conic import (Conic, EllipseGeometry, Line2, LineConicRelation,
                    conjugate_diameter_angle, line_tangency)
from .errors import (Degenerate, HOutOfRange, InscribedEllipseError,
                     NoValidLabeling, NotAnEllipse, NotConvex, Trapezoid)
from .family import (FamilyPoint, SideLinears, Spectral, TangentPoint,
                     coefficients, family_point, side_linears, spectral,
                     tangency_points)
from .minecc import (CenterQuadratic, MinEccResult, center_quadratic,
                     maximize_ratio_sq, solve)
from .oracle import OracleReport, containment, verify
from .quad import (CanonicalQuad, Isometry2, NewtonSegment, Point2,
                   QuadClass, QuadKind, canonicalize, classify,
                   diagonal_angle, newton_segment, validate)

__version__ = "0.1.0"

__all__ = [
    "CanonicalQuad", "CenterQuadratic", "Conic", "Degenerate",
    "EllipseGeometry", "FamilyPoint", "HOutOfRange",
    "InscribedEllipseError", "Isometry2", "Line2", "LineConicRelation",
    "MinEccResult", "NewtonSegment", "NoValidLabeling", "NotAnEllipse",
    "NotConvex", "OracleReport", "Point2", "QuadClass",
    "QuadKind", "SideLinears", "Spectral", "TangentPoint", "Trapezoid",
    "canonicalize", "center_quadratic", "classify", "coefficients",
    "conjugate_diameter_angle", "containment", "diagonal_angle",
    "family_point", "line_tangency", "maximize_ratio_sq",
    "newton_segment", "side_linears", "solve", "spectral",
    "tangency_points", "validate", "verify",
]
