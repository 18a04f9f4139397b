"""Inscribed ellipses of convex quadrilaterals.

Computes the one-parameter family of ellipses inscribed in a convex
quadrilateral (no parallel sides), finds the unique inscribed ellipse of
minimal eccentricity, and verifies that for midpoint-diagonal
quadrilaterals the angle between its equal conjugate diameters equals the
angle between the diagonals.
"""

from .conic import (Conic, EllipseCheck, EllipseGeometry, Line2,
                    LineConicRelation, conjugate_diameter_angle, geometry,
                    is_ellipse, line_tangency, pullback, pushforward,
                    tangent_slope)
from .errors import (CircularPoint, Degenerate, HOutOfRange,
                     InscribedEllipseError, NoValidLabeling, NotAnEllipse,
                     NotConvex, NotOnConic, NotTangential, NotType1,
                     SingularPoint, Trapezoid)
from .family import (FamilyPoint, SideLinears, Spectral, TangentPoint,
                     coefficients, family_point, ratio_sq_function,
                     ratio_sq_prime, side_linears, spectral,
                     tangency_points)
from .minecc import (CenterQuadratic, MinEccResult, center_quadratic,
                     closed_form_h, maximize_ratio_sq, ratio_sq_closed_form,
                     solve)
from .oracle import OracleReport, containment, fd_gradient, incircle, ratio_argmax, verify
from .quad import (CanonicalQuad, Isometry2, NewtonSegment, Point2,
                   QuadClass, QuadKind, canonicalize, classify,
                   diagonal_angle, newton_segment, tangential_residuals,
                   validate)

__version__ = "0.1.0"

__all__ = [
    "CanonicalQuad", "CenterQuadratic", "CircularPoint", "Conic",
    "Degenerate", "EllipseCheck", "EllipseGeometry", "FamilyPoint",
    "HOutOfRange", "InscribedEllipseError", "Isometry2", "Line2",
    "LineConicRelation", "MinEccResult", "NewtonSegment", "NoValidLabeling",
    "NotAnEllipse", "NotConvex", "NotOnConic", "NotTangential", "NotType1",
    "OracleReport", "Point2", "QuadClass", "QuadKind", "SideLinears",
    "SingularPoint", "Spectral", "TangentPoint", "Trapezoid",
    "canonicalize", "center_quadratic", "classify", "closed_form_h",
    "coefficients", "conjugate_diameter_angle", "containment",
    "diagonal_angle", "family_point",
    "fd_gradient", "geometry", "incircle", "is_ellipse",
    "line_tangency", "maximize_ratio_sq", "newton_segment", "pullback",
    "pushforward", "ratio_argmax", "ratio_sq_closed_form", "ratio_sq_function",
    "ratio_sq_prime", "side_linears", "solve", "spectral",
    "tangency_points", "tangent_slope",
    "tangential_residuals", "validate", "verify",
]
