"""Exception types shared across the package."""


class InscribedEllipseError(Exception):
    """Base class for all library-specific errors."""


class Degenerate(InscribedEllipseError):
    """Repeated vertices, non-finite coordinates, or three collinear vertices."""


class NotConvex(InscribedEllipseError):
    """The four points do not form a strictly convex quadrilateral."""


class Trapezoid(InscribedEllipseError):
    """A pair of opposite sides is parallel (includes parallelograms)."""


class NoValidLabeling(InscribedEllipseError):
    """No dihedral labeling satisfies the canonical-pose constraints."""


class HOutOfRange(InscribedEllipseError):
    """Center abscissa lies outside the open admissible interval."""


class NotAnEllipse(InscribedEllipseError):
    """Conic coefficients do not describe a nondegenerate real ellipse."""
