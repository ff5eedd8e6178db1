"""Failure modes shared across the package.

Every exception derives from GeometryError so callers (notably the CLI)
can treat any geometric impossibility uniformly.
"""


class GeometryError(Exception):
    """Base class for all geometric failure modes."""


class CenterSingular(GeometryError):
    """Inversion applied at (or too close to) the inversion center."""


class LineThroughCenter(GeometryError):
    """Line through the inversion center inverts to a line, not a circle."""


class Concentric(GeometryError):
    """Concentric circles have no well-defined intersection."""


class TooManyFoci(GeometryError):
    """Coefficient expansion guarded to small focus counts."""


class OutsideLobe(GeometryError):
    """Polar parameter outside the lobes (cos 2*theta < 0)."""


class NotOnCurve(GeometryError):
    """Operation requires a point on the curve within tolerance."""


class NoChord(GeometryError):
    """Secant misses the construction circle."""


class OutOfReach(GeometryError):
    """Linkage coupler cannot reach the requested crank angle."""


class UndefinedCenter(GeometryError):
    """A construction needs the stick-line intersection, which is undefined."""


class DoublePoint(GeometryError):
    """No single normal exists at the double point of the curve."""


class EmptyTrace(GeometryError):
    """No sign change in the trace window (a signal, not a failure)."""


class OpenContour(GeometryError):
    """Area requested for a contour that is not closed."""


class UnknownPreset(GeometryError):
    """Figure preset name not recognized."""
