"""Exception types raised by the geometry, space and solver layers."""


class FrenetIfeError(Exception):
    """Base class for all library-specific errors."""


class DegenerateParametrization(FrenetIfeError):
    """Curve speed ||g'(xi)|| fell below tolerance."""


class OutsideValidityStrip(FrenetIfeError):
    """Point or offset lies outside the tubular strip where the chart is invertible."""


class NewtonDivergence(FrenetIfeError):
    """Chart inversion did not converge; point likely outside the strip."""


class DegenerateChord(FrenetIfeError):
    """Chord endpoints coincide; no affine chart can be built."""


class TangentialIntersection(FrenetIfeError):
    """Interface is tangent to a mesh edge; perturb the mesh."""


class AmbiguousCut(FrenetIfeError):
    """An element does not see two interface crossings: the mesh is too
    coarse there, or the interface passes through a mesh vertex."""


class DegeneratePartition(FrenetIfeError):
    """A cut region has no star-shaped anchor even after subdivision, or both
    regions of an element lie on one side."""


class DimensionMismatch(FrenetIfeError):
    """Constraint nullspace dimension differs from the expected local dimension."""


class SingularGram(FrenetIfeError):
    """Gram matrix has no usable non-constant block."""


class NonConvergence(FrenetIfeError):
    """Linear solver failed to reach the residual tolerance."""
