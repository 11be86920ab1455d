"""Exception types shared across the package."""


class EntroflowError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedShapeError(EntroflowError):
    """Subsystem layout not supported by the requested construction."""


class BoundaryStateError(EntroflowError):
    """State (or marginal) too close to rank deficiency for exact-chart work."""


class FullyConstrainedError(EntroflowError):
    """The marginal-preserving tangent space is trivial."""


class NumericalDegeneracyError(EntroflowError):
    """A linear system behind a projector is too ill-conditioned to trust."""


class IntegrationError(EntroflowError):
    """Trajectory integration failed; ``trajectory`` holds samples up to the failure."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ConservationError(IntegrationError):
    """Conserved-quantity drift exceeded the configured budget, or a point of
    the curve could not be solved to the configured tolerance."""


class DegenerateProjectionError(IntegrationError, NumericalDegeneracyError):
    """The constraint projection became ill-conditioned during integration."""
