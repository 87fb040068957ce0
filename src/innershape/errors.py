"""Exception hierarchy for the innershape package."""


class InnerShapeError(Exception):
    """Base class for all errors raised by this package."""


class MeshError(InnerShapeError):
    """Invalid mesh construction or use."""


class MeshResolutionError(MeshError):
    """Grid resolution too small or too large for the requested topology."""


class MeshFormatError(MeshError):
    """Malformed native mesh or velocity file.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MeshMismatchError(MeshError):
    """Two fields or immersions that must share a mesh do not."""


class DegenerateElementError(InnerShapeError):
    """An element's first fundamental form is (numerically) singular."""


class SolverError(InnerShapeError):
    """A solve failed: the block is not positive definite (the Cholesky
    factorization of a front of its nested dissection broke down), the
    solution is not finite, or its relative residual exceeds
    ``SHARP_RESIDUAL_TOL``."""


class StepFailureError(InnerShapeError):
    """Geodesic integration failed at a given time step.

    Carries the index of the failing step.
    """

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class ZeroVelocityError(InnerShapeError):
    """An angle was requested at a (numerically) zero velocity."""
