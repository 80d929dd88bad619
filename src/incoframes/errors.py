"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Arguments violate a documented precondition (shape, norm, range)."""


class NumericsFailure(RuntimeError):
    """A dense linear-algebra kernel failed to converge or returned non-finite values."""


class RankDeficient(NumericsFailure):
    """A matrix required to have full rank is numerically rank deficient."""


class DegenerateVector(InvalidInput):
    """A frame vector duplicates another one (|correlation| = 1), no trust region exists."""


class SolverStall(RuntimeError):
    """Subproblem solve hit its working-set change cap before certifying optimality.

    ``solution`` is the last uncertified candidate, or None when the solve
    reached none, so callers can decide whether the partial answer is usable.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class FrameFormatError(IOError):
    """A frame file or manifest failed parsing or its integrity checks."""
