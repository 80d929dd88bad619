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
    """Interior-point solve stopped before certifying optimality.

    ``reason`` names the exit: ``"cap"`` (the iteration cap), ``"non-finite"``
    (a non-finite normal matrix or Newton direction) or ``"factorization"``
    (the normal matrix failed to factor). ``solution`` is the iterate the
    loop stopped at, with its duality gap, so callers can decide whether the
    partial answer is usable.
    """

    def __init__(self, message, solution=None, reason=None):
        super().__init__(message)
        self.solution = solution
        self.reason = reason


class FrameFormatError(IOError):
    """A frame file or manifest failed parsing or its integrity checks."""
