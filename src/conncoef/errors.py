"""Exception types shared across the package."""


class ConncoefError(Exception):
    """Base class for all errors raised by this package."""


class FrameMismatch(ConncoefError):
    """Spectral frame is inconsistent with the system (bad eigenpairs,
    coincident exponents at z=1, or Re(delta) <= -1)."""


class SingularStep(ConncoefError):
    """A0 - k*I is (numerically) singular at some recurrence step k."""


class ConsistencyError(ConncoefError):
    """A relation that holds in exact arithmetic failed beyond rounding: the
    entry-sum identity of an ellipsoidal system broke."""


class DegenerateFrame(ConncoefError):
    """det(b1, p_k) is too small to normalize the weight vector at this k."""


class InvalidExponent(ConncoefError):
    """Characteristic-exponent parameters outside the supported region."""


class MatchFailure(ConncoefError):
    """Eigenfunction pieces could not be matched inside their shared disk."""


class QuadratureNotConverged(ConncoefError):
    """Normalization quadrature failed its refinement check."""


class ParityAmbiguous(ConncoefError):
    """Parity probe points both evaluate to ~0; parity undecidable there."""


class ScanExhausted(ConncoefError):
    """Fewer sign changes than requested roots, even after range extension."""


class NoConvergence(ConncoefError):
    """Iterative solver ran out of iterations, or a series sum is not finite.

    Attributes
    ----------
    best : the best iterate seen (scalar or pair, solver dependent)
    residual : float, residual at `best`
    trace : list of float, residual history (Broyden only)
    """

    def __init__(self, message, best=None, residual=None, trace=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.trace = trace if trace is not None else []


class SingularJacobian(ConncoefError):
    """Finite-difference Jacobian is numerically singular at the seed."""
