"""Connection coefficients for 2x2 systems with two regular singular points,
with eigenvalue solvers for the ellipsoidal and spheroidal wave equations."""

from . import ellipsoidal, spheroidal
from .core import (RationalTail, SpectralFrame, ThetaKernel, ThetaResult,
                   TwoPointSystem, frobenius_step, theta_iterate, theta_kernel,
                   theta_many)
from .errors import (ConncoefError, ConsistencyError, FrameMismatch,
                     InvalidExponent, MatchFailure, NoConvergence,
                     ParityAmbiguous, QuadratureNotConverged, ScanExhausted,
                     SingularJacobian, SingularStep)
from .rootfind import SolverOptions, bracket_scan, broyden2, secant

__version__ = "0.1.0"

__all__ = [
    "RationalTail",
    "TwoPointSystem",
    "SpectralFrame",
    "ThetaResult",
    "ThetaKernel",
    "frobenius_step",
    "theta_kernel",
    "theta_iterate",
    "theta_many",
    "SolverOptions",
    "secant",
    "bracket_scan",
    "broyden2",
    "ellipsoidal",
    "spheroidal",
    "ConncoefError",
    "ConsistencyError",
    "FrameMismatch",
    "SingularStep",
    "InvalidExponent",
    "MatchFailure",
    "QuadratureNotConverged",
    "ParityAmbiguous",
    "ScanExhausted",
    "NoConvergence",
    "SingularJacobian",
    "__version__",
]
