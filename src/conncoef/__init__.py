"""Connection coefficients for 2x2 systems with two regular singular points,
with eigenvalue solvers for the ellipsoidal and spheroidal wave equations."""

from . import ellipsoidal, spheroidal
from .core import (RationalTail, SeriesState, ShiftedSystem, SpectralFrame,
                   ThetaKernel, ThetaResult, TwoPointSystem, build_shifted,
                   frobenius_step, mirrored_shifted, p_vector, prefix_sums,
                   series_start, theta_iterate, theta_kernel, theta_many,
                   weight_vector)
from .errors import (ConncoefError, ConsistencyError, DegenerateFrame,
                     FrameMismatch, InvalidExponent, MatchFailure,
                     NoConvergence, ParityAmbiguous, QuadratureNotConverged,
                     ScanExhausted, SingularJacobian, SingularStep)
from .rootfind import SolverOptions, bracket_scan, broyden2, secant

__version__ = "0.1.0"

__all__ = [
    "RationalTail",
    "TwoPointSystem",
    "SpectralFrame",
    "ShiftedSystem",
    "SeriesState",
    "ThetaResult",
    "ThetaKernel",
    "build_shifted",
    "mirrored_shifted",
    "series_start",
    "frobenius_step",
    "prefix_sums",
    "p_vector",
    "weight_vector",
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
    "DegenerateFrame",
    "InvalidExponent",
    "MatchFailure",
    "QuadratureNotConverged",
    "ParityAmbiguous",
    "ScanExhausted",
    "NoConvergence",
    "SingularJacobian",
    "__version__",
]
