"""Certified quadratic envelopes for trigonometric and hyperbolic ratio functions."""

from .families import (
    DomainError,
    FamilyKind,
    ParameterError,
    PoleError,
    eval_f,
    eval_f_grid,
    eval_ratio,
    limit_at_half_pi,
    limit_at_zero,
)
from .derivatives import (
    ParityError,
    d_general,
    d_general_hyp_cos,
    d_sum,
    d_sum_even_sin,
    d_sum_odd,
    dirichlet_sum,
    numeric_D,
    vanishing_limits_check,
)
from .envelopes import Direction, EnvelopeConstants, envelope_constants, ratio_bounds
from .chebyshev import ChebPoly, cheb_u, cheb_u_eval, corollary_bounds
from .interval import Interval
from .certify import (
    Mode,
    ModeError,
    Sign,
    Status,
    VerificationConfig,
    VerificationReport,
    expected_sign_D,
    verify_envelope,
    verify_identities,
    verify_monotonicity,
    verify_sign_D,
)

__version__ = "0.1.0"

__all__ = [
    "ChebPoly",
    "Direction",
    "DomainError",
    "EnvelopeConstants",
    "FamilyKind",
    "Interval",
    "Mode",
    "ModeError",
    "ParameterError",
    "ParityError",
    "PoleError",
    "Sign",
    "Status",
    "VerificationConfig",
    "VerificationReport",
    "cheb_u",
    "cheb_u_eval",
    "corollary_bounds",
    "d_general",
    "d_general_hyp_cos",
    "d_sum",
    "d_sum_even_sin",
    "d_sum_odd",
    "dirichlet_sum",
    "envelope_constants",
    "eval_f",
    "eval_f_grid",
    "eval_ratio",
    "expected_sign_D",
    "limit_at_half_pi",
    "limit_at_zero",
    "numeric_D",
    "ratio_bounds",
    "vanishing_limits_check",
    "verify_envelope",
    "verify_identities",
    "verify_monotonicity",
    "verify_sign_D",
    "__version__",
]
