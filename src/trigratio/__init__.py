"""Certified quadratic envelopes for trigonometric and hyperbolic ratio functions.

Every exported name is loaded with its submodule on first use (PEP 562), so
`import trigratio` imports no submodule and no numpy; point evaluation,
envelope constants and the Chebyshev bounds never load numpy at all.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here; __all__ is these names and __version__
_EXPORTS = {
    "families": (
        "DomainError",
        "FamilyKind",
        "ParameterError",
        "eval_f",
        "eval_f_grid",
        "eval_ratio",
        "limit_at_half_pi",
        "limit_at_zero",
    ),
    "derivatives": (
        "ParityError",
        "d_general",
        "d_sum",
        "dirichlet_sum",
        "vanishing_limits_check",
    ),
    "envelopes": ("Direction", "EnvelopeConstants", "envelope_constants", "ratio_bounds"),
    "chebyshev": ("ChebPoly", "cheb_u", "cheb_u_eval", "corollary_bounds"),
    "interval": ("Interval",),
    "certify": (
        "Mode",
        "Sign",
        "Status",
        "VerificationConfig",
        "VerificationReport",
        "expected_sign_D",
        "verify_envelope",
        "verify_identities",
        "verify_monotonicity",
        "verify_sign_D",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF) + ["__version__"]


def __getattr__(name):
    """An exported name or a submodule, imported on first use and bound here."""
    if name in _SUBMODULE_OF:
        value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
