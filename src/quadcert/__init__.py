"""Certified two-point quadrature.

A generalized two-point rule with a free evaluation point, three a-priori
error-certificate families for twice-differentiable functions whose |f''|
(or |f''|**q) is convex, classical Ostrowski and perturbed-trapezoid
baselines, composite rules with per-subinterval remainder bounds, and
numeric checkers for the special-means inequalities the certificates imply.
The weight behind them is public through `kernel_lp_moment` and
`identity_residual`; README.md documents every name in `__all__`.

Everything runs in pure Python on the standard library, including the
numeric core (registry function evaluation and the adaptive Gauss-Kronrod
oracle); `backend_name` reports it as "python".
"""

from ._backend import backend_name
from .bounds import (
    Certificate,
    HolderPair,
    bound_cerone_dragomir,
    bound_convex,
    bound_holder,
    bound_ostrowski,
    bound_power_mean,
)
from .composite import (
    CompositeResult,
    Partition,
    composite_generalized,
    composite_midpoint,
    composite_perturbed_trapezoid,
)
from .errors import DomainError, IntegrationError, ParameterError, QuadcertError
from .functions import (
    FunctionTriple,
    Interval,
    parse_function_spec,
    register_builtin,
)
from .kernel import KernelSpec, identity_residual, kernel_lp_moment
from .means import PropositionReport, check_proposition, mean_value, means_chain_check
from .oracle import NormEstimate, QuadratureEstimate, estimate_norm, integrate
from .rules import (
    RuleValue,
    generalized_rule,
    midpoint_rule,
    perturbed_trapezoid_rule,
    trapezoid_rule,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CompositeResult",
    "DomainError",
    "FunctionTriple",
    "HolderPair",
    "IntegrationError",
    "Interval",
    "KernelSpec",
    "NormEstimate",
    "ParameterError",
    "Partition",
    "PropositionReport",
    "QuadcertError",
    "QuadratureEstimate",
    "RuleValue",
    "backend_name",
    "bound_cerone_dragomir",
    "bound_convex",
    "bound_holder",
    "bound_ostrowski",
    "bound_power_mean",
    "check_proposition",
    "composite_generalized",
    "composite_midpoint",
    "composite_perturbed_trapezoid",
    "estimate_norm",
    "generalized_rule",
    "identity_residual",
    "integrate",
    "kernel_lp_moment",
    "mean_value",
    "means_chain_check",
    "midpoint_rule",
    "parse_function_spec",
    "perturbed_trapezoid_rule",
    "register_builtin",
    "trapezoid_rule",
]
