"""Certified two-point quadrature.

A generalized two-point rule with a free evaluation point, three a-priori
error-certificate families for twice-differentiable functions whose |f''|
(or |f''|**q) is convex, classical Ostrowski and perturbed-trapezoid
baselines, composite rules with per-subinterval remainder bounds, and
numeric checkers for the special-means inequalities the certificates imply.
The weight behind them is public through `kernel_lp_moment` and
`identity_residual`; README.md documents every name in `__all__`.

The composite rules and the special means are applications of the
certificate, and most processes call neither: their names (`Partition`,
`CompositeResult`, `composite_generalized`, `composite_midpoint`,
`composite_perturbed_trapezoid`, `check_proposition`, `PropositionReport`,
`mean_value` and `means_chain_check`) import `quadcert.composite` or
`quadcert.means` on first use. Each access reads the module's current
binding.

Everything runs in pure Python on the standard library, including the
numeric core (registry function evaluation and the adaptive Gauss-Kronrod
oracle); `backend_name` reports it as "python".
"""

import sys

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
from .errors import DomainError, IntegrationError, ParameterError, QuadcertError
from .functions import (
    FunctionTriple,
    Interval,
    parse_function_spec,
    register_builtin,
)
from .kernel import KernelSpec, identity_residual, kernel_lp_moment
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

# Public names served from a module imported on first use. There is no
# cache: a name rebound on its module is seen at the next access.
_LAZY = {
    **dict.fromkeys(("CompositeResult", "Partition", "composite_generalized",
                     "composite_midpoint", "composite_perturbed_trapezoid"),
                    f"{__name__}.composite"),
    **dict.fromkeys(("PropositionReport", "check_proposition", "mean_value",
                     "means_chain_check"), f"{__name__}.means"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # sys.modules first: an import on every access would double its cost
    if module not in sys.modules:
        __import__(module)
    return getattr(sys.modules[module], name)


def __dir__():
    return sorted({*globals(), *_LAZY})
