"""The public surface: the names `quadcert.__all__` lists, each resolving
and each documented in README.md, and none of the removed second forms."""

import importlib
import re
from pathlib import Path

import pytest

import quadcert

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "Certificate", "CompositeResult", "DomainError", "FunctionTriple", "HolderPair",
    "IntegrationError", "Interval", "KernelSpec", "NormEstimate", "ParameterError",
    "Partition", "PropositionReport", "QuadcertError", "QuadratureEstimate", "RuleValue",
    "backend_name", "bound_cerone_dragomir", "bound_convex", "bound_holder",
    "bound_ostrowski", "bound_power_mean", "check_proposition", "composite_generalized",
    "composite_midpoint", "composite_perturbed_trapezoid", "estimate_norm",
    "generalized_rule", "identity_residual", "integrate", "kernel_lp_moment", "mean_value",
    "means_chain_check", "midpoint_rule", "parse_function_spec", "perturbed_trapezoid_rule",
    "register_builtin", "trapezoid_rule",
]

# second forms of kept names: kernel_lp_moment(ks, 1.0), the kernel's own
# pieces, and abs_f2_convexity (reported in every certificate's flags)
REMOVED = {"kernel": ("kernel_eval", "kernel_abs_moment"),
           "functions": ("check_abs_f2_convexity",)}


def test_all_lists_the_kept_names_and_each_resolves():
    assert sorted(quadcert.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(quadcert, name) is not None, name


def test_lazy_names_read_their_module_at_each_access(monkeypatch):
    """The composite and means names are served from their modules with no
    cache, so a binding rebound there, as a tracer does, is seen and its
    restoring too."""
    import quadcert.composite

    original = quadcert.composite.composite_generalized
    assert quadcert.composite_generalized is original

    def traced(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(quadcert.composite, "composite_generalized", traced)
    assert quadcert.composite_generalized is traced
    monkeypatch.undo()
    assert quadcert.composite_generalized is original


def test_dir_and_star_import_give_every_public_name():
    assert set(PUBLIC) <= set(dir(quadcert))
    namespace = {}
    exec("from quadcert import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'composite_simpson'"):
        quadcert.composite_simpson
    assert not hasattr(quadcert, "composite_simpson")


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"quadcert.{module}")
    for name in REMOVED[module]:
        assert not hasattr(quadcert, name) and not hasattr(mod, name), name


def test_readme_names_every_public_name():
    text = README.read_text()
    missing = [name for name in PUBLIC if not re.search(rf"\b{name}\b", text)]
    assert missing == []
