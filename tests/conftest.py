"""Shared fixtures: the registry corpus with convex |f''|, seeded
random-interval helpers, a hypothesis strategy of single intervals and
plain-callable copies of registry functions."""

import numpy as np
import pytest
from hypothesis import strategies as st

from quadcert.functions import Interval, parse_function_spec, register_builtin


def convex_corpus():
    """(FunctionTriple, sample_lo, sample_hi): functions whose |f''| is
    convex, each with the range test intervals are drawn from."""
    return [
        (register_builtin("power", [2.0]), -2.0, 3.0),
        (register_builtin("power", [3.0]), -2.0, 3.0),
        (register_builtin("power", [4.0]), -2.0, 3.0),
        (register_builtin("exp"), -1.5, 1.5),
        (register_builtin("reciprocal"), 0.25, 3.0),
        (register_builtin("neglog"), 0.25, 3.0),
    ]


def plain_callables(ft):
    """ft with f, f' and f'' wrapped as plain callables: the same values,
    but none of the registry evaluators' attributes, so sup norms sample."""
    return ft._replace(f=lambda x, g=ft.f: g(x), f1=lambda x, g=ft.f1: g(x),
                       f2=lambda x, g=ft.f2: g(x))


def random_interval(rng, lo, hi, min_len=0.2):
    a = rng.uniform(lo, hi - min_len)
    b = rng.uniform(a + min_len, hi)
    return Interval(float(a), float(b))


def random_x(rng, iv):
    return float(rng.uniform(iv.midpoint, iv.b))


# Registry functions for single-interval draws, with the range intervals
# are drawn from: every registry kind, a concave |f''| (power:2.5) and a
# cubic poly.
SINGLE_SPECS = {"exp": (-3.0, 3.0), "reciprocal": (0.1, 5.0), "neglog": (0.1, 5.0),
                "power:2": (-3.0, 3.0), "power:2.5": (0.1, 5.0), "power:3": (-3.0, 3.0),
                "poly:1,-2,0.5,3": (-3.0, 3.0)}


@st.composite
def single_cases(draw):
    """(FunctionTriple, Interval, x) with x in the right half, x = midpoint
    and x = b included."""
    spec = draw(st.sampled_from(sorted(SINGLE_SPECS)))
    lo, hi = SINGLE_SPECS[spec]
    a = draw(st.floats(lo, hi - 1e-3))
    iv = Interval(a, draw(st.floats(a + 1e-3, hi)))
    u = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return parse_function_spec(spec), iv, min(iv.midpoint + u * (iv.b - iv.midpoint), iv.b)


@pytest.fixture(scope="session")
def corpus():
    return convex_corpus()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
