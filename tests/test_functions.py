"""Registry functions: exact derivative values, domain enforcement, and the
|f''| convexity check, exact for the registry and sampled otherwise."""

import gc
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from quadcert import _backend
from quadcert.bounds import (HolderPair, bound_cerone_dragomir, bound_convex, bound_holder,
                             bound_ostrowski, bound_power_mean)
from quadcert.composite import Partition, composite_midpoint
from quadcert.errors import DomainError, ParameterError
from quadcert.functions import (
    Interval,
    abs_f2_convexity,
    check_abs_f2_convexity,
    grid_midpoint_convex,
    parse_function_spec,
    register_builtin,
)
from quadcert.means import check_proposition, mean_value


@pytest.mark.parametrize(
    "func_id,params,x,expected",
    [
        ("power", [2.0], 3.0, (9.0, 6.0, 2.0)),
        ("reciprocal", [], 2.0, (0.5, -0.25, 0.25)),
        ("neglog", [], 1.0, (0.0, -1.0, 1.0)),
        ("exp", [], 0.0, (1.0, 1.0, 1.0)),
        ("poly", [1.0, 0.0, -3.0], 2.0, (1.0, 4.0, 2.0)),  # x^2 - 3
    ],
)
def test_builtin_values(func_id, params, x, expected):
    ft = register_builtin(func_id, params)
    assert (ft.f(x), ft.f1(x), ft.f2(x)) == expected


def test_derivatives_match_finite_differences(corpus, rng):
    """Central differences of f reproduce f1, and of f1 reproduce f2, to
    1e-6 relative at 50 random interior points per function."""
    for ft, lo, hi in corpus:
        xs = rng.uniform(lo + 0.05, hi - 0.05, size=50)
        for x in map(float, xs):
            h = 1e-5 * (abs(x) + 1.0)
            fd1 = (ft.f(x + h) - ft.f(x - h)) / (2.0 * h)
            fd2 = (ft.f1(x + h) - ft.f1(x - h)) / (2.0 * h)
            assert fd1 == pytest.approx(ft.f1(x), rel=1e-6, abs=1e-9)
            assert fd2 == pytest.approx(ft.f2(x), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("spec", ["reciprocal", "neglog", "power:2.5", "power:-2"])
@pytest.mark.parametrize("bad_x", [0.0, -1.0])
def test_domain_rejection(spec, bad_x):
    ft = parse_function_spec(spec)
    for g in (ft.f, ft.f1, ft.f2):
        with pytest.raises(DomainError):
            g(bad_x)


EXP = register_builtin("exp")
POWER400 = register_builtin("power", [400.0])
UNIT = Interval(0.0, 1.0)
CONST = register_builtin("poly", [1.0])
WIDE = Interval(0.0, 1e200)


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: POWER400.f(10.0), DomainError,
                 r"^f of power:400 overflows the float range at x=10\.0$", id="power-evaluator"),
    pytest.param(lambda: EXP.f(800.0), DomainError,
                 r"^f of exp overflows the float range at x=800\.0$", id="exp-evaluator"),
    # math.pow is finite here; the product with the coefficient 400 * 399 is not
    pytest.param(lambda: POWER400.f2(5.8), DomainError,
                 r"^f'' of power:400 overflows the float range at x=5\.8$", id="power-product"),
    pytest.param(lambda: register_builtin("poly", [1e300, 0.0, 0.0]).f(1e10), DomainError,
                 r"^f of poly:1e\+300,0,0 overflows the float range at x=10000000000\.0$",
                 id="poly-evaluator"),
    pytest.param(lambda: composite_midpoint(POWER400, Partition.uniform(1.0, 10.0, 8).nodes),
                 DomainError, r"of power:400 overflows", id="composite-midpoint"),
    pytest.param(lambda: mean_value("p_logarithmic", 1, 1e10, p=400), ParameterError,
                 r"^p_logarithmic mean overflows", id="p-logarithmic-mean"),
    pytest.param(lambda: check_proposition(1, 1, 1000, p=400), ParameterError,
                 r"^proposition 1 overflows", id="proposition"),
    pytest.param(lambda: bound_power_mean(EXP, UNIT, 1.0, 1e6), ParameterError,
                 r"^power_mean bound overflows", id="power-mean-bound"),
    pytest.param(lambda: bound_holder(EXP, UNIT, 1.0, HolderPair.conjugate(1.000001)),
                 ParameterError, r"^holder bound overflows", id="holder-bound"),
    # every factor is finite; their product is not
    pytest.param(lambda: bound_holder(register_builtin("poly", [1e10, 0.0, 0.0]),
                                      Interval(0.0, 5e102), 5e102, HolderPair(2.0, 2.0)),
                 ParameterError, r"^holder bound overflows", id="holder-product"),
    pytest.param(lambda: bound_convex(CONST, WIDE, 1e200), ParameterError,
                 r"^convex bound overflows the float range on \[0\.0, 1e\+200\] at x=1e\+200$",
                 id="convex-bound"),
    # the cube is finite, its product with |f''(a)| + |f''(b)| = 4e10 is not
    pytest.param(lambda: bound_convex(register_builtin("poly", [1e10, 0.0, 0.0]),
                                      Interval(0.0, 1e100), 1e100),
                 ParameterError, r"^convex bound overflows the float range at x=1e\+100$",
                 id="convex-product"),
    pytest.param(lambda: bound_ostrowski(EXP, Interval(-1e300, 0.0), 0.0), ParameterError,
                 r"^ostrowski bound overflows the float range at x=0\.0$", id="ostrowski-bound"),
    pytest.param(lambda: bound_cerone_dragomir(CONST, Interval(0.0, 1e100), "inf", norm=1e10),
                 ParameterError, r"^cerone_dragomir bound overflows", id="cerone-dragomir-bound"),
    pytest.param(lambda: composite_midpoint(CONST, (0.0, 1e200)), ParameterError,
                 r"^composite bound overflows the float range on \[0\.0, 1e\+200\] at n=1$",
                 id="composite-bound"),
])
def test_overflow_is_a_quadcert_error(call, error, match):
    """Results beyond the float range raise the package's own errors, with a
    message naming where, instead of a bare OverflowError."""
    with pytest.raises(error, match=match):
        call()


# Every registry kind, with exponents whose f'' coefficient is 0 (power:1,
# power:0), overflows (power:400 at 10, exp at 710) and a bounded domain.
COLUMN_SPECS = ("power:2", "power:2.5", "power:-2", "power:1", "power:0", "power:3",
                "power:400", "reciprocal", "neglog", "exp", "poly:1,0,-3")
SPECIAL_X = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 10.0, 710.0, 5e-324)


def _outcome(call):
    """The values by float.hex, or the type and message of the error."""
    try:
        return tuple(map(float.hex, call()))
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _assert_column_is_scalar_map(fn, xs):
    """Also with the points' range supplied, as the composite kernel does for
    the NaN-free points of a validated block."""
    expected = _outcome(lambda: list(map(fn, xs)))
    assert _outcome(lambda: _backend.column(fn, xs)) == expected
    if all(x == x for x in xs):
        within = (min(xs, default=0.0), max(xs, default=0.0))
        assert _outcome(lambda: _backend.column(fn, xs, within)) == expected


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(COLUMN_SPECS), deriv=st.sampled_from(("f", "f1", "f2")),
       xs=st.lists(st.one_of(st.sampled_from(SPECIAL_X),
                             st.floats(allow_nan=True, allow_infinity=True),
                             st.floats(0.01, 20.0), st.floats(5.7, 5.9)), max_size=12))
# f'' of power:400 overflows in the product with its coefficient from x = 5.78;
# at 5.77 it is finite, but two such values sum to inf
@example(spec="power:400", deriv="f2", xs=[5.7, 5.77, 5.8, 5.75])
@example(spec="power:400", deriv="f2", xs=[5.77, 5.77, 5.75])
def test_column_is_the_scalar_map(spec, deriv, xs):
    """`_backend.column` gives list(map(fn, xs)) bit for bit, or the same
    error with the same message, with or without a supplied range."""
    _assert_column_is_scalar_map(getattr(parse_function_spec(spec), deriv), xs)


@pytest.mark.parametrize("spec", COLUMN_SPECS)
def test_column_special_points_at_every_position(spec):
    ft = parse_function_spec(spec)
    base = [0.5, 1.5, 2.5, 3.5]
    for fn in (ft.f, ft.f1, ft.f2):
        _assert_column_is_scalar_map(fn, [])
        _assert_column_is_scalar_map(fn, base)
        for special in SPECIAL_X:
            for i in range(len(base) + 1):
                _assert_column_is_scalar_map(fn, base[:i] + [special] + base[i:])
    assert parse_function_spec("power:1").f2.batch[1][0] == 0.0
    assert not hasattr(parse_function_spec("poly:1,0,-3").f, "batch")


def test_parse_leaves_no_reference_cycles():
    """Evaluators and their column form are freed by reference counting:
    parsing leaves nothing for the cyclic collector."""
    gc.collect()
    parse_function_spec("power:2.5")
    assert gc.collect() == 0


def test_no_domain_restriction_for_integer_powers_and_poly():
    for spec in ["power:3", "exp", "poly:2,1"]:
        ft = parse_function_spec(spec)
        assert math.isfinite(ft.f(-5.0))
    assert parse_function_spec("power:3").f(-2.0) == -8.0


def test_nan_rejected_everywhere():
    ft = register_builtin("exp")
    with pytest.raises(DomainError):
        ft.f(math.nan)


@pytest.mark.parametrize(
    "func_id,params",
    [
        ("sine", []),
        ("power", []),
        ("power", [1.0, 2.0]),
        ("reciprocal", [3.0]),
        ("exp", [1.0]),
        ("poly", []),
        ("power", [math.inf]),
    ],
)
def test_bad_registration_rejected(func_id, params):
    with pytest.raises(ParameterError):
        register_builtin(func_id, params)


def test_parse_function_spec():
    assert parse_function_spec("power:2.5").id == "power:2.5"
    assert parse_function_spec("poly:1,0,-3").id == "poly:1,0,-3"
    assert parse_function_spec("reciprocal").id == "reciprocal"
    with pytest.raises(ParameterError):
        parse_function_spec("power:abc")
    with pytest.raises(ParameterError):  # the registry spells it "poly" only
        parse_function_spec("polynomial:1,0")


def test_convexity_check():
    assert check_abs_f2_convexity(register_builtin("power", [2.0]), Interval(0.0, 1.0))
    assert check_abs_f2_convexity(register_builtin("reciprocal"), Interval(1.0, 2.0))
    # |f''| = 3.75 sqrt(x) is strictly concave, so the grid test must fail.
    # The interval starts above 0: non-integer powers live on the open (0, inf).
    assert not check_abs_f2_convexity(register_builtin("power", [2.5]), Interval(0.1, 1.0))


def test_convexity_check_validation():
    ft = register_builtin("reciprocal")
    with pytest.raises(DomainError):
        check_abs_f2_convexity(ft, Interval(-1.0, 1.0))


def test_convexity_hints():
    """The exact classification of registry |f''| that replaced the static
    per-function hint, which could not depend on the interval."""
    cases = [("power:2", -1.0, 1.0, True), ("power:3", -1.0, 1.0, True),
             ("power:2.5", 0.1, 1.0, False), ("exp", -1.0, 1.0, True),
             ("poly:1,0,0,0", -1.0, 1.0, True),
             # f'' = 12x^2 - 2: -f'' is concave between its roots +-0.408
             ("poly:1,0,-1,0,0", -1.0, 1.0, False), ("poly:1,0,-1,0,0", 1.0, 2.0, True)]
    for spec, a, b, convex in cases:
        assert abs_f2_convexity(parse_function_spec(spec), Interval(a, b)) == (convex, None)


def test_hint_implies_grid_convexity(corpus):
    """A True exact classification must survive the sampled check on
    in-domain intervals."""
    extra = [(register_builtin("power", [-2.0]), 0.25, 3.0),
             (register_builtin("power", [0.5]), 0.25, 3.0)]
    for ft, lo, hi in list(corpus) + extra:
        iv = Interval(lo, hi)
        if abs_f2_convexity(ft, iv)[0]:
            assert grid_midpoint_convex(lambda x, g=ft.f2: abs(g(x)), lo, hi)


def test_interval_validation():
    with pytest.raises(ParameterError):
        Interval(1.0, 1.0)
    with pytest.raises(ParameterError):
        Interval(2.0, 1.0)
    with pytest.raises(ParameterError):
        Interval(0.0, math.inf)
    iv = Interval(1.0, 3.0)
    assert iv.length == 2.0
    assert iv.midpoint == 2.0
