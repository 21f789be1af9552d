"""The package's record types: immutable, keyword-constructible, with the
field-by-field repr, defaults and validation messages callers rely on."""

import copy
import pickle
from fractions import Fraction

import pytest

from quadcert import composite
from quadcert.bounds import Certificate, HolderPair
from quadcert.composite import CompositeResult, Partition, composite_midpoint
from quadcert.errors import ParameterError
from quadcert.functions import FunctionTriple, Interval, register_builtin
from quadcert.kernel import KernelSpec
from quadcert.means import PropositionReport
from quadcert.oracle import NormEstimate, QuadratureEstimate
from quadcert.rules import RuleValue

RULE = RuleValue(0.5, 0.5, "midpoint", 0.5)
RULE_REPR = "RuleValue(value_avg=0.5, value_total=0.5, rule_kind='midpoint', x=0.5)"

# (build, expected repr, a field name, whether instances hash)
RECORDS = {
    "Interval": (lambda: Interval(0.0, 1.0), "Interval(a=0.0, b=1.0)", "a", True),
    "FunctionTriple": (
        lambda: FunctionTriple("abs", abs, abs, abs, 0.0, 1.0),
        "FunctionTriple(id='abs', f=<built-in function abs>, f1=<built-in function abs>, "
        "f2=<built-in function abs>, domain_lo=0.0, domain_hi=1.0)", "f", True),
    "QuadratureEstimate": (
        lambda: QuadratureEstimate(1.0, 2e-16, 3),
        "QuadratureEstimate(value=1.0, abs_error_estimate=2e-16, subdivisions=3)",
        "value", True),
    "NormEstimate": (
        lambda: NormEstimate("sup_f2", 2.0, "exact"),
        "NormEstimate(kind='sup_f2', value=2.0, method='exact', p=None, samples=None)",
        "value", True),
    "RuleValue": (lambda: RuleValue(0.5, 0.5, "midpoint", 0.5), RULE_REPR, "x", True),
    "KernelSpec": (
        lambda: KernelSpec(Interval(0.0, 1.0), 0.75),
        "KernelSpec(iv=Interval(a=0.0, b=1.0), x=0.75)", "x", True),
    "HolderPair": (lambda: HolderPair(2.0, 2.0), "HolderPair(p=2.0, q=2.0)", "p", True),
    "Partition": (
        lambda: Partition([0, 1], [1]), "Partition(nodes=(0.0, 1.0), xi=(1.0,))",
        "nodes", True),
    "CompositeResult": (
        lambda: CompositeResult(1.0, 0.5), "CompositeResult(approx=1.0, remainder_bound=0.5)",
        "approx", True),
    "Certificate": (
        lambda: Certificate(RULE, 0.1, 0.1, "convex"),
        f"Certificate(rule={RULE_REPR}, bound_avg=0.1, bound_total=0.1, family='convex', "
        "params={}, hypothesis_flags=())", "params", False),
    "PropositionReport": (
        lambda: PropositionReport(2, 0.1, 0.2, True, 0.1, {"a": 1.0}, "note"),
        "PropositionReport(prop_id=2, lhs=0.1, rhs=0.2, holds=True, slack=0.1, "
        "params={'a': 1.0}, hypothesis_note='note')", "holds", False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_equality_and_hash(name):
    build, text, _, hashable = RECORDS[name]
    first, second = build(), build()
    assert repr(first) == text
    assert first == second
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    build, _, field_name, _ = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field_name, 0.0)


def test_keyword_construction_and_defaults():
    assert RuleValue(value_avg=1.0, value_total=2.0, rule_kind="trapezoid").x is None
    norm = NormEstimate(kind="l1_f2", value=1.0, method="exact")
    assert norm.p is None and norm.samples is None
    cert = Certificate(rule=RULE, bound_avg=0.1, bound_total=0.1, family="ostrowski")
    assert cert.hypothesis_flags == () and cert.params == {}
    assert Interval(a=0.0, b=2.0).midpoint == 1.0
    assert KernelSpec(iv=Interval(0.0, 1.0), x=1.0).t1 == 0.0
    assert HolderPair(p=3.0, q=1.5).q == 1.5
    assert Partition(nodes=(0.0, 2.0), xi=(2.0,)).xi == (2.0,)
    res = CompositeResult(approx=1.0, remainder_bound=0.0)
    assert res.approx == 1.0 and res.remainder_bound == 0.0
    assert QuadratureEstimate(value=1.0, abs_error_estimate=0.0, subdivisions=1).subdivisions == 1
    assert PropositionReport(prop_id=1, lhs=0.0, rhs=1.0, holds=True, slack=1.0,
                             params={}, hypothesis_note="").holds


def test_each_certificate_gets_its_own_params():
    first, second = Certificate(RULE, 0.1, 0.1, "convex"), Certificate(RULE, 0.1, 0.1, "convex")
    first.params["p"] = 2.0
    assert second.params == {}
    assert Certificate(RULE, 0.1, 0.1, "convex").params == {}


def test_partition_keeps_post_init_in_its_class_dict():
    """The benchmark tracer patches ``Partition.__post_init__`` by name; the
    patched method must be what validation runs."""
    assert "__post_init__" in vars(Partition)
    calls = []
    original = vars(Partition)["__post_init__"]

    def counted(self):
        calls.append(self)
        return original(self)

    Partition.__post_init__ = counted
    try:
        part = Partition.uniform(0.0, 1.0, 4)
    finally:
        Partition.__post_init__ = original
    assert calls == [part]


@pytest.mark.parametrize("build, message", [
    (lambda: Interval(0.0, float("inf")), "interval endpoints must be finite"),
    (lambda: Interval(1.0, 1.0), r"interval needs a < b, got \[1.0, 1.0\]"),
    (lambda: Interval(-1e308, 1.7e308), "interval length/midpoint overflow"),
    (lambda: KernelSpec(Interval(0.0, 1.0), 0.25), r"x=0.25 outside \[midpoint, b\]"),
    (lambda: HolderPair(1.0, 2.0), "need p > 1 and q > 1, got p=1.0, q=2.0"),
    (lambda: HolderPair(2.0, 3.0), "p=2.0, q=3.0 are not conjugate exponents"),
    (lambda: Partition([0.0], []), "a partition needs at least two nodes"),
    (lambda: Partition([0.0, float("nan")], [0.0]), "partition values must be finite"),
    (lambda: Partition([0.0, 1.0, 1.0], [1.0, 1.0]),
     "nodes must be strictly increasing, got 1.0 >= 1.0"),
    (lambda: Partition([0.0, 1.0], []), "expected 1 intermediate points, got 0"),
    (lambda: Partition([0.0, 1.0, 2.0], [1.0, 1.2]),
     r"xi\[1\]=1.2 outside the admissible right half \[1.5, 2.0\]"),
    (lambda: composite_midpoint(register_builtin("exp"), (0.0, 0.0)),
     "nodes must be strictly increasing, got 0.0 >= 0.0"),
    (lambda: Partition.uniform(Fraction(1, 10**400), Fraction(2, 10**400), 4),
     r"need a < b, got \[0.0, 0.0\]"),
])
def test_records_validate_with_the_same_messages(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_records_are_tuples_and_replace_validates():
    iv = Interval(0.0, 1.0)
    assert iv == (0.0, 1.0) and tuple(iv) == (0.0, 1.0)
    assert iv._replace(b=2.0) == Interval(0.0, 2.0)
    with pytest.raises(ParameterError, match="interval needs a < b"):
        iv._replace(b=-1.0)
    with pytest.raises(ParameterError, match="not conjugate"):
        HolderPair(2.0, 2.0)._replace(q=3.0)
    with pytest.raises(ParameterError, match=r"x=0.5 outside"):
        KernelSpec(Interval(0.0, 1.0), 0.75)._replace(iv=Interval(0.0, 2.0), x=0.5)
    cert = Certificate(RULE, 0.1, 0.1, "convex")._replace(bound_avg=0.2)
    assert cert.bound_avg == 0.2 and cert.params == {}


def _copies(record):
    return copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))


def test_kernel_built_composite_result_reads_as_built_from_tuples():
    """A result of the composite kernel holds its two sums and nothing
    else: its repr, fields, pickle and copies are those of the record
    built from the tuple of its sums, and it hashes as a record does."""
    ft = register_builtin("power", [2.0])
    first, second = (composite_midpoint(ft, (0.0, 0.5, 1.0)) for _ in range(2))
    sums = (first.approx, first.remainder_bound)
    as_tuple = CompositeResult(*sums)
    assert repr(first) == repr(as_tuple) == (
        "CompositeResult(approx=0.3125, remainder_bound=0.020833333333333332)")
    assert first == second == as_tuple and hash(first) == hash(second) == hash(as_tuple)
    for name in ("approx", "remainder_bound", "values", "bounds"):
        with pytest.raises(AttributeError):
            setattr(first, name, 0.0)
    for copied in _copies(first):
        assert copied == as_tuple and repr(copied) == repr(first)


def test_composite_results_copy_and_rebuild_equal():
    """Every result stores its two sums, so copies, pickles and a result
    rebuilt from its fields equal the original and hash as it does."""
    ft = register_builtin("power", [2.0])
    for built in (composite_midpoint(ft, (0.0, 0.5, 1.0)), CompositeResult(1.0, 0.5)):
        rebuilt = CompositeResult(approx=built.approx, remainder_bound=built.remainder_bound)
        for copied in (*_copies(built), rebuilt):
            assert (copied.approx, copied.remainder_bound) == (built.approx, built.remainder_bound)
            assert copied == built and hash(copied) == hash(built)


@pytest.mark.parametrize("policy", ["midpoint", "right", "random"])
def test_policy_partitions_copy_as_stored(policy, monkeypatch):
    """Copies and pickles of a uniform partition keep its ``(a, b, n)`` and
    ``(policy, seed)`` instead of materialising the nodes and points, so
    they equal it, hash as it does and draw the same points. Equality and
    hashing compare what is stored and compute no node or point, so a
    partition of the same nodes and points, given in full, is another
    partition."""
    part = Partition.uniform(0.0, 1.0, 4, policy, seed=3)
    given = Partition(part.nodes, part.xi)
    with monkeypatch.context() as patched:
        # a node or point computed here would raise TypeError
        patched.setattr(composite, "_nodes_of", None)
        patched.setattr(composite, "_draw", None)
        copies = _copies(part)
        for copied in copies:
            assert copied == part and hash(copied) == hash(part)
            assert copied._nodes == part._nodes == (0.0, 1.0, 4)
            assert copied._xi == part._xi and copied._xi[0] == policy
        assert len({part, *copies}) == 1
        assert part != given
    for copied in copies:
        assert copied.xi == part.xi
    for copied in _copies(given):
        assert copied == given and hash(copied) == hash(given)


def test_composite_records_pickle_whole_or_not_at_all():
    """At every pickle protocol a partition or a result either loads equal
    to the original and reads as it does, or is refused by ``dumps``:
    protocols 0 and 1 cannot store slots. Neither record is a tuple."""
    ft = register_builtin("power", [2.0])
    records = (Partition.uniform(0.0, 1.0, 4, "random", seed=3), Partition([0, 0.5, 1], [0.5, 1]),
               composite_midpoint(ft, (0.0, 0.5, 1.0)), CompositeResult(1.0, 0.5))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for record in records:
            try:
                data = pickle.dumps(record, protocol)
            except TypeError:
                assert protocol < 2, (protocol, record)
                continue
            loaded = pickle.loads(data)
            assert loaded == record and repr(loaded) == repr(record), (protocol, record)
            fields = (("nodes", "xi") if isinstance(record, Partition)
                      else ("approx", "remainder_bound"))
            for name in fields:
                assert getattr(loaded, name) == getattr(record, name), (protocol, name)
    with pytest.raises(TypeError):
        Partition.uniform(0, 1, 4)[0]
