"""The record types: constructor signatures, field order, checks, equality, hashing, freezing."""

import inspect
import math

import numpy as np
import pytest

from varbounds._record import lazy
from varbounds.linalg import OrthonormalBasis, QuantumState, spin1_operators
from varbounds.lower_bounds import BoundArrays, BoundResult
from varbounds.moments import Instance, MomentSet, SortedWeightSequences, moments
from varbounds.optimize import OptimizationReport
from varbounds.sweep import SweepSpec, SweepTable, _BoundDef
from varbounds.upper_bounds import ReverseFactor
from varbounds.verify import VerificationReport, Violation

# each record with its fields in order, and the default of every field that has one
RECORDS = {
    MomentSet: ("mean_a", "mean_b", "var_a", "var_b", "cov", "comm_expect", "anticomm_expect"),
    SortedWeightSequences: ("u", "v", "u_indices", "v_indices"),
    BoundResult: ("kind", "value", "defined", "reason", "baseline", "intermediates"),
    BoundArrays: ("kind", "value", "reason", "baseline", "intermediates"),
    ReverseFactor: ("max_a", "min_a", "max_b", "min_b"),
    OptimizationReport: ("best_value", "best_basis", "mode", "witness"),
    _BoundDef: ("target", "upper", "pure_only", "compute"),
    SweepSpec: ("preset", "theta_start", "theta_stop", "theta_count", "bounds", "observables",
                "state_family"),
    SweepTable: ("columns", "rows", "metadata"),
    Violation: ("check", "digest", "slack"),
    VerificationReport: ("instances", "violations", "undefined_fraction", "max_slack",
                         "applicable", "metadata"),
}
DEFAULTS = {
    BoundResult: {"defined": True, "reason": None, "baseline": False, "intermediates": None},
    BoundArrays: {"reason": None, "baseline": False, "intermediates": None},
    SweepSpec: {"preset": "custom", "theta_start": 0.0, "theta_stop": math.pi, "theta_count": 181,
                "bounds": None, "observables": None, "state_family": None},
    VerificationReport: {"metadata": None},
}
FROZEN = (MomentSet, SortedWeightSequences, ReverseFactor, _BoundDef, Violation)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_signature_defaults_and_field_order(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields == RECORDS[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    defaults = {n: p.default for n, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_equality_and_hashing_follow_the_fields(cls):
    values = {name: f"<{name}>" for name in cls._fields}
    if cls is SweepSpec:
        values["theta_count"] = 5  # the grid check compares it with 2
        values["theta_start"], values["theta_stop"] = 0.0, 1.0  # and needs finite ends
    if cls is BoundArrays:
        values["reason"] = None  # or an array of reasons, one per row
    one, two = cls(**values), cls(*values.values())
    assert repr(one) == f"{cls.__qualname__}(" + ", ".join(f"{n}={v!r}" for n, v in values.items()) + ")"
    assert one == two and not one != two
    assert one != object() and (one == object()) is False
    if cls in FROZEN:
        assert hash(one) == hash(two) == hash(tuple(values.values()))
    else:
        with pytest.raises(TypeError):
            hash(one)


def test_an_undefined_bound_needs_a_reason():
    with pytest.raises(ValueError, match="needs a reason"):
        BoundResult("rs_product", 1.0, defined=False)
    res = BoundResult("rs_product", 1.0, defined=False, reason="why")
    assert (res.value, res.reason, res.intermediates) == (math.inf, "why", {})
    assert BoundResult("rs_product", 1.0).intermediates is not BoundResult("rs_product", 1.0).intermediates


def test_bound_arrays_put_inf_on_rows_with_a_reason():
    value = np.array([1.0, 2.0, 3.0])
    reason = np.array([None, "why", None], dtype=object)
    arr = BoundArrays("reverse_basis_product", value, reason)
    assert arr.value.tolist() == [1.0, math.inf, 3.0] and value.tolist() == [1.0, 2.0, 3.0]
    assert arr.defined.tolist() == [True, False, True]
    whole = BoundArrays("rs_product", value)
    assert whole.value is value and whole.defined.all() and whole.intermediates == {}


def test_moments_are_row_0_of_the_instance():
    lx, ly, _ = spin1_operators()
    state = QuantumState.pure(np.array([0.6, 0.8j, 0.0]))
    one = moments(state, lx, ly)
    rows = Instance(state, lx, ly).moments
    for name in MomentSet._fields:
        got, row = getattr(one, name), getattr(rows, name)[0]
        assert type(got) is type(row.item()) and np.asarray(got).tobytes() == row.tobytes(), name
    assert one.std_a == math.sqrt(one.var_a)  # the lazy attributes still work on a frozen record


def test_a_sweep_spec_rebuilds_from_its_dict():
    spec = SweepSpec(preset="fig3", theta_count=7, bounds=("rs_product",))
    assert SweepSpec(**spec.__dict__) == spec
    assert SweepSpec(**{**spec.__dict__, "theta_count": 9}).theta_count == 9
    with pytest.raises(Exception, match="at least 2 points"):
        SweepSpec(theta_count=1)


def test_violations_compare_and_hash_by_value():
    v = Violation(check="valid_rs_product", digest="deadbeef", slack=1e-3)
    assert v == Violation("valid_rs_product", "deadbeef", 1e-3)
    assert v != Violation("valid_rs_product", "deadbeef", 2e-3)
    assert len({v, Violation("valid_rs_product", "deadbeef", 1e-3)}) == 1


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_reject_assignment(cls):
    record = cls(*(0.0 for _ in cls._fields))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    with pytest.raises(AttributeError):
        delattr(record, cls._fields[0])
    assert getattr(record, cls._fields[0]) == 0.0 and not hasattr(record, "extra")


def test_the_mutable_records_take_assignment():
    report = OptimizationReport(1.0, OrthonormalBasis(np.eye(2)), "max", "aligned")
    report.best_value = 2.0
    assert report.best_value == 2.0 and (report.evaluations, report.converged) == (0, True)
    report = VerificationReport(1, [], {}, {}, {})
    assert report.metadata == {} and report.ok


def _lazy(cls):
    return {name: attr for name, attr in vars(cls).items() if isinstance(attr, lazy)}


def test_lazy_attributes_are_computed_once_per_instance(monkeypatch):
    lazies = {**_lazy(Instance), **_lazy(MomentSet)}
    assert set(lazies) == {"moments", "_deviations", "dev_a", "dev_b", "eig_devs", "fidelities",
                           "sequences", "eig_scales", "frobenius_scales", "std_a", "std_b", "var_diff"}
    calls = []

    def counted(name, func):
        def compute(obj):
            calls.append(name)
            return func(obj)
        return compute

    for name, attr in lazies.items():
        monkeypatch.setattr(attr, "func", counted(name, attr.func))
    lx, ly, _ = spin1_operators()
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    for _ in range(2):  # each new instance computes each attribute once more
        inst = Instance(rows / np.linalg.norm(rows, axis=1, keepdims=True), lx, ly)
        owner = {name: inst.moments if name in _lazy(MomentSet) else inst for name in lazies}
        first = {name: getattr(owner[name], name) for name in lazies}
        for name, value in first.items():
            assert getattr(owner[name], name) is value, name
    assert sorted(calls) == sorted(2 * list(lazies))


def test_a_moment_set_refuses_assignment_before_and_after_a_lazy_read():
    ms = MomentSet(0.0, 0.0, 4.0, 9.0, 0.0, 0j, 0.0)
    for name in ("var_a", "std_a", "extra"):
        with pytest.raises(AttributeError):
            setattr(ms, name, 1.0)
    assert ms.std_a == 2.0 and ms.__dict__["std_a"] == 2.0
    for name in ("var_a", "std_a"):
        with pytest.raises(AttributeError):
            setattr(ms, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(ms, name)
    assert (ms.var_a, ms.std_a) == (4.0, 2.0)
