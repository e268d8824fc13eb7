"""One stacked Instance per sweep or call; each row bit for bit equal to every bound on its own."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import REFERENCE_BOUNDS, reference_bound, reference_exact
from varbounds.errors import DimensionMismatch, VarboundsError
from varbounds.linalg import Observable, QuantumState, pauli_operators, spin1_operators
from varbounds.lower_bounds import fidelity_product, pairing_sums, rs_product
from varbounds.moments import Instance, covariance, variance
from varbounds.random_ensembles import gue_hermitian, haar_state
from varbounds.sweep import (
    BOUND_IDS,
    BOUNDS,
    SweepSpec,
    _PRESETS,
    compute_instance,
    named_observable,
    run_sweep,
    state_family,
)
from varbounds.upper_bounds import HYPOTHESIS_REASON

DIMS = (2, 3, 4, 6)


def _bits(x):
    """The IEEE bit pattern of a float; None stays None."""
    return None if x is None else int(np.float64(x).view(np.uint64))


def _wishart(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    w = g @ g.conj().T
    return QuantumState.mixed(w / np.trace(w).real)


def _pauli_strings():
    i2 = np.eye(2)
    x, y, z = (p.matrix for p in pauli_operators())
    return [(np.kron(x, i2), np.kron(z, z)), (np.kron(x, y), np.kron(y, x)),
            (np.kron(z, i2) + np.kron(i2, z), np.kron(x, x))]


def _spin1_pairs():
    lx, ly, lz = (m.matrix for m in spin1_operators())
    return [(lx + 0.5 * np.eye(3), ly), (lz - 1.0 * np.eye(3), lx + 2.0 * np.eye(3)),
            (lx @ lx, lz)]


def _cases():
    """(label, state, A, B): Haar, eigen, full-rank and rank-deficient mixed states;
    GUE pairs at every dimension, then degenerate pairs."""
    rng = np.random.default_rng(12)
    out = []
    pairs = [(gue_hermitian(rng, d), gue_hermitian(rng, d)) for d in DIMS for _ in range(3)]
    pairs += _pauli_strings() + _spin1_pairs()
    for a, b in pairs:
        d = a.shape[0]
        out.append(("haar", QuantumState.pure(haar_state(rng, d)), a, b))
        for vecs in (np.linalg.eigh(a)[1], np.linalg.eigh(b)[1]):
            out.append(("eigen", QuantumState.pure(vecs[:, rng.integers(d)]), a, b))
        out.append(("full_rank", _wishart(rng, d, d), a, b))
        out.append(("rank_deficient", _wishart(rng, d, int(rng.integers(1, d))), a, b))
    return [(label, state, Observable(a), Observable(b)) for label, state, a, b in out]


CASES = _cases()


def test_the_reference_covers_every_bound():
    assert sorted(REFERENCE_BOUNDS) == sorted(BOUND_IDS)


# The presets with their own bounds, then both families with every bound:
# these add exact_dev_sum, delta_a_minus_b and undefined cells (at theta=0 the
# Bloch state is an eigenstate of sigma_x).
SWEEPS = {
    **{p: dict(preset=p) for p in sorted(_PRESETS)},
    "spin1_cos_sin-all": dict(preset="custom", state_family="spin1_cos_sin",
                              observables=("spin1_lx", "spin1_ly"), bounds=BOUND_IDS),
    "qubit_bloch_fig3-all": dict(preset="custom", state_family="qubit_bloch_fig3",
                                 observables=("pauli_x", "pauli_z"), bounds=BOUND_IDS),
}


def _sweep_spec(sweep):
    """(spec, family, observable names, bounds) of a :data:`SWEEPS` entry."""
    kw = SWEEPS[sweep]
    if kw["preset"] != "custom":
        p = _PRESETS[kw["preset"]]
        return SweepSpec(preset=kw["preset"], theta_count=181), p["family"], p["observables"], p["bounds"]
    a, b = (named_observable(n) for n in kw["observables"])
    spec = SweepSpec(preset="custom", state_family=kw["state_family"], observables=(a, b),
                     bounds=kw["bounds"], theta_count=181)
    return spec, kw["state_family"], kw["observables"], kw["bounds"]


@pytest.mark.parametrize("preset", sorted(SWEEPS))
def test_sweep_rows_equal_each_bound_on_its_own(preset):
    spec, family, names, bounds = _sweep_spec(preset)
    table = run_sweep(spec)
    _, build = state_family(family)
    a, b = (named_observable(n) for n in names)
    undefined = 0
    for row in table.rows:
        cells = dict(zip(table.columns, row))
        state = QuantumState.pure(build([cells["theta"]])[0])  # the one-row path of the family
        exact = reference_exact(state, a, b)
        assert _bits(cells["exact_product"]) == _bits(exact["product"])
        assert _bits(cells["exact_sum"]) == _bits(exact["sum"])
        for bid in bounds:
            value, status = reference_bound(bid, state, a, b)
            assert (_bits(cells[bid]), cells[bid + "_status"]) == (_bits(value), status), (preset, bid)
            undefined += value is None
        if "exact_dev_sum" in cells:
            assert _bits(cells["exact_dev_sum"]) == _bits(exact["dev_sum"])
            var_a, var_b = variance(state, a), variance(state, b)
            dev = math.sqrt(max(var_a + var_b - 2.0 * covariance(state, a, b), 0.0))
            assert _bits(cells["delta_a_minus_b"]) == _bits(dev)
            assert cells["delta_a_minus_b_status"] == ("holds" if dev >= exact["dev_sum"] - 1e-12 else "fails")
    if bounds == BOUND_IDS:
        assert "exact_dev_sum" in table.columns and undefined > 0


@pytest.mark.parametrize("label", sorted({c[0] for c in CASES}))
def test_compute_instance_equals_each_bound_on_its_own(label):
    checked = 0
    for _, state, a, b in (c for c in CASES if c[0] == label):
        out = compute_instance(state, a, b)
        exact = reference_exact(state, a, b)
        assert {k: _bits(v) for k, v in out["exact"].items()} == {k: _bits(v) for k, v in exact.items()}
        for bid in BOUND_IDS:
            value, status = reference_bound(bid, state, a, b)
            got = out["bounds"][bid]
            assert (_bits(got["value"]), got["defined"], got["status"]) == \
                (_bits(value), value is not None, status), (label, state.dim, bid)
            checked += 1
    assert checked >= 13 * 10


def test_a_stack_of_states_equals_each_state_on_its_own():
    # the pure states of each pair (Haar and eigenstates) as one stack, the
    # mixed ones as another: every row has the cells of its one-row instance
    by_pair = {}
    for _, state, a, b in CASES:
        key = (a.matrix.tobytes(), b.matrix.tobytes(), state.is_pure)
        by_pair.setdefault(key, (a, b, []))[2].append(state)
    assert {len(states) for _, _, states in by_pair.values()} == {2, 3}
    for a, b, states in by_pair.values():
        stack = Instance(states, a, b)
        for bid, bdef in BOUNDS.items():
            if bdef.pure_only and not states[0].is_pure:
                continue
            values, statuses = bdef.compute(stack).cells()
            for i, state in enumerate(states):
                (value,), (status,) = bdef.compute(Instance(state, a, b)).cells()
                assert (_bits(values[i]), statuses[i]) == (_bits(value), status), (bid, a.dim, i)


def test_a_stack_of_pairs_equals_each_pair_on_its_own():
    # one observable pair per row, with pure vectors or density matrices: every row has the
    # cells of its one-row instance
    rng = np.random.default_rng(31)
    for d in DIMS:
        a, b = (Observable(gue_hermitian(rng, d, 4)) for _ in range(2))
        rhos = np.array([_wishart(rng, d, rank).rho for rank in (d, 1, d, max(1, d - 1))])
        for states, one in ((haar_state(rng, d, 4), QuantumState.pure), (rhos, QuantumState.mixed)):
            stack = Instance(states, a, b)
            for bid, bdef in BOUNDS.items():
                if bdef.pure_only and not stack.is_pure:
                    continue
                values, statuses = bdef.compute(stack).cells()
                for i, state in enumerate(states):
                    alone = Instance(one(state), Observable(a.matrix[i]), Observable(b.matrix[i]))
                    (value,), (status,) = bdef.compute(alone).cells()
                    assert (_bits(values[i]), statuses[i]) == (_bits(value), status), (bid, d, i)


def test_a_stack_of_pairs_has_one_pair_per_row():
    rng = np.random.default_rng(32)
    a, b = (Observable(gue_hermitian(rng, 2, 3)) for _ in range(2))
    with pytest.raises(VarboundsError, match="one pair per row"):
        Instance(haar_state(rng, 2, 2), a, b)
    with pytest.raises(VarboundsError, match="one pair per row"):
        Instance(haar_state(rng, 2, 3), a, Observable(gue_hermitian(rng, 2)))
    with pytest.raises(VarboundsError, match="trace"):
        Instance(np.array([np.eye(2) / 2, np.eye(2)]), a[:2], b[:2])


def test_a_stack_holds_states_of_one_kind_and_dimension():
    sx, _, sz = pauli_operators()
    pure, mixed = QuantumState.pure([1.0, 0.0]), QuantumState.mixed(np.eye(2) / 2)
    with pytest.raises(VarboundsError):
        Instance([pure, mixed], sx, sz)
    with pytest.raises(DimensionMismatch):
        Instance([pure, QuantumState.pure([1.0, 0.0, 0.0])], sx, sz)


def test_squares_are_correctly_rounded():
    # Python's x ** 2 calls pow, which misrounds about one square in a thousand; the formulas
    # square with x * x, which IEEE 754 rounds correctly: the exact square rounded to a double
    rng = np.random.default_rng(2016)
    a, b = (Observable(gue_hermitian(rng, 4)) for _ in range(2))
    inst = Instance(haar_state(rng, 4, 10_000), a, b)
    fid = fidelity_product(inst)
    asc, alt = pairing_sums(inst.sequences.u, inst.sequences.v)
    for operands, squares in ((inst.moments.cov, rs_product(inst).intermediates["covariance_term"]),
                              (asc, fid.intermediates["ascending_value"]),
                              (alt, fid.intermediates["opposed_value"])):
        exact = [float(Fraction(x) ** 2) for x in operands.tolist()]
        assert sum(x ** 2 != sq for x, sq in zip(operands.tolist(), exact)) >= 3  # pow's misses
        assert squares.tolist() == exact


def test_eigenstates_leave_the_reverse_basis_bound_undefined():
    reasons = {compute_instance(s, a, b)["bounds"]["reverse_basis_product"]["status"]
               for label, s, a, b in CASES if label == "eigen"}
    assert reasons == {HYPOTHESIS_REASON}


# -- work counts ------------------------------------------------------------------
STANDALONE = ("moments", "expectation", "variance", "covariance", "commutator_expectation",
              "anticommutator_expectation", "deviation_vector", "sorted_weight_sequences")


@pytest.fixture
def work(monkeypatch):
    """Counts of Instance and QuantumState builds and of calls to the standalone moment functions."""
    counts = {"instances": 0, "states": 0, "standalone": 0}
    for cls, key in ((Instance, "instances"), (QuantumState, "states")):
        def counting_init(self, *args, _init=cls.__init__, _key=key, **kwargs):
            counts[_key] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("varbounds")]:
        for name in STANDALONE:
            func = getattr(mod, name, None)
            if callable(func):
                def counting(*args, _func=func, **kwargs):
                    counts["standalone"] += 1
                    return _func(*args, **kwargs)

                monkeypatch.setattr(mod, name, counting)
    return counts


@pytest.mark.parametrize("label", ["haar", "full_rank"])
def test_compute_instance_builds_one_instance(work, label):
    calls = [c for c in CASES if c[0] == label]
    for _, state, a, b in calls:
        out = compute_instance(state, a, b)
        assert set(out["bounds"]) == set(BOUND_IDS)
    assert work == {"instances": len(calls), "states": 0, "standalone": 0}


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_sweep_builds_one_instance_per_row(work, preset):
    # one stacked instance per sweep, whatever the grid, built through __init__ from the
    # family's vector stack: no QuantumState per theta and no standalone moment calls
    for count in (2, 7):
        run_sweep(SweepSpec(preset=preset, theta_count=count, bounds=BOUND_IDS))
    assert work == {"instances": 2, "states": 0, "standalone": 0}


def test_instance_reads_are_kept():
    _, state, a, b = CASES[0]
    inst = Instance(state, a, b)
    for name in ("dev_a", "dev_b", "sequences", "eig_scales", "frobenius_scales"):
        assert getattr(inst, name) is getattr(inst, name)
    # a one-state instance has one row
    (mean_a,), (scale_a,), (frobenius_a,) = inst.moments.mean_a, inst.eig_scales[0], inst.frobenius_scales[0]
    assert scale_a == float(np.abs(a.eigenvalues - mean_a).max())
    assert frobenius_a >= scale_a
    assert math.isclose(frobenius_a ** 2, float(np.sum(np.abs(a.matrix - mean_a * np.eye(a.dim)) ** 2)))


def test_means_only_bounds_compute_no_moments():
    # the basis, fidelity and reverse bounds and the optima read the means and
    # deviations; <AB> and the variances are computed only when read
    from varbounds.lower_bounds import basis_product, fidelity_product
    from varbounds.optimize import product_optimum
    from varbounds.upper_bounds import reverse_basis_product, reverse_fidelity_product

    _, state, a, b = CASES[0]
    inst = Instance(state, a, b)
    basis = product_optimum(inst).best_basis
    for formula in (fidelity_product, reverse_fidelity_product):
        formula(inst)
    for formula in (basis_product, reverse_basis_product):
        formula(inst, basis)
    assert "moments" not in vars(inst)
    assert inst.moments.mean_a == inst.mean_a and "moments" in vars(inst)
