"""One shared Instance per row or call, bit for bit equal to every bound on its own."""

import math
import sys

import numpy as np
import pytest

from oracles import REFERENCE_BOUNDS, reference_bound, reference_exact
from varbounds.linalg import Observable, QuantumState, pauli_operators, spin1_operators
from varbounds.moments import Instance
from varbounds.random_ensembles import gue_hermitian, haar_state
from varbounds.sweep import (
    BOUND_IDS,
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


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_sweep_rows_equal_each_bound_on_its_own(preset):
    table = run_sweep(SweepSpec(preset=preset, theta_count=181))
    p = _PRESETS[preset]
    _, build = state_family(p["family"])
    a, b = (named_observable(n) for n in p["observables"])
    for row in table.rows:
        cells = dict(zip(table.columns, row))
        state = build(cells["theta"])
        exact = reference_exact(state, a, b)
        assert _bits(cells["exact_product"]) == _bits(exact["product"])
        assert _bits(cells["exact_sum"]) == _bits(exact["sum"])
        for bid in p["bounds"]:
            value, status = reference_bound(bid, state, a, b)
            assert (_bits(cells[bid]), cells[bid + "_status"]) == (_bits(value), status), (preset, bid)


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


def test_eigenstates_leave_the_reverse_basis_bound_undefined():
    reasons = {compute_instance(s, a, b)["bounds"]["reverse_basis_product"]["status"]
               for label, s, a, b in CASES if label == "eigen"}
    assert reasons == {HYPOTHESIS_REASON}


# -- work counts ------------------------------------------------------------------
STANDALONE = ("moments", "expectation", "variance", "covariance", "commutator_expectation",
              "anticommutator_expectation", "deviation_vector", "sorted_weight_sequences")


@pytest.fixture
def work(monkeypatch):
    """Counts of Instance builds and of calls to the standalone moment functions."""
    counts = {"instances": 0, "standalone": 0}
    init = Instance.__init__

    def counting_init(self, *args):
        counts["instances"] += 1
        init(self, *args)

    monkeypatch.setattr(Instance, "__init__", counting_init)
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
    assert work == {"instances": len(calls), "standalone": 0}


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_sweep_builds_one_instance_per_row(work, preset):
    run_sweep(SweepSpec(preset=preset, theta_count=7, bounds=BOUND_IDS))
    assert work == {"instances": 7, "standalone": 0}


def test_instance_reads_are_kept():
    _, state, a, b = CASES[0]
    inst = Instance(state, a, b)
    for name in ("dev_a", "dev_b", "sequences", "eig_scales", "frobenius_scales"):
        assert getattr(inst, name) is getattr(inst, name)
    assert inst.eig_scales[0] == float(np.abs(a.eigenvalues - inst.moments.mean_a).max())
    assert inst.frobenius_scales[0] >= inst.eig_scales[0]
    assert math.isclose(inst.frobenius_scales[0] ** 2,
                        float(np.sum(np.abs(a.matrix - inst.moments.mean_a * np.eye(a.dim)) ** 2)))


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
