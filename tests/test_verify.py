import numpy as np
import pytest

from varbounds.linalg import Observable, OrthonormalBasis, QuantumState
from varbounds.lower_bounds import (
    basis_product_bound,
    basis_sum_bound,
    fidelity_product_bound,
    mp_sum_bound_1,
    parallelogram_sum_bound,
    rs_product_bound,
)
from varbounds.reporting import render_json
from varbounds.upper_bounds import (
    dw_variance_sum_bound,
    reverse_basis_product_bound,
    reverse_fidelity_product_bound,
)
from varbounds.verify import _Accumulator, _verify_dimension, run_verification


def test_small_ensemble_clean():
    report = run_verification(300, [2, 3], seed=7)
    assert report.ok
    assert report.instances == 600
    assert report.violations == []
    for check, frac in report.undefined_fraction.items():
        assert 0.0 <= frac <= 1.0
    # lower-bound checks ran on every instance, pure-only on half
    assert report.applicable["valid_fidelity_product"] == 600
    assert report.applicable["valid_basis_product"] == 300
    # slack of a valid lower bound never exceeds the tolerance
    assert report.max_slack["valid_fidelity_product"] <= 1e-10


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_verification(0, [2], seed=1)
    with pytest.raises(ValueError):
        run_verification(10, [], seed=1)
    with pytest.raises(ValueError):
        run_verification(10, [1], seed=1)


def test_deterministic_reports():
    r1 = run_verification(120, [2, 4], seed=42)
    r2 = run_verification(120, [2, 4], seed=42)
    assert render_json(r1) == render_json(r2)
    r3 = run_verification(120, [2, 4], seed=43)
    assert render_json(r1) != render_json(r3)
    # the benchmark's ensemble call, through the LAPACK eigensolver
    first = render_json(run_verification(1000, [2, 3, 4, 6], seed=5))
    assert render_json(run_verification(1000, [2, 3, 4, 6], seed=5)) == first


def test_engine_matches_scalar_api():
    # both paths diagonalize with LAPACK, so this checks the batched bound
    # formulas against the scalar API's, not one eigensolver against another
    for d in (2, 3, 4, 6):
        _check_engine_against_scalar_api(d)


def _check_engine_against_scalar_api(d):
    acc = _Accumulator()
    data = _verify_dimension(d, 24, seed=11, acc=acc)
    assert not acc.violations
    for i in range(24):
        if data["pure"][i]:
            state = QuantumState.pure(data["psi"][i])
        else:
            state = QuantumState.mixed(data["rho_mixed"][i])
        a = Observable(data["a"][i])
        b = Observable(data["b"][i])

        assert rs_product_bound(state, a, b).value == pytest.approx(
            data["rs"][i], abs=1e-11
        )
        assert fidelity_product_bound(state, a, b).value == pytest.approx(
            data["fidelity_product"][i], abs=1e-11
        )
        assert parallelogram_sum_bound(state, a, b).value == pytest.approx(
            data["parallelogram_sum"][i], abs=1e-11
        )
        rev = reverse_fidelity_product_bound(state, a, b)
        assert rev.defined == bool(data["reverse_defined"][i])
        if rev.defined:
            assert rev.value == pytest.approx(data["reverse_fidelity"][i], rel=1e-9)
        dw = dw_variance_sum_bound(state, a, b)
        assert dw.defined == bool(data["dw_defined"][i])
        if dw.defined:
            assert dw.value == pytest.approx(data["dw_variance"][i], abs=1e-9)

        if data["pure"][i]:
            basis = OrthonormalBasis(data["basis"][i])
            assert basis_product_bound(state, a, b, basis).value == pytest.approx(
                data["basis_product"][i], abs=1e-10
            )
            assert basis_sum_bound(state, a, b, basis).value == pytest.approx(
                data["basis_sum"][i], abs=1e-10
            )
            rb = reverse_basis_product_bound(state, a, b, basis)
            assert rb.defined == bool(data["reverse_basis_defined"][i])
            if rb.defined:
                assert rb.value == pytest.approx(data["reverse_basis"][i], rel=1e-9)


def test_engine_mp1_matches_optimized_baseline():
    acc = _Accumulator()
    data = _verify_dimension(2, 8, seed=3, acc=acc)
    for i in range(0, 8, 2):  # pure instances
        state = QuantumState.pure(data["psi"][i])
        a = Observable(data["a"][i])
        b = Observable(data["b"][i])
        res = mp_sum_bound_1(state, a, b)
        assert res.value == pytest.approx(data["mp1"][i], abs=1e-8)


def test_json_shape():
    report = run_verification(50, [2], seed=5)
    d = report.to_json_dict()
    assert d["ok"] is True
    assert d["instances"] == 50
    assert set(d["undefined_fraction"]) == {
        "upper_reverse_fidelity_product",
        "upper_reverse_basis_product",
        "upper_dw_deviation_sum",
        "upper_dw_variance_sum",
    }
    assert d["metadata"]["rng"] == "pcg64"
