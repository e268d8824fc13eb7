import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import varbounds

from varbounds.linalg import Observable, OrthonormalBasis, QuantumState
from varbounds.lower_bounds import (
    basis_product_bound,
    basis_sum_bound,
    fidelity_product_bound,
    mp_sum_bound_1,
    mp_sum_bound_2,
    parallelogram_sum_bound,
    rs_product_bound,
)
from varbounds.moments import moments
from varbounds.reporting import render_json
from varbounds.upper_bounds import (
    dw_deviation_sum_bound,
    dw_variance_sum_bound,
    reverse_basis_product_bound,
    reverse_fidelity_product_bound,
)
from varbounds import verify
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


def _bits(x):
    """The IEEE bit pattern of a float (+inf for an undefined bound)."""
    return int(np.float64(x).view(np.uint64))


def test_engine_matches_scalar_api():
    # verify's values come from the bound formulas on its stacked instances (one per half,
    # with one observable pair per row), so each row has the bits of the *_bound API on its
    # own state and pair
    for d in (2, 3, 4, 6):
        _check_engine_against_scalar_api(d)


def _check_engine_against_scalar_api(d):
    acc = _Accumulator()
    data = _verify_dimension(d, 24, seed=11, acc=acc)
    assert not acc.violations
    for i in range(24):
        half_row = i // 2  # pure states on the even rows, density matrices on the odd ones
        if data["pure"][i]:
            state = QuantumState.pure(data["psi"][i])
        else:
            state = QuantumState.mixed(data["rho"][half_row])
        a = Observable(data["a"][i])
        b = Observable(data["b"][i])

        ms = moments(state, a, b)
        assert _bits(ms.var_a * ms.var_b) == _bits(data["product"][i])
        assert _bits(ms.var_a + ms.var_b) == _bits(data["total"][i])
        rev = reverse_fidelity_product_bound(state, a, b)
        dw = dw_variance_sum_bound(state, a, b)
        assert (rev.defined, dw.defined) == (data["reverse_defined"][i], data["dw_defined"][i])
        for key, res in {
            "rs": rs_product_bound(state, a, b),
            "fidelity_product": fidelity_product_bound(state, a, b),
            "parallelogram_sum": parallelogram_sum_bound(state, a, b),
            "reverse_fidelity": rev,
            "dw_deviation": dw_deviation_sum_bound(state, a, b),
            "dw_variance": dw,
        }.items():
            assert _bits(res.value) == _bits(data[key][i]), (d, i, key)
        if rev.defined:
            assert _bits(rev.intermediates["omega"]) == _bits(data["omega"][i])

        if data["pure"][i]:
            basis = OrthonormalBasis(data["basis"][half_row])
            rb = reverse_basis_product_bound(state, a, b, basis)
            assert rb.defined == data["reverse_basis_defined"][half_row]
            for key, res in {
                "basis_product": basis_product_bound(state, a, b, basis),
                "basis_sum": basis_sum_bound(state, a, b, basis),
                "eigenbasis_product": basis_product_bound(state, a, b, b.eigenbasis()),
                "reverse_basis": rb,
                "mp1": mp_sum_bound_1(state, a, b),
                "mp2": mp_sum_bound_2(state, a, b),
            }.items():
                assert _bits(res.value) == _bits(data[key][half_row]), (d, i, key)


def test_engine_mp1_matches_optimized_baseline():
    acc = _Accumulator()
    data = _verify_dimension(2, 8, seed=3, acc=acc)
    for i in range(0, 8, 2):  # pure instances
        state = QuantumState.pure(data["psi"][i])
        a = Observable(data["a"][i])
        b = Observable(data["b"][i])
        res = mp_sum_bound_1(state, a, b)
        assert res.value == pytest.approx(data["mp1"][i // 2], abs=1e-8)


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify.json"


@pytest.mark.parametrize("seed", [0, 21, 42, 63])
def test_reports_match_the_benchmark_reference(seed):
    # what the benchmark's ensemble check asks of each call, read from its reference counts
    want = json.loads(REFERENCE.read_text())["seeds"][str(seed)]
    report = run_verification(1000, [2, 3, 4, 6], seed)
    assert report.ok and report.violations == []
    assert report.applicable == want["applicable"]
    assert report.undefined_fraction == want["undefined_fraction"]


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


def _loaded_with_the_cli(names) -> str:
    """Which of ``names`` are in ``sys.modules`` after ``import numpy, varbounds.cli`` in a new process."""
    src = str(Path(varbounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, numpy, varbounds.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_importing_the_cli_does_not_load_openssl():
    # hashlib (and with it OpenSSL, about 3.6 MiB of resident memory) is
    # imported only when a violation is digested
    assert _loaded_with_the_cli({"hashlib", "_hashlib"}) == "[]"


def test_importing_the_cli_generates_no_record_code():
    # the record types are plain classes: the dataclasses module would write
    # and compile their methods on every import
    assert _loaded_with_the_cli({"dataclasses"}) == "[]"


def test_merge_equals_recording_into_one():
    rng = np.random.default_rng(0)
    whole, parts = _Accumulator(), [_Accumulator(), _Accumulator(), _Accumulator()]
    for k, part in enumerate(parts):
        slack = rng.normal(scale=1e-10, size=8)
        mask = rng.random(8) < 0.5 if k else np.zeros(8, bool)  # the first part applies nowhere
        defined = rng.random(8) < 0.5
        for acc in (whole, part):
            acc.record("valid_rs_product", slack, mask, lambda i, k=k: f"{k}:{i}")
            acc.record("sandwich_sum", -slack, ~mask, lambda i, k=k: f"{k}:{i}")
            acc.count_undefined("upper_dw_variance_sum", defined, mask)
    assert whole.violations and whole.undefined["upper_dw_variance_sum"]
    merged = _Accumulator()
    for part in parts:
        merged.merge(part)
    assert vars(merged) == vars(whole)


def _report_bytes(monkeypatch, cpus, n, dims, seed):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    return render_json(run_verification(n, dims, seed))


def test_usable_cpus():
    cpus = verify._usable_cpus()
    assert cpus >= 1
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))


def test_one_cpu_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started on one CPU")

    monkeypatch.setattr(verify.threading, "Thread", no_thread)
    assert _report_bytes(monkeypatch, 1, 40, [2, 3, 4, 6], 5)


@pytest.mark.parametrize("dims", [[2, 3, 4, 6], [6, 2, 4, 3], [2, 2, 3]])
@pytest.mark.parametrize("cpus", [2, 4])
def test_report_bytes_do_not_depend_on_threads(monkeypatch, dims, cpus):
    # unsorted and duplicated dims keep their order in the report, as on one thread
    one = _report_bytes(monkeypatch, 1, 300, dims, 7)
    assert _report_bytes(monkeypatch, cpus, 300, dims, 7) == one
    report = run_verification(300, dims, 7)
    assert report.metadata["dims"] == dims
    assert report.instances == 300 * len(dims)
    assert render_json(report) == one


def test_duplicated_dims_count_twice(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    twice = run_verification(100, [2, 2, 3], 4)
    once = run_verification(100, [2, 3], 4)
    two = run_verification(100, [2], 4)
    for check, count in once.applicable.items():
        assert twice.applicable[check] == count + two.applicable[check]
    assert twice.max_slack == once.max_slack


def test_merged_violations_keep_the_order_of_dims(monkeypatch):
    # with every slack a violation, each check lists its violations dimension by dimension
    record = _Accumulator.record

    def record_all(self, check, slack, mask, digest_fn, tol=None):
        record(self, check, slack, mask, digest_fn, tol=-np.inf)

    monkeypatch.setattr(_Accumulator, "record", record_all)
    reports = [
        _report_bytes(monkeypatch, cpus, 6, [4, 2, 3, 2], 9) for cpus in (1, 2, 4)
    ]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    report = run_verification(6, [4, 2, 3, 2], 9)
    assert not report.ok
    digests = [v.digest for v in report.violations if v.check == "valid_rs_product"]
    assert len(digests) == 24


@pytest.mark.parametrize("failing", [3, 6])
def test_an_exception_reaches_the_caller(monkeypatch, failing):
    # dims (6, 3) on two threads: the caller verifies d=6 and the helper d=3
    real = verify._verify_dimension
    ran_on = {}

    def flaky(d, n, seed, acc):
        ran_on[d] = threading.current_thread()
        if d == failing:
            raise RuntimeError(f"dimension {d} failed")
        return real(d, n, seed, acc)

    monkeypatch.setattr(verify, "_verify_dimension", flaky)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    with pytest.raises(RuntimeError, match=f"^dimension {failing} failed$"):
        run_verification(20, [6, 3], 1)

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^dimension {failing} failed$"):
        run_verification(20, [6, 3], 1)
    assert threading.active_count() == before
    assert ran_on[6] is threading.current_thread()
    assert ran_on[3] is not threading.current_thread()


@pytest.mark.parametrize("cpus, ran", [(1, [2, 3]), (2, [2, 3, 4, 6])])
def test_first_failing_dimension_in_dims_order_is_raised(monkeypatch, cpus, ran):
    # on two threads the caller verifies d=6 and the helper 4, 3 and 2: a failure at d=4
    # must not keep d=3 from running, or d=4's error would be raised instead of d=3's
    real = verify._verify_dimension
    calls = []

    def failing(d, n, seed, acc):
        calls.append(d)
        if d in (3, 4):
            raise ValueError(f"d={d}")
        return real(d, n, seed, acc)

    monkeypatch.setattr(verify, "_verify_dimension", failing)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    with pytest.raises(ValueError, match="^d=3$"):
        run_verification(5, [2, 3, 4, 6], 0)
    assert sorted(calls) == ran


def test_at_most_one_helper_thread_verifies_each_dimension_once(monkeypatch):
    # eight CPUs and a short switch interval: still one helper, and a dimension taken twice
    # or lost between the threads changes the call count or the report
    dims = [2, 3, 4, 2, 5, 3, 6, 2, 4, 3, 2, 5]
    one = _report_bytes(monkeypatch, 1, 12, dims, 3)
    real = verify._verify_dimension
    calls = []
    started = []

    def counted(d, n, seed, acc):
        calls.append(d)
        return real(d, n, seed, acc)

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(verify, "_verify_dimension", counted)
    monkeypatch.setattr(verify.threading, "Thread", CountedThread)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            started.clear()
            assert _report_bytes(monkeypatch, 8, 12, dims, 3) == one
            assert sorted(calls) == sorted(dims)
            assert len(started) == 1
    finally:
        sys.setswitchinterval(interval)
