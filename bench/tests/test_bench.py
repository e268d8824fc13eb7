"""Tests of the benchmark's own code: spans, statistics, checks, inputs.

    python3 -m pytest bench/tests
"""

import importlib
import json
import time

import numpy as np
import pytest

import layers
import run
import speed
import tracing
import varbounds
from workloads import (REFERENCE, Ensemble, Figures, Search, VERIFY_N, compare_csv,
                       instance_items, observable_pairs, rng_for, search_ok)


# -- self time -------------------------------------------------------------------
def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_traced_call_links_parents_and_self_times_add_up():
    tracer = tracing.Tracer()
    targets = layers.targets({m: importlib.import_module(f"varbounds.{m}") for m in layers.MODULES})
    moments = importlib.import_module("varbounds.moments")
    original = moments.expectation
    sx, _, _ = varbounds.pauli_operators()
    state = varbounds.QuantumState.pure([0.6, 0.8])
    tracer.install(targets)
    try:
        tracer.current_item = 0
        root = tracer.open("harness.call", "harness")
        moments.variance(state, sx)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert moments.expectation is original
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names[:3] == ["harness.call", "moments.variance", "moments.expectation"]
    assert spans["parent"][:3].tolist() == [-1, 0, 1]
    assert set(spans["item"].tolist()) == {0}
    own = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    assert (own >= 0).all()
    assert np.isclose(own.sum(), spans["end"][0] - spans["start"][0])


def test_closures_are_listed_as_not_wrapped():
    found = tracing.unwrappable([varbounds.optimize, varbounds.sweep])
    assert "optimize._optimize_over_bases.<locals>.make_reward (closure)" in found
    assert any(f.startswith("sweep.BOUNDS[") for f in found)


# -- tail percentile ---------------------------------------------------------------
def test_tail_keeps_ten_samples_beyond_it():
    value, pct, n = run.tail(np.arange(1.0, 101.0))
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = run.tail(np.arange(1.0, 12.0))
    assert value == 1.0 and n == 11


def test_latency_samples_share_a_call_over_its_items():
    samples = run.latency_samples([(0.004, 4, 0), (0.002, 1, 0)])
    assert np.allclose(samples, [1.0, 2.0])


# -- host-speed scaling -------------------------------------------------------------
class _SleepingWorkload:
    round_calls, items = 2, 3

    def call(self, i):
        time.sleep(0.01)
        return i

    def check(self, i, out):
        return 0


class _SlowHost:
    """A probe whose kernel takes twice its nominal time."""

    nominal = 1.0
    scale = speed.Probe.scale

    def between(self):
        return 2.0


def test_call_times_are_scaled_to_nominal_host_speed():
    records = run.timed_loop(_SleepingWorkload(), _SlowHost(), calls=2)
    assert len(records) == 2
    for scaled, items, failed, measured in records:
        assert (items, failed) == (3, 0) and measured >= 0.01
        assert scaled == pytest.approx(measured / 2)


def test_probe_kernels_run_and_are_timed():
    for kind in speed.KERNELS:
        probe = speed.Probe(kind)
        assert probe.between() > 0
        assert probe.scale(probe.nominal, probe.nominal) == 1.0


# -- correctness checks ------------------------------------------------------------
def _corrupt(text: str, row: int, col: int, scale: float) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * scale)
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_corrupted_reference_cell_fails_one_row():
    ref = (REFERENCE / "fig1.csv").read_text()
    wl = Figures.__new__(Figures)
    wl.order = ("fig1",)
    wl.reference = {"fig1": _corrupt(ref, 3, 5, 1.0 + 1e-8)}
    assert wl.check(0, ("fig1", (0, ref))) == 1
    wl.reference = {"fig1": _corrupt(ref, 3, 5, 1.0 + 1e-14)}  # ulp-level drift passes
    assert wl.check(0, ("fig1", (0, ref))) == 0
    assert wl.check(0, ("fig1", (2, ref))) == Figures.items


def test_changed_status_cell_fails_its_row():
    ref = (REFERENCE / "fig3.csv").read_text()
    changed = ref.replace(",ok", ",undefined", 1)
    assert compare_csv(changed, ref) == [2]  # row 1 is undefined, row 2 the first "ok"
    assert compare_csv(ref.replace("theta", "angle"), ref) == list(range(1, 10))


def test_ensemble_counts_mismatch_fails_the_call():
    ref = json.loads((REFERENCE / "verify.json").read_text())["seeds"]["3"]
    report = {"ok": True, "violations": [], "applicable": dict(ref["applicable"]),
              "undefined_fraction": ref["undefined_fraction"]}
    wl = Ensemble.__new__(Ensemble)
    wl.reference = {"seeds": {"3": ref}}
    assert wl.check(0, (3, (0, json.dumps(report)))) == 0
    report["applicable"]["sandwich_sum"] -= 1
    assert wl.check(0, (3, (0, json.dumps(report)))) == 4 * VERIFY_N


# -- seeded inputs -------------------------------------------------------------------
def _instance_bytes(seed: int) -> bytes:
    rng = rng_for("instances", seed)
    pairs = observable_pairs(rng)
    items = instance_items(rng, pairs)
    return b"".join([a.tobytes() + b.tobytes() for a, b in pairs]
                    + [f"{j}{k}".encode() + s.tobytes() for j, k, s in items])


def _search_bytes(seed: int, tmp_path) -> bytes:
    wl = Search({"cli": None}, seed, tmp_path)
    return b"".join(open(wl.pool[j][0], "rb").read() + wl.pool[j][1].encode() for j in wl.order)


def test_same_seed_same_inputs(tmp_path):
    assert _instance_bytes(5) == _instance_bytes(5)
    assert _instance_bytes(5) != _instance_bytes(6)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _search_bytes(5, tmp_path / "a") == _search_bytes(5, tmp_path / "b")
    assert _search_bytes(5, tmp_path / "a") != _search_bytes(6, tmp_path / "b")


def test_search_check_fails_a_worse_optimum(tmp_path):
    wl = Search({"cli": None}, 1, tmp_path)
    assert len(wl.reference) == len(wl.pool)
    exact = {"product": 2.0, "sum": 3.0}
    assert search_ok("product", 1.5, exact, 1.5)
    assert search_ok("product", 1.6, exact, 1.5)  # a better optimum passes
    assert not search_ok("product", 1.5, exact, 1.5 + 1e-8)  # stopped short of the reference
    assert not search_ok("product", 2.0 + 1e-8, exact, 1.5)  # above the exact value
    assert search_ok("reverse_product", 2.5, exact, 2.5)
    assert not search_ok("reverse_product", 2.5, exact, 2.4)
    assert not search_ok("reverse_product", float("inf"), exact, 2.5)
    assert search_ok("reverse_product", float("inf"), exact, float("inf"))
    assert not search_ok("reverse_product", 1.9, exact, float("inf"))  # below the exact value
    j = wl.order[0]
    objective = wl.pool[j][1].partition(".")[2]
    text = json.dumps({"best_value": float(wl.reference[j])})
    assert wl.check(0, (0, text)) == 0
    worse = float(wl.reference[j]) * (1 - 1e-6 if objective != "reverse_product" else 1 + 1e-6)
    assert wl.check(0, (0, json.dumps({"best_value": worse}))) == 1


def test_search_config_round_trips_through_the_parser(tmp_path):
    from varbounds.config import load_instance, parse_config

    wl = Search({"cli": None}, 1, tmp_path)
    path, kind, exact = wl.pool[0]
    assert kind == "d2.product"
    state, a, b = load_instance(parse_config(open(path).read()))
    va = varbounds.variance(state, a)
    vb = varbounds.variance(state, b)
    assert np.isclose(va * vb, exact["product"], rtol=1e-12, atol=1e-14)
