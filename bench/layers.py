"""Which varbounds functions are traced, and the per-layer metrics built from them.

A layer is one module of ``src/varbounds``.  Its metrics are named
``<layer>.<quantity>``; ``_jacobi`` appears as ``jacobi`` because metric
names start with a letter.  Metrics cover the traced timed phase, except
``*.setup_*``, which cover the traced set-up.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from tracing import SETUP_ID, Target, self_times

MODULES = ("_jacobi", "linalg", "moments", "lower_bounds", "upper_bounds", "optimize",
           "sweep", "verify", "random_ensembles", "reporting", "config", "cli")

# Called by other modules or by users but missing from the module's __all__.
EXTRA_PUBLIC = {
    "_jacobi": ("hermitian_eigh", "require_hermitian"),
    "optimize": ("synthesize_unitaries",),
    "cli": ("main",),
}
CLASSES = {"linalg": ("Observable", "QuantumState", "OrthonormalBasis")}

LOWER = {"rs_product": "rs_product_bound", "basis_product": "basis_product_bound",
         "basis_sum": "basis_sum_bound", "fidelity_product": "fidelity_product_bound",
         "parallelogram_sum": "parallelogram_sum_bound", "mp_sum_1": "mp_sum_bound_1",
         "mp_sum_2": "mp_sum_bound_2"}
UPPER = {b: b + "_bound" for b in ("reverse_fidelity_product", "reverse_basis_product",
                                   "dw_deviation_sum", "dw_variance_sum")}
SEARCHES = ("optimize_product_bound", "optimize_sum_bound", "optimize_reverse_product_bound")
PRESETS = ("fig1", "fig2", "fig3", "fig4")


def _matrices(args, kwargs, result, seconds):
    shape = np.shape(args[0])
    return {"jacobi.matrices": math.prod(shape[:-2])}


def _undefined(bound):
    return lambda args, kwargs, result, seconds: {f"upper_bounds.{bound}.undefined": int(not result.defined)}


def _search(args, kwargs, result, seconds):
    return {"optimize.evaluations": result.evaluations, "optimize.converged": int(result.converged)}


def _unitaries(args, kwargs, result, seconds):
    return {"optimize.unitaries_synthesized": result.shape[0]}


def _sweep(args, kwargs, result, seconds):
    spec = args[0] if args else kwargs["spec"]
    return {"sweep.rows": len(result.rows), f"sweep.{spec.preset}.wall_s": seconds}


def _verify(args, kwargs, result, seconds):
    return {"verify.instances": result.instances}


def _bytes(args, kwargs, result, seconds):
    return {"reporting.bytes": len(result.encode())}


COUNTERS = {
    ("_jacobi", "hermitian_eigh"): _matrices,
    ("optimize", "synthesize_unitaries"): _unitaries,
    ("sweep", "run_sweep"): _sweep,
    ("verify", "run_verification"): _verify,
    ("reporting", "render_csv"): _bytes,
    ("reporting", "render_json"): _bytes,
    **{("upper_bounds", func): _undefined(bound) for bound, func in UPPER.items()},
    **{("optimize", func): _search for func in SEARCHES},
}


def targets(vb: dict) -> list[Target]:
    """Public functions and constructors of every layer, from their defining module."""
    out = []
    for module in MODULES:
        mod = vb[module]
        names = [n for n in (*getattr(mod, "__all__", ()), *EXTRA_PUBLIC.get(module, ()))
                 if inspect.isfunction(getattr(mod, n, None))
                 and getattr(mod, n).__module__ == mod.__name__]
        for name in dict.fromkeys(names):
            out.append(Target(module.lstrip("_"), mod, name, COUNTERS.get((module, name))))
        for cls in CLASSES.get(module, ()):
            out.append(Target(module.lstrip("_"), getattr(mod, cls), "__init__"))
    return out


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "jacobi.calls": "count", "jacobi.matrices": "count", "jacobi.self_s": "s",
        "jacobi.us_per_matrix": "us", "jacobi.setup_matrices": "count", "jacobi.setup_s": "s",
        "linalg.observables_built": "count", "linalg.states_built": "count", "linalg.self_s": "s",
        "linalg.setup_observables_built": "count", "linalg.setup_s": "s",
        "moments.calls": "count", "moments.self_s": "s",
        "lower_bounds.self_s": "s",
    }
    for bound in LOWER:
        units[f"lower_bounds.{bound}.calls"] = "count"
        units[f"lower_bounds.{bound}.self_s"] = "s"
    units["upper_bounds.self_s"] = "s"
    for bound in UPPER:
        units[f"upper_bounds.{bound}.calls"] = "count"
        units[f"upper_bounds.{bound}.self_s"] = "s"
        units[f"upper_bounds.{bound}.undefined"] = "count"
    units.update({
        "optimize.searches": "count", "optimize.evaluations": "count",
        "optimize.converged_frac": "ratio", "optimize.unitaries_synthesized": "count",
        "optimize.synthesize.self_s": "s", "optimize.perp_searches": "count",
        "optimize.self_s": "s",
        "sweep.rows": "count", "sweep.self_s": "s",
        **{f"sweep.{p}.wall_s": "s" for p in PRESETS},
        "verify.instances": "count", "verify.self_s": "s",
        "random_ensembles.self_s": "s",
        "reporting.bytes": "B", "reporting.self_s": "s",
        "config.self_s": "s", "cli.self_s": "s", "harness.self_s": "s",
        "trace.overhead_frac": "ratio", "trace.spans": "count",
    })
    return units


def per_layer(tracer, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of a traced run."""
    counters = tracer.counters
    spans = tracer.arrays()
    names = np.array(tracer.names + [""])
    layers = np.array(tracer.layer_of + [""])
    own = self_times(spans["start"], spans["end"], spans["parent"])
    timed = spans["item"] != SETUP_ID
    span_name = names[spans["name_id"]]
    span_layer = layers[spans["name_id"]]

    def self_s(mask):
        return float(own[mask].sum())

    def calls(name):
        return int(np.count_nonzero(timed & (span_name == name)))

    m = {
        "jacobi.calls": calls("jacobi.hermitian_eigh"),
        "jacobi.matrices": counters.get("jacobi.matrices", 0),
        "jacobi.self_s": self_s(timed & (span_layer == "jacobi")),
        "jacobi.setup_matrices": tracer.setup_counters.get("jacobi.matrices", 0),
        "jacobi.setup_s": self_s(~timed & (span_layer == "jacobi")),
        "linalg.observables_built": calls("linalg.Observable"),
        "linalg.states_built": calls("linalg.QuantumState"),
        "linalg.self_s": self_s(timed & (span_layer == "linalg")),
        "linalg.setup_observables_built": int(np.count_nonzero(~timed & (span_name == "linalg.Observable"))),
        "linalg.setup_s": self_s(~timed & (span_layer == "linalg")),
        "moments.calls": int(np.count_nonzero(timed & (span_layer == "moments"))),
        "moments.self_s": self_s(timed & (span_layer == "moments")),
        "lower_bounds.self_s": self_s(timed & (span_layer == "lower_bounds")),
    }
    m["jacobi.us_per_matrix"] = 1e6 * m["jacobi.self_s"] / m["jacobi.matrices"] if m["jacobi.matrices"] else 0.0
    for bound, func in LOWER.items():
        m[f"lower_bounds.{bound}.calls"] = calls(f"lower_bounds.{func}")
        m[f"lower_bounds.{bound}.self_s"] = self_s(timed & (span_name == f"lower_bounds.{func}"))
    m["upper_bounds.self_s"] = self_s(timed & (span_layer == "upper_bounds"))
    for bound, func in UPPER.items():
        m[f"upper_bounds.{bound}.calls"] = calls(f"upper_bounds.{func}")
        m[f"upper_bounds.{bound}.self_s"] = self_s(timed & (span_name == f"upper_bounds.{func}"))
        m[f"upper_bounds.{bound}.undefined"] = counters.get(f"upper_bounds.{bound}.undefined", 0)
    searches = sum(calls(f"optimize.{f}") for f in SEARCHES)
    m.update({
        "optimize.searches": searches,
        "optimize.evaluations": counters.get("optimize.evaluations", 0),
        "optimize.converged_frac": counters.get("optimize.converged", 0) / searches if searches else 0.0,
        "optimize.unitaries_synthesized": counters.get("optimize.unitaries_synthesized", 0),
        "optimize.synthesize.self_s": self_s(timed & (span_name == "optimize.synthesize_unitaries")),
        "optimize.perp_searches": calls("optimize.optimize_perp_state"),
        "optimize.self_s": self_s(timed & (span_layer == "optimize")),
        "sweep.rows": counters.get("sweep.rows", 0),
        "sweep.self_s": self_s(timed & (span_layer == "sweep")),
        **{f"sweep.{p}.wall_s": counters.get(f"sweep.{p}.wall_s", 0.0) for p in PRESETS},
        "verify.instances": counters.get("verify.instances", 0),
        "verify.self_s": self_s(timed & (span_layer == "verify")),
        "random_ensembles.self_s": self_s(timed & (span_layer == "random_ensembles")),
        "reporting.bytes": counters.get("reporting.bytes", 0),
        "reporting.self_s": self_s(timed & (span_layer == "reporting")),
        "config.self_s": self_s(timed & (span_layer == "config")),
        "cli.self_s": self_s(timed & (span_layer == "cli")),
        "harness.self_s": self_s(timed & (span_layer == "harness")),
        "trace.overhead_frac": overhead_frac,
        "trace.spans": int(np.count_nonzero(timed)),
    })
    return {k: m[k] for k in metric_units()}


def shares(tracer, kind_of) -> dict:
    """Self time per layer, as a share of the traced calls' time, overall and per kind.

    ``kind_of(i)`` names call ``i`` (a preset, a state kind, ``d4.sum``).
    """
    spans = tracer.arrays()
    layers = np.array(tracer.layer_of)[spans["name_id"]]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    roots = (spans["parent"] == -1) & (spans["item"] != SETUP_ID)
    call_kind = {int(i): kind_of(int(i)) for i in np.unique(spans["item"][roots])}
    kinds = np.array([call_kind.get(int(i), "setup") for i in spans["item"]])
    out = {}
    for kind in ["all", *sorted(set(call_kind.values()))]:
        mask = (kinds != "setup") if kind == "all" else (kinds == kind)
        wall = float((spans["end"] - spans["start"])[roots & mask].sum())
        out[kind] = {"wall_s": wall, **{
            layer: float(own[mask & (layers == layer)].sum()) / wall
            for layer in dict.fromkeys(tracer.layer_of)}}
    return out
