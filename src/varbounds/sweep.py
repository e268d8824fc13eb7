"""Parameter sweeps reproducing the four figure experiments as tables.

A sweep walks a theta grid through a named one-parameter state family,
evaluates the requested bounds against the exact variance product/sum, and
collects everything into a :class:`SweepTable` ready for CSV/JSON export.

Presets:

* ``fig1`` - spin-1 (Lx, Ly), state family cos(theta)|1> - sin(theta)|0>,
  product bounds (Robertson-Schrodinger, fidelity, basis-optimized);
* ``fig2`` - same family, sum bounds (parallelogram + the two
  perpendicular-state baselines);
* ``fig3`` - qubit (sigma_x, sigma_z) on the Bloch-circle family, reverse
  fidelity product bound;
* ``fig4`` - same family, Dunkl-Williams variance-sum bound.

Each row builds one :class:`~varbounds.moments.Instance` and evaluates
every requested bound on it, so the moments, deviation vectors and
fidelity sequences of a row are computed once; :func:`compute_instance`
does the same for one call.  Every bound a sweep offers is in closed form,
so no sweep runs a search.
``optimized_product`` and ``optimized_sum`` are the basis bounds at the
witness basis of :func:`varbounds.optimize.optimize_product_bound` and
:func:`~varbounds.optimize.optimize_sum_bound`: Var A * Var B and
(Delta A + Delta B)^2 / 2.  A sweep draws no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__ as _pkg_version
from .errors import ConfigError, UnknownBoundId, UnknownPreset
from .linalg import (
    Observable,
    OrthonormalBasis,
    QuantumState,
    pauli_operators,
    qubit_state_from_bloch,
    spin1_operators,
)
from .lower_bounds import (
    BoundResult,
    basis_product,
    basis_sum,
    fidelity_product,
    mp_sum_1,
    mp_sum_2,
    parallelogram_sum,
    rs_product,
)
from .moments import Instance
from .optimize import product_optimum, sum_optimum
from .upper_bounds import (
    dw_deviation_sum,
    dw_variance_sum,
    reverse_basis_product,
    reverse_fidelity_product,
)

__all__ = [
    "BOUND_IDS",
    "SweepSpec",
    "SweepTable",
    "compute_instance",
    "run_sweep",
    "state_family",
]

SIGMA2_NOTE = "the qubit family's sigma_2 component is read as sigma_y"


def _spin1_family(theta: float) -> QuantumState:
    return QuantumState.pure([math.cos(theta), -math.sin(theta), 0.0])


def _bloch_family(theta: float) -> QuantumState:
    return qubit_state_from_bloch([
        math.cos(theta / 2.0),
        math.sqrt(3.0) / 2.0 * math.sin(theta / 2.0),
        0.5 * math.sin(theta / 2.0),
    ])


STATE_FAMILIES = {
    "spin1_cos_sin": (3, _spin1_family),
    "qubit_bloch_fig3": (2, _bloch_family),
}


def state_family(name: str):
    """Return (dimension, builder) of a registered one-parameter family."""
    try:
        return STATE_FAMILIES[name]
    except KeyError:
        raise ConfigError(f"unknown state family {name!r}") from None


@dataclass(frozen=True)
class _BoundDef:
    target: str  # "product" | "sum" | "dev_sum"
    upper: bool
    pure_only: bool
    compute: object  # (Instance) -> BoundResult


def _std_basis(inst):
    return OrthonormalBasis.standard(inst.dim)


def _from_report(kind, report):
    return BoundResult(kind=kind, value=report.best_value)


BOUNDS = {
    "rs_product": _BoundDef("product", False, False, rs_product),
    "basis_product": _BoundDef("product", False, True,
                               lambda inst: basis_product(inst, _std_basis(inst))),
    "fidelity_product": _BoundDef("product", False, False, fidelity_product),
    "parallelogram_sum": _BoundDef("sum", False, False, parallelogram_sum),
    "basis_sum": _BoundDef("sum", False, True, lambda inst: basis_sum(inst, _std_basis(inst))),
    "mp_sum_1": _BoundDef("sum", False, True, mp_sum_1),
    "mp_sum_2": _BoundDef("sum", False, True, mp_sum_2),
    "reverse_fidelity_product": _BoundDef("product", True, False, reverse_fidelity_product),
    "reverse_basis_product": _BoundDef("product", True, True,
                                       lambda inst: reverse_basis_product(inst, _std_basis(inst))),
    "dw_deviation_sum": _BoundDef("dev_sum", True, False, dw_deviation_sum),
    "dw_variance_sum": _BoundDef("sum", True, False, dw_variance_sum),
    "optimized_product": _BoundDef("product", False, True,
                                   lambda inst: _from_report("optimized_product", product_optimum(inst))),
    "optimized_sum": _BoundDef("sum", False, True,
                               lambda inst: _from_report("optimized_sum", sum_optimum(inst))),
}

BOUND_IDS = tuple(BOUNDS)


_PRESETS = {
    "fig1": {
        "family": "spin1_cos_sin",
        "observables": ("spin1_lx", "spin1_ly"),
        "bounds": ("rs_product", "fidelity_product", "optimized_product"),
    },
    "fig2": {
        "family": "spin1_cos_sin",
        "observables": ("spin1_lx", "spin1_ly"),
        "bounds": ("parallelogram_sum", "mp_sum_1", "mp_sum_2"),
    },
    "fig3": {
        "family": "qubit_bloch_fig3",
        "observables": ("pauli_x", "pauli_z"),
        "bounds": ("reverse_fidelity_product",),
    },
    "fig4": {
        "family": "qubit_bloch_fig3",
        "observables": ("pauli_x", "pauli_z"),
        "bounds": ("dw_variance_sum",),
    },
}

NAMED_OBSERVABLES = {}


def named_observable(name: str) -> Observable:
    if not NAMED_OBSERVABLES:
        lx, ly, lz = spin1_operators()
        sx, sy, sz = pauli_operators()
        NAMED_OBSERVABLES.update({
            "spin1_lx": lx, "spin1_ly": ly, "spin1_lz": lz,
            "pauli_x": sx, "pauli_y": sy, "pauli_z": sz,
        })
    try:
        return NAMED_OBSERVABLES[name]
    except KeyError:
        raise ConfigError(f"unknown named observable {name!r}") from None


@dataclass
class SweepSpec:
    """What to sweep: preset or custom family/observables, grid, bounds."""

    preset: str = "custom"
    theta_start: float = 0.0
    theta_stop: float = math.pi
    theta_count: int = 181
    bounds: tuple | None = None  # None: preset defaults; () is exact-only
    observables: tuple | None = None  # pair of Observables, custom presets only
    state_family: str | None = None

    def __post_init__(self):
        if self.theta_count < 2:
            raise ConfigError("theta grid needs at least 2 points")


@dataclass
class SweepTable:
    columns: tuple
    rows: list
    metadata: dict

    def column(self, name: str) -> np.ndarray:
        """A column as floats with NaN standing in for undefined cells."""
        i = self.columns.index(name)
        return np.array(
            [np.nan if row[i] is None else row[i] for row in self.rows], dtype=float
        )

    def status_column(self, name: str) -> list:
        i = self.columns.index(name + "_status")
        return [row[i] for row in self.rows]

    def to_json_dict(self) -> dict:
        return {"metadata": self.metadata, "columns": list(self.columns),
                "rows": [list(r) for r in self.rows]}


def _resolve(spec: SweepSpec):
    if spec.preset in _PRESETS:
        p = _PRESETS[spec.preset]
        family = p["family"]
        obs_names = p["observables"]
        obs = (named_observable(obs_names[0]), named_observable(obs_names[1]))
        bounds = p["bounds"] if spec.bounds is None else tuple(spec.bounds)
        return family, obs_names, obs, bounds
    if spec.preset != "custom":
        raise UnknownPreset(f"unknown preset {spec.preset!r}")
    if spec.state_family is None or spec.observables is None:
        raise ConfigError("custom sweeps need state_family and observables")
    family = spec.state_family
    obs = tuple(spec.observables)
    bounds = tuple(spec.bounds) if spec.bounds is not None else ()
    return family, ("custom_a", "custom_b"), obs, bounds


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the requested bounds over the theta grid of a sweep spec."""
    family_name, obs_names, (obs_a, obs_b), bound_ids = _resolve(spec)
    for bid in bound_ids:
        if bid not in BOUNDS:
            raise UnknownBoundId(f"unknown bound id {bid!r}")
    dim, build = state_family(family_name)
    if obs_a.dim != dim or obs_b.dim != dim:
        raise ConfigError("observable dimension does not match the state family")

    thetas = np.linspace(spec.theta_start, spec.theta_stop, spec.theta_count)

    columns = ["theta", "exact_product", "exact_sum"]
    need_dev = "dw_deviation_sum" in bound_ids
    if need_dev:
        columns.append("exact_dev_sum")
    for bid in bound_ids:
        columns.extend([bid, bid + "_status"])
    if need_dev:
        columns.extend(["delta_a_minus_b", "delta_a_minus_b_status"])

    rows = []
    for theta in thetas:
        inst = Instance(build(float(theta)), obs_a, obs_b)
        ms = inst.moments
        row = [float(theta), ms.var_a * ms.var_b, ms.var_a + ms.var_b]
        dev_sum = ms.std_a + ms.std_b
        if need_dev:
            row.append(dev_sum)
        for bid in bound_ids:
            res = BOUNDS[bid].compute(inst)
            if res.defined:
                row.extend([float(res.value), "ok"])
            else:
                row.extend([None, res.reason])
        if need_dev:
            # weaker corollary Delta(A-B) as a non-universal comparison column
            delta_diff = math.sqrt(max(ms.var_a + ms.var_b - 2.0 * ms.cov, 0.0))
            row.extend([delta_diff, "holds" if delta_diff >= dev_sum - 1e-12 else "fails"])
        rows.append(row)

    metadata = {
        "preset": spec.preset,
        "state_family": family_name,
        "observables": list(obs_names),
        "theta_start": spec.theta_start,
        "theta_stop": spec.theta_stop,
        "theta_count": spec.theta_count,
        "bounds": list(bound_ids),
        "sigma2_reading": SIGMA2_NOTE,
        "versions": {"varbounds": _pkg_version, "numpy": np.__version__},
    }
    if "delta_a_minus_b" in columns:
        metadata["delta_a_minus_b_note"] = (
            "upper-bounds the deviation sum only in non-trivial cases; "
            "see the per-row status column"
        )
    table = SweepTable(columns=tuple(columns), rows=rows, metadata=metadata)
    for bid in ("optimized_product", "optimized_sum"):
        if bid in bound_ids:
            exact = table.column("exact_product" if bid == "optimized_product" else "exact_sum")
            gap = exact - table.column(bid)
            metadata[bid + "_gap"] = {"min": float(np.nanmin(gap)), "max": float(np.nanmax(gap))}
    return table


def compute_instance(state: QuantumState, obs_a: Observable, obs_b: Observable,
                     bounds: tuple | None = None) -> dict:
    """All (applicable) bounds for a single state/observable-pair instance."""
    bound_ids = tuple(bounds) if bounds is not None else BOUND_IDS
    for bid in bound_ids:
        if bid not in BOUNDS:
            raise UnknownBoundId(f"unknown bound id {bid!r}")
    inst = Instance(state, obs_a, obs_b)
    ms = inst.moments
    out = {
        "exact": {
            "product": ms.var_a * ms.var_b,
            "sum": ms.var_a + ms.var_b,
            "dev_sum": ms.std_a + ms.std_b,
        },
        "bounds": {},
    }
    for bid in bound_ids:
        bdef = BOUNDS[bid]
        if bdef.pure_only and not state.is_pure:
            out["bounds"][bid] = {"value": None, "defined": False,
                                  "status": "mixed state unsupported",
                                  "target": bdef.target, "upper": bdef.upper}
            continue
        res = bdef.compute(inst)
        out["bounds"][bid] = {
            "value": float(res.value) if res.defined else None,
            "defined": res.defined,
            "status": "ok" if res.defined else res.reason,
            "target": bdef.target,
            "upper": bdef.upper,
        }
    return out
