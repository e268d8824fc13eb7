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

A sweep is one stack: the family's builder maps the theta grid to (n, d)
state vectors in one pass, one :class:`~varbounds.moments.Instance`
normalizes them and serves each requested bound's formula, called once, and
``render_csv`` writes each row with one join.  :func:`compute_instance`, and
a config file's ``[state] family`` or ``bloch``, are one-row calls of the
same code, so each row has the bits of its state alone.  Every bound a
sweep offers is in closed form, so no sweep runs a search.
``optimized_product`` and ``optimized_sum`` are the basis bounds at the
witness basis of :func:`varbounds.optimize.optimize_product_bound` and
:func:`~varbounds.optimize.optimize_sum_bound`: Var A * Var B and
(Delta A + Delta B)^2 / 2.  A sweep draws no random numbers.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__ as _pkg_version
from ._record import FrozenRecord, Record
from .errors import ConfigError, UnknownBoundId, UnknownPreset
from .linalg import (
    Observable,
    QuantumState,
    pauli_operators,
    pure_bloch_vectors,
    row_dots,
    spin1_operators,
)
from .lower_bounds import (
    basis_product,
    basis_sum,
    fidelity_product,
    mp_sum_1,
    mp_sum_2,
    parallelogram_sum,
    rs_product,
)
from .moments import Instance, first_row
from .optimize import optimized_product, optimized_sum
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


def _spin1_family(thetas: list) -> np.ndarray:
    return np.array([(math.cos(t), -math.sin(t), 0.0) for t in thetas], dtype=np.complex128)


def _bloch_family(thetas: list) -> np.ndarray:
    r = np.array([(math.cos(t / 2.0), math.sqrt(3.0) / 2.0 * math.sin(t / 2.0), 0.5 * math.sin(t / 2.0))
                  for t in thetas])
    return pure_bloch_vectors(r, np.sqrt(row_dots(r)))


STATE_FAMILIES = {
    "spin1_cos_sin": (3, _spin1_family),
    "qubit_bloch_fig3": (2, _bloch_family),
}


def state_family(name: str):
    """(dimension, builder) of a family; the builder maps a theta list to unnormalized (n, d) vectors."""
    try:
        return STATE_FAMILIES[name]
    except KeyError:
        raise ConfigError(f"unknown state family {name!r}") from None


class _BoundDef(FrozenRecord):
    _fields = ("target", "upper", "pure_only", "compute")

    def __init__(self, target: str, upper: bool, pure_only: bool, compute):
        # target: "product" | "sum" | "dev_sum"; compute: (Instance) -> BoundArrays,
        # the basis bounds in the standard basis
        self.__dict__.update(target=target, upper=upper, pure_only=pure_only, compute=compute)


BOUNDS = {
    "rs_product": _BoundDef("product", False, False, rs_product),
    "basis_product": _BoundDef("product", False, True, basis_product),
    "fidelity_product": _BoundDef("product", False, False, fidelity_product),
    "parallelogram_sum": _BoundDef("sum", False, False, parallelogram_sum),
    "basis_sum": _BoundDef("sum", False, True, basis_sum),
    "mp_sum_1": _BoundDef("sum", False, True, mp_sum_1),
    "mp_sum_2": _BoundDef("sum", False, True, mp_sum_2),
    "reverse_fidelity_product": _BoundDef("product", True, False, reverse_fidelity_product),
    "reverse_basis_product": _BoundDef("product", True, True, reverse_basis_product),
    "dw_deviation_sum": _BoundDef("dev_sum", True, False, dw_deviation_sum),
    "dw_variance_sum": _BoundDef("sum", True, False, dw_variance_sum),
    "optimized_product": _BoundDef("product", False, True, optimized_product),
    "optimized_sum": _BoundDef("sum", False, True, optimized_sum),
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


class SweepSpec(Record):
    """What to sweep: preset or custom family/observables, grid, bounds.

    ``bounds`` None takes the preset's defaults and () is exact-only;
    ``observables`` is a pair of Observables, for custom presets only.
    """

    _fields = ("preset", "theta_start", "theta_stop", "theta_count", "bounds", "observables",
               "state_family")

    def __init__(self, preset: str = "custom", theta_start: float = 0.0,
                 theta_stop: float = math.pi, theta_count: int = 181, bounds: tuple | None = None,
                 observables: tuple | None = None, state_family: str | None = None):
        if theta_count < 2:
            raise ConfigError("theta grid needs at least 2 points")
        if not (math.isfinite(theta_start) and math.isfinite(theta_stop)):
            raise ConfigError(f"theta grid needs finite ends, got {theta_start!r} to {theta_stop!r}")
        if not math.isfinite(theta_stop - theta_start):  # the grid's step would overflow
            raise ConfigError(f"theta grid needs a finite span, got {theta_start!r} to {theta_stop!r}")
        self.preset = preset
        self.theta_start = theta_start
        self.theta_stop = theta_stop
        self.theta_count = theta_count
        self.bounds = bounds
        self.observables = observables
        self.state_family = state_family


class SweepTable(Record):
    _fields = ("columns", "rows", "metadata")

    def __init__(self, columns: tuple, rows: list, metadata: dict):
        self.columns = columns
        self.rows = rows
        self.metadata = metadata

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

    thetas = np.linspace(spec.theta_start, spec.theta_stop, spec.theta_count).tolist()
    inst = Instance(build(thetas), obs_a, obs_b)
    ms = inst.moments
    dev_sum = ms.std_a + ms.std_b

    columns = ["theta", "exact_product", "exact_sum"]
    cells = [thetas, (ms.var_a * ms.var_b).tolist(), (ms.var_a + ms.var_b).tolist()]
    need_dev = "dw_deviation_sum" in bound_ids
    if need_dev:
        columns.append("exact_dev_sum")
        cells.append(dev_sum.tolist())
    for bid in bound_ids:
        columns.extend([bid, bid + "_status"])
        cells.extend(BOUNDS[bid].compute(inst).cells())
    if need_dev:
        # weaker corollary Delta(A-B) as a non-universal comparison column
        delta_diff = np.sqrt(ms.var_diff)
        columns.extend(["delta_a_minus_b", "delta_a_minus_b_status"])
        cells.extend([delta_diff.tolist(),
                      np.where(delta_diff >= dev_sum - 1e-12, "holds", "fails").tolist()])
    rows = [list(row) for row in zip(*cells)]

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
            "product": first_row(ms.var_a * ms.var_b),
            "sum": first_row(ms.var_a + ms.var_b),
            "dev_sum": first_row(ms.std_a + ms.std_b),
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
        (value,), (status,) = bdef.compute(inst).cells()
        out["bounds"][bid] = {
            "value": value,
            "defined": value is not None,
            "status": status,
            "target": bdef.target,
            "upper": bdef.upper,
        }
    return out
