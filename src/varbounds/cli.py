"""Command-line front end: compute, sweep, verify, optimize.

Exit codes: 0 on success, 1 when verification finds an invariant violation,
2 for usage/config errors.  ``VARBOUNDS_OUT`` supplies a default output
directory for bare ``--out`` file names.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import (
    load_instance,
    load_sweep_spec,
    parse_config,
)
from .errors import VarboundsError
from .optimize import (
    OptimizerConfig,
    optimize_product_bound,
    optimize_reverse_product_bound,
    optimize_sum_bound,
)
from .reporting import emit, format_float, render_json, resolve_out_path
from .sweep import SweepSpec, compute_instance, run_sweep
from .verify import run_verification

_OBJECTIVES = {
    "product": optimize_product_bound,
    "sum": optimize_sum_bound,
    "reverse_product": optimize_reverse_product_bound,
}


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    base = OptimizerConfig()
    parser.add_argument("--restarts", type=int, default=None, help=f"random restarts (default {base.restarts})")
    parser.add_argument("--max-evals", type=int, default=None, help="objective evaluation budget per restart")
    parser.add_argument("--step-init", type=float, default=None, help="initial compass step")
    parser.add_argument("--step-min", type=float, default=None, help="terminal compass step")
    parser.add_argument("--tol", type=float, default=None, help="improvement threshold")


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")


def _optimizer_from_args(args) -> OptimizerConfig | None:
    overrides = {
        "restarts": args.restarts,
        "max_evals": args.max_evals,
        "step_init": args.step_init,
        "step_min": args.step_min,
        "tol": args.tol,
    }
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    set_overrides = {k: v for k, v in overrides.items() if v is not None}
    if not set_overrides:
        return None
    return OptimizerConfig(**{**OptimizerConfig().__dict__, **set_overrides})


def _read_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _write(text: str, out: str | None) -> None:
    target = resolve_out_path(out)
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dict_to_csv(d: dict, prefix: str = "") -> str:
    lines = []
    for key, value in d.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(_dict_to_csv(value, prefix=name + "."))
        elif isinstance(value, float):
            lines.append(f"{name},{format_float(value)}\n")
        else:
            lines.append(f"{name},{value}\n")
    return "".join(lines)


class _JsonBlob:
    def __init__(self, data):
        self.data = data

    def to_json_dict(self):
        return self.data


def _cmd_compute(args) -> int:
    cfg = _read_config(args.config)
    state, obs_a, obs_b = load_instance(cfg)
    bounds = tuple(args.bounds.replace(",", " ").split()) if args.bounds else None
    result = compute_instance(state, obs_a, obs_b, bounds=bounds,
                              optimizer=_optimizer_from_args(args))
    if args.format == "json":
        _write(render_json(_JsonBlob(result)), args.out)
    else:
        text = _dict_to_csv({"exact": result["exact"]})
        for bid, info in result["bounds"].items():
            value = "" if info["value"] is None else format_float(info["value"])
            text += f"bounds.{bid},{value}\nbounds.{bid}.status,{info['status']}\n"
        _write(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.config:
        spec = load_sweep_spec(_read_config(args.config))
    else:
        spec = SweepSpec(preset=args.preset or "fig1")
    overrides = {}
    if args.preset and args.config:
        overrides["preset"] = args.preset
    if args.theta_start is not None:
        overrides["theta_start"] = args.theta_start
    if args.theta_stop is not None:
        overrides["theta_stop"] = args.theta_stop
    if args.theta_count is not None:
        overrides["theta_count"] = args.theta_count
    if args.bounds is not None:
        overrides["bounds"] = tuple(args.bounds.replace(",", " ").split())
    opt = _optimizer_from_args(args)
    if opt is not None:
        overrides["optimizer"] = opt
    if overrides:
        spec = SweepSpec(**{**spec.__dict__, **overrides})
    table = run_sweep(spec)
    text = emit(table, args.format)
    _write(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    dims = [int(t) for t in args.dims.replace(",", " ").split()]
    report = run_verification(args.n, dims, args.seed if args.seed is not None else 0)
    text = emit(report, args.format)
    _write(text, args.out)
    if not report.ok:
        sys.stderr.write(f"{len(report.violations)} invariant violation(s)\n")
        return 1
    return 0


def _cmd_optimize(args) -> int:
    cfg = _read_config(args.config)
    state, obs_a, obs_b = load_instance(cfg)
    opt_cfg = _optimizer_from_args(args) or OptimizerConfig()
    report = _OBJECTIVES[args.objective](state, obs_a, obs_b, cfg=opt_cfg)
    payload = {
        "objective": args.objective,
        "mode": report.mode,
        "best_value": report.best_value,
        "best_basis_columns": [
            [[c.real, c.imag] for c in report.best_basis.columns[:, k]]
            for k in range(report.best_basis.dim)
        ],
        "restarts_used": report.restarts_used,
        "evaluations": report.evaluations,
        "converged": report.converged,
        "trace": [{"start": label, "value": value}
                  for (idx, value), label in zip(report.trace, report.start_labels)],
        "config": dict(opt_cfg.__dict__),
    }
    if args.format == "json":
        _write(render_json(_JsonBlob(payload)), args.out)
    else:
        flat = {k: v for k, v in payload.items() if not isinstance(v, (list, dict))}
        text = _dict_to_csv(flat)
        text += "".join(
            f"trace.{entry['start']},{format_float(entry['value'])}\n"
            for entry in payload["trace"] if np.isfinite(entry["value"])
        )
        _write(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varbounds",
        description="Variance bounds for pairs of observables: compute, sweep, verify, optimize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="all bounds for one configured instance")
    p.add_argument("--config", required=True, help="instance config file")
    p.add_argument("--bounds", default=None, help="bound ids (comma or space separated)")
    p.add_argument("--seed", type=int, default=None)
    _add_optimizer_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("sweep", help="theta sweeps over presets or custom configs")
    p.add_argument("--preset", choices=("fig1", "fig2", "fig3", "fig4"), default=None)
    p.add_argument("--config", default=None, help="custom sweep config file")
    p.add_argument("--theta-start", type=float, default=None)
    p.add_argument("--theta-stop", type=float, default=None)
    p.add_argument("--theta-count", type=int, default=None)
    p.add_argument("--bounds", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_optimizer_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="random-ensemble invariant verification")
    p.add_argument("--n", type=int, default=1000, help="instances per dimension")
    p.add_argument("--dims", default="2,3,4,6")
    p.add_argument("--seed", type=int, default=0)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("optimize", help="basis optimization for one instance, with trace")
    p.add_argument("--config", required=True)
    p.add_argument("--objective", choices=tuple(_OBJECTIVES), default="product")
    p.add_argument("--seed", type=int, default=None)
    _add_optimizer_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VarboundsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
