"""Command-line front end: compute, sweep, verify, optimize.

Exit codes: 0 on success, 1 when verification finds an invariant violation,
2 for usage/config errors, among them a ``verify --n``, ``--dims`` or
``--seed`` that ``run_verification`` would reject.  ``VARBOUNDS_OUT`` supplies a default output
directory for bare ``--out`` file names.

``main(argv)`` can also be called in-process, for example from a notebook
or a test, and returns the exit code.  It parses with one parser, built on
the first call and kept for the life of the process; ``build_parser()``
returns a fresh one.  A sub-command's arguments go straight to that
sub-command's parser (:func:`_parse_args`).

Every basis optimum is in closed form, so no sub-command takes an optimizer
setting, and ``--seed`` belongs to ``verify`` alone.  The one exception is
``optimize --restarts N``, which is hidden and ignored.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import (
    load_instance,
    load_sweep_spec,
    parse_config,
)
from .errors import VarboundsError
from .optimize import (
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


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")


def _at_least(low: int):
    """An argparse type: an integer >= ``low``, or a usage error (``verify --n`` and ``--seed``)."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n
    return parse


def _dimensions(text: str) -> list:
    """``verify --dims``: integers >= 2, comma or space separated, or a usage error."""
    try:
        dims = [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        dims = []
    if not dims or min(dims) < 2:
        raise argparse.ArgumentTypeError(
            f"expected integers >= 2, comma or space separated, got {text!r}")
    return dims


def _read_config(path: str) -> dict:
    # bytes decoded at once skip the text layer; parse_config splits \r\n and \r as text mode would
    with open(path, "rb") as fh:
        return parse_config(fh.read().decode("utf-8"))


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
    result = compute_instance(state, obs_a, obs_b, bounds=bounds)
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
    if overrides:
        spec = SweepSpec(**{**spec.__dict__, **overrides})
    table = run_sweep(spec)
    text = emit(table, args.format)
    _write(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(args.n, args.dims, args.seed if args.seed is not None else 0)
    text = emit(report, args.format)
    _write(text, args.out)
    if not report.ok:
        sys.stderr.write(f"{len(report.violations)} invariant violation(s)\n")
        return 1
    return 0


def _cmd_optimize(args) -> int:
    cfg = _read_config(args.config)
    state, obs_a, obs_b = load_instance(cfg)
    report = _OBJECTIVES[args.objective](state, obs_a, obs_b)
    payload = {
        "objective": args.objective,
        "mode": report.mode,
        "best_value": report.best_value,
        # Python floats: the renderer writes them without the isinstance path of numpy scalars
        "best_basis_columns": [[[c.real, c.imag] for c in column]
                               for column in report.best_basis.columns.T.tolist()],
        "witness": report.witness,
    }
    if args.format == "json":
        _write(render_json(_JsonBlob(payload)), args.out)
    else:
        flat = {k: v for k, v in payload.items() if not isinstance(v, list)}
        _write(_dict_to_csv(flat), args.out)
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
    _add_io_flags(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("sweep", help="theta sweeps over presets or custom configs")
    p.add_argument("--preset", choices=("fig1", "fig2", "fig3", "fig4"), default=None)
    p.add_argument("--config", default=None, help="custom sweep config file")
    p.add_argument("--theta-start", type=float, default=None)
    p.add_argument("--theta-stop", type=float, default=None)
    p.add_argument("--theta-count", type=int, default=None)
    p.add_argument("--bounds", default=None)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="random-ensemble invariant verification")
    p.add_argument("--n", type=_at_least(1), default=1000, help="instances per dimension")
    p.add_argument("--dims", type=_dimensions, default="2,3,4,6")
    p.add_argument("--seed", type=_at_least(0), default=0)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "optimize", help="basis optimum for one instance, with its witness basis",
        description="Basis optimum of one instance, in closed form: product and sum are "
        "maxima, Var A * Var B and (Delta A + Delta B)^2 / 2, reached at the aligned basis; "
        "reverse_product is a minimum, Var A * Var B, reached at the flat basis (all "
        "coefficient moduli of each deviation vector equal).  The report gives the value, "
        "the witness basis and the witness's name.")
    p.add_argument("--config", required=True)
    p.add_argument("--objective", choices=tuple(_OBJECTIVES), default="product")
    # Hidden and ignored: the benchmark's search workload (bench/workloads.py)
    # still passes --restarts.  It goes with ROADMAP item 2's search re-mix.
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_optimize)

    parser.commands = sub.choices  # name -> parser of each sub-command, for _parse_args
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls: each call starts a new
    # namespace from the defaults, so one parser serves every call
    return build_parser()


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with the sub-command's own parser called directly.

    The top-level parser hands every string after the command name to that
    command's parser, copies the namespace it returns and rejects what it
    leaves over as unrecognized.  Doing the same here gives the same
    namespace, help and errors without the top-level pass over the strings,
    which costs about as much as the sub-command's own parse.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(_parser(), argv)
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
