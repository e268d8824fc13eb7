"""CSV/JSON serialization of sweep tables and verification reports.

CSV carries a fixed header row, floats at 17 significant digits, and an
empty cell plus a reason in the companion ``*_status`` column wherever a
bound is undefined.  JSON mirrors the same schema plus metadata and is
rendered deterministically (sorted keys, no timestamps), so identical
inputs produce identical bytes.

``render_json`` walks the report once and writes the bytes of
``json.dumps(..., indent=2, sort_keys=True)``: numpy scalars and arrays
render as the Python values they convert to, keys as ``str(key)`` (the last
of two keys with the same ``str`` wins), and non-finite floats as the
strings "inf", "-inf" and "nan".  The writer holds no closures, so a call
leaves no cyclic garbage.
"""

from __future__ import annotations

import io
import os
from json.encoder import encode_basestring_ascii as _string

import numpy as np

__all__ = ["emit", "render_csv", "render_json"]


def format_float(x: float) -> str:
    return format(float(x), ".16e")


def render_csv(obj) -> str:
    """Render a SweepTable or VerificationReport as CSV text."""
    buf = io.StringIO()
    if hasattr(obj, "columns"):  # sweep table: None, status strings, and floats as format_float writes them
        buf.write(",".join(obj.columns) + "\n")
        for row in obj.rows:
            buf.write(",".join(["" if v is None else v if type(v) is str else "%.16e" % v for v in row]) + "\n")
    else:  # verification report: one row per check
        buf.write("check,applicable,violations,max_slack,undefined_fraction\n")
        for check in sorted(obj.max_slack):
            viol = sum(1 for v in obj.violations if v.check == check)
            slack = obj.max_slack[check]
            frac = obj.undefined_fraction.get(check)
            buf.write(
                f"{check},{obj.applicable.get(check, '')},{viol},"
                f"{'' if slack is None else format_float(slack)},"
                f"{'' if frac is None else format_float(frac)}\n"
            )
    return buf.getvalue()


def _nonfinite(f: float) -> str:
    return '"inf"' if f > 0 else ('"-inf"' if f < 0 else '"nan"')


def _other(obj) -> str:
    """JSON text of a leaf whose type is not exactly str, float, int or bool."""
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return float.__repr__(f) if f - f == 0.0 else _nonfinite(f)
    if isinstance(obj, str):
        return _string(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _write_list(seq, out: list, nl: str) -> None:
    if not seq:
        out.append("[]")
        return
    inner = nl + "  "
    prefix = "[" + inner
    sep = "," + inner
    for v in seq:
        out.append(prefix)
        prefix = sep
        _write(v, out, inner)
    out.append(nl + "]")


def _write_dict(d: dict, out: list, nl: str) -> None:
    if not d:
        out.append("{}")
        return
    for k in d:
        if type(k) is not str:
            d = {str(k): v for k, v in d.items()}  # colliding keys: the last one wins
            break
    inner = nl + "  "
    prefix = "{" + inner
    sep = "," + inner
    for k, v in sorted(d.items()):
        out.append(prefix + _string(k) + ": ")
        prefix = sep
        _write(v, out, inner)
    out.append(nl + "}")


def _write(obj, out: list, nl: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is a newline plus the current indent.

    Exact built-in types are dispatched first; subclasses, numpy arrays and
    numpy scalars take the ``isinstance`` path after them.
    """
    t = type(obj)
    if t is float:
        out.append(float.__repr__(obj) if obj - obj == 0.0 else _nonfinite(obj))
    elif t is str:
        out.append(_string(obj))
    elif t is dict:
        _write_dict(obj, out, nl)
    elif t is list or t is tuple:
        _write_list(obj, out, nl)
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, dict):
        _write_dict({str(k): v for k, v in obj.items()}, out, nl)
    elif isinstance(obj, (list, tuple)):
        _write_list(list(obj), out, nl)
    elif isinstance(obj, np.ndarray):
        _write_list(list(obj.tolist()), out, nl)
    else:
        out.append(_other(obj))


def render_json(obj) -> str:
    """``obj.to_json_dict()`` as indented JSON with sorted keys and a final newline."""
    out = []
    _write(obj.to_json_dict(), out, "\n")
    out.append("\n")
    return "".join(out)


def default_output_dir() -> str | None:
    return os.environ.get("VARBOUNDS_OUT")


def resolve_out_path(path: str | None) -> str | None:
    """Apply the VARBOUNDS_OUT default directory to bare file names."""
    if path is None:
        return None
    base = default_output_dir()
    if base and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(base, path)
    return path


def emit(obj, fmt: str, path: str | None = None) -> str:
    """Serialize ``obj`` to ``fmt`` ("csv" or "json"); write to ``path`` if given.

    Returns the rendered text either way.
    """
    if fmt == "csv":
        text = render_csv(obj)
    elif fmt == "json":
        text = render_json(obj)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    target = resolve_out_path(path)
    if target is not None:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
