"""Flat key-value config files with sections and complex matrix literals.

Grammar (documented in the README):

* ``#`` starts a comment; blank lines are ignored;
* ``[section]`` opens a section; ``key = value`` lines belong to it;
* complex entries are written ``a``, ``a+bi`` or ``a-bi`` (e.g. ``0.5-1.2i``);
* matrix literals list rows separated by ``;`` with entries separated by
  whitespace or commas; vectors are a single row.

Sections used by the tools: ``[sweep]``, ``[state]``, ``[observables]``.
The ``[optimizer]`` section of the basis search is rejected with a
:class:`~varbounds.errors.ConfigError`: every basis optimum is in closed
form, so none of its keys could change a result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .linalg import Observable, QuantumState, qubit_state_from_bloch
from .sweep import SweepSpec, named_observable, state_family

__all__ = [
    "load_instance",
    "load_sweep_spec",
    "parse_complex",
    "parse_config",
    "parse_matrix",
    "parse_vector",
]


def parse_config(text: str) -> dict:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            if current == "optimizer":
                raise ConfigError(f"line {lineno}: the [optimizer] section was removed: every "
                                  "basis optimum is now closed-form, so no optimizer setting "
                                  "has an effect")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key/value before any [section]")
        key, value = line.split("=", 1)
        sections[current][key.strip().lower()] = value.strip()
    return sections


def parse_complex(token: str) -> complex:
    t = token.strip().replace("i", "j")
    if not t:
        raise ConfigError("empty complex literal")
    try:
        return complex(t)
    except ValueError:
        raise ConfigError(f"bad complex literal {token!r}") from None


def parse_vector(value: str) -> np.ndarray:
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ConfigError("empty vector literal")
    return np.array([parse_complex(t) for t in tokens])


def parse_matrix(value: str) -> np.ndarray:
    rows = [r for r in value.split(";") if r.strip()]
    if not rows:
        raise ConfigError("empty matrix literal")
    parsed = [parse_vector(r) for r in rows]
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ConfigError("matrix rows have unequal lengths")
    return np.array(parsed)


def _get_float(section: dict, key: str, default: float) -> float:
    if key not in section:
        return default
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"{key}: not a number: {section[key]!r}") from None


def _get_int(section: dict, key: str, default: int) -> int:
    if key not in section:
        return default
    try:
        return int(section[key], 0)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {section[key]!r}") from None


def _load_observable(value: str) -> Observable:
    if ";" in value or "," in value:
        return Observable(parse_matrix(value))
    return named_observable(value.strip().lower())


def load_observable_pair(cfg: dict) -> tuple[Observable, Observable]:
    sec = cfg.get("observables")
    if not sec or "a" not in sec or "b" not in sec:
        raise ConfigError("config needs an [observables] section with keys a and b")
    return _load_observable(sec["a"]), _load_observable(sec["b"])


def load_state(cfg: dict) -> QuantumState:
    sec = cfg.get("state")
    if not sec:
        raise ConfigError("config needs a [state] section")
    if "vector" in sec:
        v = parse_vector(sec["vector"])
        return QuantumState.pure(v / np.linalg.norm(v))
    if "rho" in sec:
        return QuantumState.mixed(parse_matrix(sec["rho"]))
    if "bloch" in sec:
        r = parse_vector(sec["bloch"])
        if np.abs(r.imag).max() > 0:
            raise ConfigError("bloch vector must be real")
        return qubit_state_from_bloch(r.real)
    if "family" in sec:
        _, build = state_family(sec["family"])
        theta = _get_float(sec, "theta", math.nan)
        if math.isnan(theta):
            raise ConfigError("state family needs a theta value")
        return build(theta)
    raise ConfigError("[state] needs one of: vector, rho, bloch, family")


def load_sweep_spec(cfg: dict) -> SweepSpec:
    sec = cfg.get("sweep", {})
    preset = sec.get("preset", "custom").lower()
    bounds = tuple(sec["bounds"].replace(",", " ").split()) if "bounds" in sec else None
    spec = dict(
        preset=preset,
        theta_start=_get_float(sec, "theta_start", 0.0),
        theta_stop=_get_float(sec, "theta_stop", math.pi),
        theta_count=_get_int(sec, "theta_count", 181),
        bounds=bounds,
    )
    if preset == "custom":
        state_sec = cfg.get("state", {})
        family = state_sec.get("family") or sec.get("state_family")
        if family is None:
            raise ConfigError("custom sweep needs a state family")
        spec["state_family"] = family
        spec["observables"] = load_observable_pair(cfg)
    return SweepSpec(**spec)


def load_instance(cfg: dict):
    """State and observable pair for single-instance commands."""
    return load_state(cfg), *load_observable_pair(cfg)
