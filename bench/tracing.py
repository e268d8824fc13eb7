"""In-memory span recorder that wraps varbounds functions from outside.

A target is a function (or a class ``__init__``) of one varbounds module.
``Tracer.install`` replaces every reference to a target that a caller looks
up at call time: module globals of every loaded ``varbounds`` module, values
of module-level dicts (``cli._OBJECTIVES``) and, for constructors, the class
attribute.  ``uninstall`` puts the originals back.

Every span stores its name, start, end, parent span and the id of the call
(item) that was running, in flat arrays, so a traced run keeps millions of
spans in tens of megabytes.  Nothing is written until ``write`` is called.
Spans are strictly nested (one thread), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

SETUP_ID = -1


class Target:
    """One traced function: ``layer`` is its module, ``name`` its span name."""

    def __init__(self, layer, owner, attr, count=None):
        self.layer = layer
        self.owner = owner  # module or class holding the original
        self.attr = attr
        self.name = f"{layer}.{attr}" if isinstance(owner, types.ModuleType) else f"{layer}.{owner.__name__}"
        self.count = count  # (args, kwargs, result, seconds) -> {counter: increment}
        self.func = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.item: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counters: dict[str, float] = {}  # timed phase
        self.setup_counters: dict[str, float] = {}
        self.current_item = SETUP_ID
        self._stack = -1
        self._patches: list[tuple] = []
        self.wrapped_at: dict[str, list[str]] = {}

    # -- recording -----------------------------------------------------------
    def _wrap(self, target: Target, nid: int):
        func = target.func
        count = target.count
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack)
            self.item.append(self.current_item)
            self.end.append(0.0)
            outer = self._stack
            self._stack = idx
            t0 = clock()
            self.start.append(t0)
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                self._stack = outer
            if count is not None:
                into = self.setup_counters if self.current_item == SETUP_ID else self.counters
                for key, inc in count(args, kwargs, result, t1 - t0).items():
                    into[key] = into.get(key, 0) + inc
            return result

        return wrapper

    def open(self, name: str, layer: str) -> int:
        """Open a span from the benchmark itself; close it with ``close``."""
        idx = len(self.start)
        self.name_id.append(self._name_index(name, layer))
        self.parent.append(self._stack)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack = idx
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack = self.parent[idx]

    def _name_index(self, name: str, layer: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    # -- installing ------------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "varbounds" or n.startswith("varbounds.")) and m is not None]
        for target in targets:
            nid = self._name_index(target.name, target.layer)
            wrapper = self._wrap(target, nid)
            sites = self.wrapped_at.setdefault(target.name, [])
            if isinstance(target.owner, type):
                self._patch(target.owner, target.attr, wrapper)
                _add(sites, f"{target.owner.__module__}.{target.owner.__name__}.{target.attr}")
                continue
            for mod in modules:
                short = mod.__name__.partition(".")[2] or "varbounds"
                for attr, value in list(vars(mod).items()):
                    if value is target.func:
                        self._patch(mod, attr, wrapper)
                        _add(sites, f"{short}.{attr}")
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if item is target.func:
                                self._patch_item(value, key, wrapper)
                                _add(sites, f"{short}.{attr}[{key!r}]")

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append(("attr", owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_item(self, mapping, key, wrapper) -> None:
        self._patches.append(("item", mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    # -- analysis --------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layer_of),
                            **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = np.zeros(len(dur) + 1)
    np.add.at(child, parent + 1, dur)  # parent -1 (a root) lands in slot 0
    return dur - child[1:]


def _add(sites: list, site: str) -> None:
    if site not in sites:
        sites.append(site)


def unwrappable(modules) -> list[str]:
    """Functions that no outside name reaches: closures and stored lambdas.

    Their time is counted in the self time of the wrapped function that
    runs them.
    """
    found = []
    for mod in modules:
        short = mod.__name__.partition(".")[2]
        for attr, value in vars(mod).items():
            funcs = []
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                funcs.append(value)
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                funcs.extend(v for v in vars(value).values() if inspect.isfunction(v))
            elif isinstance(value, dict):
                for key, item in value.items():
                    for field in getattr(item, "__dict__", {}).values():
                        if inspect.isfunction(field) and field.__name__ == "<lambda>":
                            found.append(f"{short}.{attr}[{key!r}] (stored lambda)")
            for func in funcs:
                found.extend(f"{short}.{q}" for q in _nested(func.__code__, func.__qualname__))
    return sorted(set(found))


def _nested(code, qualname):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = f"{qualname}.<locals>.{const.co_name}"
            yield f"{name} (closure)"
            yield from _nested(const, name)
