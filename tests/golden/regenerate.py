"""Regenerate the golden outputs of ``compute``, ``optimize``, ``sweep`` and ``verify`` under tests/golden/.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/golden/regenerate.py

Every instance config in ``configs/`` is run through ``compute`` (JSON and
CSV) and, for pure states, through ``optimize`` with each objective (JSON
and CSV).  Mixed states are run through ``optimize --objective product``
too, which must fail with exit code 2.  Every sweep config
(``*.sweep.cfg``) and each figure preset on its default 181-point grid is
run through ``sweep`` (JSON and CSV), and ``verify`` runs on its default
ensemble at two seeds (JSON).  Each output goes to ``out/`` and
``MANIFEST.json`` lists the cases with their argv, exit code and stderr, plus
the commit the outputs were made at and the host they were made on (see
``host``).  ``tests/test_golden.py`` compares the program against these
files, bit for bit on a host with the same fingerprint.  Regenerate only when an output is meant to
change, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
OUT = HERE / "out"
OBJECTIVES = ("product", "sum", "reverse_product")
FORMATS = ("json", "csv")
PRESETS = ("fig1", "fig2", "fig3", "fig4")
VERIFY = {
    "verify_seed7.verify.json": ["verify", "--seed", "7", "--format", "json"],
    "verify_seed0.verify.json": ["verify", "--n", "1000", "--dims", "2,3,4,6", "--seed", "0",
                                 "--format", "json"],
}


def cases() -> dict[str, list[str]]:
    """Output file name -> CLI argv, with config paths relative to this directory."""
    out = {}
    for preset in PRESETS:
        for fmt in FORMATS:
            out[f"{preset}.sweep.{fmt}"] = ["sweep", "--preset", preset, "--format", fmt]
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        rel = f"configs/{cfg.name}"
        if cfg.name.endswith(".sweep.cfg"):
            for fmt in FORMATS:
                out[f"{cfg.stem}.{fmt}"] = ["sweep", "--config", rel, "--format", fmt]
            continue
        mixed = "rho" in cfg.read_text()
        for fmt in FORMATS:
            out[f"{cfg.stem}.compute.{fmt}"] = ["compute", "--config", rel, "--format", fmt]
            for objective in (OBJECTIVES[:1] if mixed else OBJECTIVES):
                if mixed and fmt == "csv":
                    continue
                out[f"{cfg.stem}.optimize_{objective}.{fmt}"] = [
                    "optimize", "--config", rel, "--objective", objective, "--format", fmt]
    out.update(VERIFY)
    return out


def host() -> dict:
    """What fixes the last bits of a float output besides the code.

    The numpy version, its BLAS build, the CPU features numpy dispatches its
    loops on, and the kernel set OpenBLAS picked for this CPU at run time
    (None where it cannot be asked).
    """
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 cannot return its config
        blas = None
    return {"numpy": np.__version__, "blas": blas, "blas_core": _openblas_core(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _openblas_core() -> str | None:
    """OpenBLAS's name for the kernels it runs on this CPU, from the copy bundled with numpy."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))  # the copy numpy has already loaded
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def run(argv: list[str]) -> tuple[int, str, str]:
    """``varbounds`` in this process: exit code, stdout and stderr."""
    from varbounds import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    full = [str(HERE / a) if a.startswith("configs/") else a for a in argv]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(full)
    return code, stdout.getvalue(), stderr.getvalue()


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                            text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "../../src"], cwd=HERE,
                           capture_output=True, text=True, check=True).stdout.strip()
    OUT.mkdir(exist_ok=True)
    manifest = {"commit": commit + ("+modified src" if dirty else ""), "host": host(), "cases": {}}
    for name, argv in cases().items():
        code, stdout, stderr = run(argv)
        (OUT / name).write_text(stdout, encoding="utf-8")
        manifest["cases"][name] = {"argv": argv, "exit": code, "stderr": stderr}
    (HERE / "MANIFEST.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{len(manifest['cases'])} cases at {manifest['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
