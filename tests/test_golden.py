"""``compute``, ``optimize``, ``sweep`` and ``verify`` against the golden outputs in tests/golden/.

The outputs were made by ``tests/golden/regenerate.py`` at the commit and on
the host named in ``MANIFEST.json``.  Keys, statuses, exit codes, error
messages and undefined cells must match exactly.  On a host with the same
fingerprint (numpy version, BLAS build, CPU features and the OpenBLAS
kernels picked for the CPU) every float must have the same bits.  On any
other, floats must agree within ``ULPS`` units in the last place of
max(|expected|, 1): the witness bases come from a LAPACK QR and the moments
from BLAS, whose last bits may differ between builds and CPUs.  A report's
metadata names the numpy version it ran with; that one entry is not
compared.
"""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from varbounds import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())
ULPS = 16
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
_regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regenerate)
EXACT = MANIFEST.get("host") == _regenerate.host()  # bit for bit on the host that made the files


def _run(argv):
    full = [str(GOLDEN / a) if a.startswith("configs/") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(full)
    return code, stdout.getvalue(), stderr.getvalue()


def _close(got: float, want: float) -> bool:
    if math.isinf(want) or math.isnan(want):
        return str(got) == str(want)
    if EXACT:
        return got.hex() == want.hex()
    return abs(got - want) <= ULPS * math.ulp(max(abs(want), 1.0))


def _same_json(got, want, path="$"):
    if isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)
                                   and isinstance(got, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert _close(float(got), float(want)), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{path}[{i}]")
    else:  # strings ("ok", reasons, "inf"), None for undefined values, booleans, ints
        assert type(got) is type(want) and got == want, (path, got, want)


def _float_or_none(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _same_csv(got: str, want: str):
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
    for i, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        for g, w in zip(got_row, want_row):
            number = _float_or_none(w)
            if w == "" or number is None:  # keys, undefined cells and statuses are text
                assert g == w, (i, g, w)
            else:
                assert _float_or_none(g) is not None and _close(float(g), number), (i, g, w)


def _without_numpy_version(report: dict) -> dict:
    versions = report.get("metadata", {}).get("versions", {})
    versions.pop("numpy", None)
    return report


@pytest.mark.parametrize("name", sorted(MANIFEST["cases"]))
def test_output_matches_golden(name):
    case = MANIFEST["cases"][name]
    code, stdout, stderr = _run(case["argv"])
    assert (code, stderr) == (case["exit"], case["stderr"])
    want = (GOLDEN / "out" / name).read_text(encoding="utf-8")
    if name.endswith(".json") and want:
        _same_json(_without_numpy_version(json.loads(stdout)), _without_numpy_version(json.loads(want)))
    elif name.endswith(".csv"):
        _same_csv(stdout, want)
    else:
        assert stdout == want


def test_host_fingerprint_has_the_manifest_keys():
    host = _regenerate.host()
    assert json.loads(json.dumps(host)) == host and host["numpy"] == np.__version__
    assert sorted(host) == sorted(MANIFEST["host"])


def test_every_golden_file_is_a_case():
    assert sorted(p.name for p in (GOLDEN / "out").iterdir()) == sorted(MANIFEST["cases"])
