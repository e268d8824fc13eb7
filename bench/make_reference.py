"""Regenerate the reference outputs the benchmark checks against.

    python3 bench/make_reference.py

Writes ``bench/reference/fig1.csv`` .. ``fig4.csv`` (the presets on the
benchmark's theta grid), ``bench/reference/verify.json`` (``applicable``
and ``undefined_fraction`` of ``verify`` for every seed the ensemble
workload draws) and ``bench/reference/search.json`` (``best_value`` of
every instance of the search pool).  The committed files come from the
commit named in ``verify.json`` and ``search.json``; regenerate them only
when an output is meant to change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (pins BLAS to one thread before numpy loads)
from workloads import (FIG_GRID, FIG_PRESETS, REFERENCE, TOL, VERIFY_DIMS, VERIFY_N,  # noqa: E402
                       VERIFY_SEEDS, run_cli, search_argv, search_pool)


def main() -> int:
    from varbounds import cli

    REFERENCE.mkdir(exist_ok=True)
    for preset in FIG_PRESETS:
        code, text = run_cli(cli, ["sweep", "--preset", preset, "--format", "csv",
                                   "--theta-count", str(FIG_GRID)])
        if code != 0:
            return code
        (REFERENCE / f"{preset}.csv").write_text(text)
    seeds = {}
    for seed in VERIFY_SEEDS:
        code, text = run_cli(cli, ["verify", "--n", str(VERIFY_N), "--dims", VERIFY_DIMS,
                                   "--seed", str(seed), "--format", "json"])
        if code != 0:
            return code
        report = json.loads(text)
        seeds[str(seed)] = {"applicable": report["applicable"],
                            "undefined_fraction": report["undefined_fraction"]}
    (REFERENCE / "verify.json").write_text(json.dumps({
        "commit": run._git_commit(),
        "tolerance": TOL,
        "argv": ["verify", "--n", str(VERIFY_N), "--dims", VERIFY_DIMS, "--seed", "<seed>",
                 "--format", "json"],
        "seeds": seeds,
    }, indent=1, sort_keys=True) + "\n")

    workdir = HERE / ".work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        best = []
        for path, kind, _ in search_pool(workdir):
            code, text = run_cli(cli, search_argv(path, kind.partition(".")[2]))
            if code != 0:
                return code
            best.append(repr(float(json.loads(text)["best_value"])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (REFERENCE / "search.json").write_text(json.dumps({
        "commit": run._git_commit(),
        "tolerance": TOL,
        "argv": search_argv("<pool config>", "<objective>"),
        "best_value": best,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
