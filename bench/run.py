"""varbounds benchmark: one closed-loop client driving the library in-process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload figures|ensemble|instances|search \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One process, one thread, one call at a time.  The CLI workloads call
``varbounds.cli.main`` with stdout captured in memory; ``instances`` calls
the library API.  Every time is reported at the host's nominal speed,
scaled by a probe kernel timed between calls (``speed.py``); the times as
measured are printed beside them.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs half the time untraced, then replays a fixed
number of those calls with every public function of every layer wrapped,
and reports per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every item passed its check, 1 when any
failed, 2 when the program cannot be found or set up.  ``--workload all``
runs each workload in a child process and exits 1 if any of them failed.
"""

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy loads

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# setup_s is the median of this many fresh set-ups, so that one slow moment
# of a shared host does not set it.
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def forget_varbounds() -> None:
    """Unload varbounds, so that the next import is a fresh one, and free it."""
    for name in [n for n in sys.modules if n == "varbounds" or n.startswith("varbounds.")]:
        del sys.modules[name]
    gc.collect()


def import_varbounds() -> dict:
    """Every varbounds module, by short name."""
    vb = {"varbounds": importlib.import_module("varbounds")}
    for module in layers.MODULES:
        vb[module] = importlib.import_module(f"varbounds.{module}")
    return vb


def timed_loop(wl, probe, seconds=0.0, calls=0, tracer=None) -> list[tuple[float, int, int, float]]:
    """Issue whole rounds of calls until ``seconds`` have passed and ``calls`` are done.

    Returns ``(seconds at nominal host speed, items, failed, seconds)`` per
    call.  An exception fails every item of its call.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(wl.round_calls):
            before = probe.between()
            if tracer is not None:
                tracer.current_item = i
                root = tracer.open("harness.call", "harness")
            t0 = time.perf_counter()
            try:
                out = wl.call(i)
            except Exception:  # the item failed; report it and keep the loop running
                out = None
                if not any(r[2] for r in records):
                    traceback.print_exc()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(root)
            scale = probe.scale(before, probe.between())
            failed = wl.items if out is None else wl.check(i, out)
            records.append(((t1 - t0) * scale, wl.items, failed, t1 - t0))
            i += 1
        if i >= calls and time.perf_counter() - start >= seconds:
            return records


def latency_samples(records) -> np.ndarray:
    """Per-item latency in ms, one sample per call: its time divided by its items.

    A call is the unit that is timed.  Counting a call of many items as many
    equal samples would put the tail on the single slowest call of a run.
    """
    return np.array([1e3 * r[0] / r[1] for r in records])


def tail(samples) -> tuple[float, float, int]:
    """The 11th-largest sample, its percentile, and the sample count."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    k = max(n - TAIL_BEYOND - 1, 0)
    return float(x[k]), 100.0 * (k + 1) / n, n


def timings(records, setups) -> dict:
    samples = latency_samples(records)
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": sum(r[1] for r in records) / sum(r[0] for r in records),
        "item_p50_ms": float(np.median(samples)),
        "item_tail_ms": tail(samples)[0],
    }


def end_to_end(records, setups, raw_setups) -> tuple[dict, dict]:
    """Metrics at nominal host speed, and the same timings as measured."""
    metrics = timings(records, setups)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, tail_pct, n = tail(latency_samples(records))
    raw = timings([(r[3], r[1]) for r in records], raw_setups)
    extra = {"item_tail_percentile": tail_pct, "latency_samples": n, "calls": len(records),
             "setup_runs_s": setups, "measured": raw}
    return metrics, extra


def plain_run(cls, seed, seconds, workdir):
    setup_probe, call_probe = speed.Probe("scalar"), speed.Probe(cls.probe)
    setups, raw_setups, wl = [], [], None
    for _ in range(SETUP_REPEATS):
        wl = None  # the previous set-up is freed and does not count in peak_rss_mib
        forget_varbounds()
        before = setup_probe.measure()
        t0 = time.perf_counter()
        wl = cls(import_varbounds(), seed, workdir)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(raw_setups[-1] * setup_probe.scale(before, setup_probe.measure()))
    first_item_after = time.perf_counter() - T_START
    records = timed_loop(wl, call_probe, seconds=seconds)
    metrics, extra = end_to_end(records, setups, raw_setups)
    extra["process_start_to_first_item_s"] = first_item_after
    return records, metrics, extra, None


def traced_run(cls, seed, seconds, workdir):
    vb = import_varbounds()
    targets = layers.targets(vb)
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        wl = cls(vb, seed, workdir)
    finally:
        tracer.uninstall()
    calls = wl.trace_rounds * wl.round_calls
    probe = speed.Probe(cls.probe)
    untraced = timed_loop(wl, probe, seconds=seconds / 2.0, calls=calls)
    tracer.install(targets)
    try:
        traced = timed_loop(wl, probe, calls=calls, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = sum(r[0] for r in traced) / sum(r[0] for r in untraced[:calls]) - 1.0
    metrics = layers.per_layer(tracer, overhead)
    extra = {
        "untraced_calls": len(untraced),
        "traced_calls": calls,
        "layer_share": layers.shares(tracer, wl.kind),
        "wrapped_at": tracer.wrapped_at,
        "not_wrapped": tracing.unwrappable([vb[m] for m in layers.MODULES]),
    }
    return untraced + traced, metrics, extra, tracer


def machine_facts(traced: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "traced": traced,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return getattr(lib, fn)()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_one(args) -> int:
    if not (SRC / "varbounds" / "__init__.py").is_file():
        sys.stderr.write(f"error: no varbounds sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else plain_run
        try:
            records, metrics, extra, tracer = run(WORKLOADS[args.workload], args.seed,
                                                  args.seconds, workdir)
        except Exception:  # set-up failed: no result
            traceback.print_exc()
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = layers.metric_units() if args.trace else END_TO_END
    attempted = sum(r[1] for r in records)
    failed = sum(r[2] for r in records)
    facts = machine_facts(bool(args.trace))
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"calls={len(records)} attempted={attempted} failed={failed}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for name, value in extra.get("measured", {}).items():
        print(f"{name} as measured, not scaled to nominal host speed = {value:.6g} {units[name]}")
    print(f"fail_frac = {failed / attempted:.6g} ratio")
    for layer, share in extra.get("layer_share", {}).get("all", {}).items():
        if layer != "wall_s" and share > 0:
            print(f"share of traced call time, {layer} = {share:.4f}")
    if "item_tail_percentile" in extra:
        print(f"item_tail_ms is p{extra['item_tail_percentile']:.3f} "
              f"of {extra['latency_samples']} samples")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "machine": facts, **result, "fail_frac": failed / attempted, **extra}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.npz"))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; 1 if any failed."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(argv, timeout=900).returncode != 0
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
