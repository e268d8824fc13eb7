"""The four benchmark workloads: inputs made from a seed, calls, and checks.

Each workload is built by its set-up (inputs, observable pool, config files)
and then issues numbered calls.  ``call(i)`` is the timed part and completes
``items`` items; ``check(i, out)`` runs outside the timing and returns how
many of them failed; ``kind(i)`` names the sort of call for the traced
breakdown.  Calls come in rounds of ``round_calls`` whose mix of work is
fixed, and a run always ends on a round boundary, so the figures do not
depend on where the clock ran out.  A traced run replays ``trace_rounds``
rounds, a fixed amount of work (about half a run at the seed commit), so
per-layer numbers of two commits describe the same calls.

Inputs are generated here with numpy only: the program receives matrices,
vectors and config files, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

TOL = 1e-10  # the library's verification tolerance, relative to max(1, |reference|)

FIG_PRESETS = ("fig1", "fig2", "fig3", "fig4")
FIG_GRID = 9  # theta points on [0, pi], shared by the four presets
# One round of figures: every preset, fig1 twice.  Half the rows of a plain
# round come from the search-free fig3/fig4, which would put the median row
# on the boundary between them and fig1; with fig1 twice the median row is
# a fig1 row.
FIG_ROUND = ("fig1", "fig1", "fig2", "fig3", "fig4")

# A verify call of 1000 instances per dimension lasts about a quarter of a
# second, so a run holds over a hundred of them: enough calls for a steady
# tail, and each call short enough for the probes around it to follow the
# host's speed.  The time per instance is the same as at n = 10 000.
VERIFY_N = 1000
VERIFY_DIMS = "2,3,4,6"
VERIFY_SEEDS = tuple(range(64))  # seeds with stored reference counts

NO_SEARCH_BOUNDS = ("rs_product", "basis_product", "fidelity_product", "parallelogram_sum",
                    "basis_sum", "mp_sum_2", "reverse_fidelity_product",
                    "reverse_basis_product", "dw_deviation_sum", "dw_variance_sum")
INSTANCE_DIMS = (2, 3, 4, 6)
INSTANCE_POOL = 8192  # items generated in set-up; calls cycle through them
# One round of instance items: 14 Haar pure, 2 eigenstates, 2 full-rank and
# 2 rank-deficient mixed states at d <= 4.  Pure items are 80 %, so the
# median item is a pure one and does not sit on the boundary with the slower
# mixed items.  Every HEAVY_EVERY-th round one pure item becomes a full-rank
# mixed state at d = 6, the slowest kind.  A run holds some thirty of them,
# so the tail (ten samples beyond it) lands near the middle of that kind
# rather than on the few of its calls that a busy host slowed most.
INSTANCE_ROUND = ("pure",) * 14 + ("eigen",) * 2 + ("mixed",) * 2 + ("lowrank",) * 2
HEAVY_EVERY = 40

SEARCH_OBJECTIVES = ("product", "sum", "reverse_product")
# One round of searches: every objective at each dimension, d = 4 three
# times.  The six product/sum searches at d = 4 then hold the median item,
# away from the spread-out d = 3 reverse and d = 5 searches.
SEARCH_ROUND = tuple((d, obj) for d, reps in ((2, 1), (3, 1), (4, 3), (5, 1))
                     for _ in range(reps) for obj in SEARCH_OBJECTIVES)
SEARCH_ROUNDS = 6  # instances in the pool: SEARCH_ROUNDS * len(SEARCH_ROUND)
SEARCH_RESTARTS = 8
# The search instances are one fixed pool, so that every instance has a
# stored reference optimum (bench/reference/search.json) whatever the run's
# seed; the seed sets the order in which a run goes through them.
SEARCH_POOL_SEED = 1607

WORKLOAD_IDS = {"figures": 0, "ensemble": 1, "instances": 2, "search": 3}


def run_cli(cli, argv) -> tuple[int, str]:
    """``varbounds`` CLI in this process, stdout captured in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload]])


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOL * max(1.0, abs(ref))


# -- plain-numpy generators and exact moments ----------------------------------
def complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gue(rng, d) -> np.ndarray:
    g = complex_gaussian(rng, (d, d))
    return 0.5 * (g + g.conj().T)


def haar_vector(rng, d) -> np.ndarray:
    v = complex_gaussian(rng, d)
    return v / np.linalg.norm(v)


def wishart(rng, d, rank) -> np.ndarray:
    g = complex_gaussian(rng, (d, rank))
    w = g @ g.conj().T
    return w / np.trace(w).real


def shifted_projector(rng, d, rank, shift) -> np.ndarray:
    q, _ = np.linalg.qr(complex_gaussian(rng, (d, rank)))
    p = q @ q.conj().T
    return 0.5 * (p + p.conj().T) + shift * np.eye(d)


def exact_moments(state: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
    """Exact variance product, sum and deviation sum of a vector or density matrix."""
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state

    def var(m):
        return max(np.trace(rho @ m @ m).real - np.trace(rho @ m).real ** 2, 0.0)

    va, vb = var(a), var(b)
    return {"product": va * vb, "sum": va + vb, "dev_sum": math.sqrt(va) + math.sqrt(vb)}


def _paulis():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    return {"I": np.eye(2, dtype=complex), "X": x, "Y": y, "Z": z}


def _spin1():
    s = 1.0 / math.sqrt(2.0)
    lx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    ly = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]])
    lz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return lx, ly, lz


def observable_pairs(rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Matrix pairs of the instances pool: GUE pairs plus degenerate spectra."""
    pairs = [(gue(rng, d), gue(rng, d)) for d in INSTANCE_DIMS for _ in range(6)]
    p = _paulis()
    lx, ly, lz = _spin1()
    pairs += [
        (p["X"], p["Z"]),
        (shifted_projector(rng, 2, 1, 0.3), p["Y"]),
        (lx, ly),
        (ly, lz),
        (lz + 0.5 * np.eye(3), lx - 0.25 * np.eye(3)),
        (shifted_projector(rng, 3, 1, -0.2), gue(rng, 3)),
    ]
    strings = ("XX", "ZY", "ZI", "XZ", "YY", "IX")
    paulis4 = {s: np.kron(p[s[0]], p[s[1]]) for s in strings}
    pairs += [(paulis4["XX"], paulis4["ZY"]), (paulis4["ZI"], paulis4["XZ"]),
              (paulis4["YY"], paulis4["IX"]), (paulis4["ZI"], gue(rng, 4))]
    pairs += [(shifted_projector(rng, 6, 2, 0.25), shifted_projector(rng, 6, 3, -0.5)),
              (shifted_projector(rng, 6, 3, 0.0), gue(rng, 6))]
    return pairs


def instance_items(rng, pairs) -> list[tuple[int, str, np.ndarray]]:
    """``(pair index, kind, state array)`` for the instances pool.

    Eigenstates come from numpy's own ``eigh``, so the inputs do not depend
    on the program's eigensolver.
    """
    eigvecs = [(np.linalg.eigh(a)[1], np.linalg.eigh(b)[1]) for a, b in pairs]
    dims = np.array([a.shape[0] for a, _ in pairs])
    choices = {"small": np.flatnonzero(dims <= 4), "d6": np.flatnonzero(dims == 6),
               "any": np.arange(len(pairs))}
    kinds = []
    for r in range(INSTANCE_POOL // len(INSTANCE_ROUND)):
        round_kinds = ("mixed_d6",) + INSTANCE_ROUND[1:] if r % HEAVY_EVERY == 0 else INSTANCE_ROUND
        kinds.extend(str(k) for k in rng.permutation(round_kinds))
    out = []
    for kind in kinds:
        pick = {"mixed": "small", "lowrank": "small", "mixed_d6": "d6"}.get(kind, "any")
        j = int(rng.choice(choices[pick]))
        d = dims[j]
        if kind == "pure":
            state = haar_vector(rng, d)
        elif kind == "eigen":
            vecs = eigvecs[j][int(rng.integers(2))]
            state = np.array(vecs[:, int(rng.integers(d))])
        else:
            state = wishart(rng, d, d - 1 if kind == "lowrank" else d)
        out.append((j, kind, state))
    return out


def format_complex(z: complex) -> str:
    re, im = repr(float(z.real)), repr(float(z.imag))
    return f"{re}{im if im.startswith('-') else '+' + im}i"


def config_text(psi: np.ndarray, a: np.ndarray, b: np.ndarray) -> str:
    def matrix(m):
        return "; ".join(" ".join(format_complex(z) for z in row) for row in m)

    return (f"[state]\nvector = {' '.join(format_complex(z) for z in psi)}\n"
            f"[observables]\na = {matrix(a)}\nb = {matrix(b)}\n")


def compare_csv(text: str, ref: str) -> list[int]:
    """Numbers of the data rows of ``text`` that differ from ``ref``.

    Numbers agree within ``TOL``; every other cell (status, reason, empty)
    must match exactly.  A changed header fails every row.
    """
    got, want = text.splitlines(), ref.splitlines()
    if not got or got[0] != want[0]:
        return list(range(1, len(want)))
    bad = []
    for k in range(1, max(len(got), len(want))):
        g = got[k].split(",") if k < len(got) else []
        w = want[k].split(",") if k < len(want) else []
        if len(g) != len(w) or not all(map(_cell_equal, g, w)):
            bad.append(k)
    return bad


def _cell_equal(got: str, want: str) -> bool:
    try:
        return close(float(got), float(want))
    except ValueError:
        return got == want


# -- workloads ------------------------------------------------------------------
class Figures:
    """``sweep --preset figN --format csv`` for the four presets on one grid."""

    probe = "scalar"  # kernel of bench/speed.py that times the host
    round_calls = len(FIG_ROUND)
    trace_rounds = 3
    items = FIG_GRID

    def __init__(self, vb, seed, workdir):
        self.cli = vb["cli"]
        self.reference = {p: (REFERENCE / f"{p}.csv").read_text() for p in FIG_PRESETS}
        # the presets have no random input; the seed sets their order in a round
        self.order = [str(p) for p in rng_for("figures", seed).permutation(FIG_ROUND)]
        for name in ("spin1_lx", "spin1_ly", "pauli_x", "pauli_z"):
            vb["sweep"].named_observable(name)

    def kind(self, i):
        return self.order[i % len(self.order)]

    def call(self, i):
        preset = self.kind(i)
        return preset, run_cli(self.cli, ["sweep", "--preset", preset, "--format", "csv",
                                          "--theta-count", str(FIG_GRID)])

    def check(self, i, out):
        preset, (code, text) = out
        if code != 0:
            return self.items
        return min(len(compare_csv(text, self.reference[preset])), self.items)


class Ensemble:
    """``verify --n 1000 --dims 2,3,4,6`` over seeds with stored reference counts."""

    probe = "batched"  # kernel of bench/speed.py that times the host
    round_calls = 1
    trace_rounds = 64
    items = VERIFY_N * len(VERIFY_DIMS.split(","))

    def __init__(self, vb, seed, workdir):
        self.cli = vb["cli"]
        self.reference = json.loads((REFERENCE / "verify.json").read_text())
        self.order = [int(s) for s in rng_for("ensemble", seed).permutation(VERIFY_SEEDS)]

    def kind(self, i):
        return "verify"

    def call(self, i):
        s = self.order[i % len(self.order)]
        return s, run_cli(self.cli, ["verify", "--n", str(VERIFY_N), "--dims", VERIFY_DIMS,
                                     "--seed", str(s), "--format", "json"])

    def check(self, i, out):
        s, (code, text) = out
        if code != 0:
            return self.items
        ref = self.reference["seeds"][str(s)]
        report = json.loads(text)
        ok = (report["ok"] and not report["violations"]
              and report["applicable"] == ref["applicable"]
              and report["undefined_fraction"].keys() == ref["undefined_fraction"].keys()
              and all(close(report["undefined_fraction"][k], v)
                      for k, v in ref["undefined_fraction"].items()))
        return 0 if ok else self.items


class Instances:
    """``compute_instance`` with the ten search-free bounds, one state per call."""

    probe = "scalar"  # kernel of bench/speed.py that times the host
    round_calls = len(INSTANCE_ROUND)
    trace_rounds = 640
    items = 1

    def __init__(self, vb, seed, workdir):
        self.vb = vb["varbounds"]
        rng = rng_for("instances", seed)
        mats = observable_pairs(rng)
        self.pairs = [(self.vb.Observable(a), self.vb.Observable(b)) for a, b in mats]
        self.mats = mats
        self.pool = instance_items(rng, mats)

    def kind(self, i):
        return self.pool[i % len(self.pool)][1]

    def call(self, i):
        j, kind, state = self.pool[i % len(self.pool)]
        qs = self.vb.QuantumState.pure(state) if state.ndim == 1 else self.vb.QuantumState.mixed(state)
        a, b = self.pairs[j]
        return self.vb.compute_instance(qs, a, b, bounds=NO_SEARCH_BOUNDS)

    def check(self, i, out):
        j, kind, state = self.pool[i % len(self.pool)]
        exact = exact_moments(state, *self.mats[j])
        for info in out["bounds"].values():
            if not info["defined"]:
                if not info["status"]:
                    return 1
                continue
            ref = exact[info["target"]]
            slack = ref - info["value"] if info["upper"] else info["value"] - ref
            if slack > TOL * max(1.0, abs(ref)):
                return 1
        return 0


class Search:
    """``optimize --config <file> --objective ...`` on a fixed pool of pure instances."""

    probe = "scalar"  # kernel of bench/speed.py that times the host
    round_calls = len(SEARCH_ROUND)
    trace_rounds = 2
    items = 1

    def __init__(self, vb, seed, workdir):
        self.cli = vb["cli"]
        self.reference = json.loads((REFERENCE / "search.json").read_text())["best_value"]
        self.pool = search_pool(workdir)
        rng = rng_for("search", seed)
        self.order = [r * len(SEARCH_ROUND) + int(k)
                      for r in rng.permutation(SEARCH_ROUNDS)
                      for k in rng.permutation(len(SEARCH_ROUND))]

    def kind(self, i):
        return self.pool[self.order[i % len(self.order)]][1]

    def call(self, i):
        path, kind, _ = self.pool[self.order[i % len(self.order)]]
        return run_cli(self.cli, search_argv(path, kind.partition(".")[2]))

    def check(self, i, out):
        code, text = out
        if code != 0:
            return 1
        j = self.order[i % len(self.order)]
        _, kind, exact = self.pool[j]
        best = float(json.loads(text)["best_value"])  # "inf" for an undefined reverse bound
        return int(not search_ok(kind.partition(".")[2], best, exact, float(self.reference[j])))


def search_pool(workdir) -> list[tuple[str, str, dict]]:
    """``(config path, "d<d>.<objective>", exact moments)`` of every search instance.

    The config files are written to ``workdir``; the pool does not depend on
    the run's seed.
    """
    rng = np.random.default_rng(SEARCH_POOL_SEED)
    pool = []
    for _ in range(SEARCH_ROUNDS):
        for d, objective in SEARCH_ROUND:
            psi, a, b = haar_vector(rng, d), gue(rng, d), gue(rng, d)
            path = Path(workdir) / f"search_{len(pool)}.cfg"
            path.write_text(config_text(psi, a, b))
            pool.append((str(path), f"d{d}.{objective}", exact_moments(psi, a, b)))
    return pool


def search_argv(path: str, objective: str) -> list[str]:
    return ["optimize", "--config", path, "--objective", objective,
            "--restarts", str(SEARCH_RESTARTS), "--format", "json"]


def search_ok(objective: str, best: float, exact: dict, reference: float) -> bool:
    """A search's best value is a valid bound and no worse than the reference optimum.

    ``product`` and ``sum`` maximize a lower bound, ``reverse_product``
    minimizes an upper bound (``inf`` where it is undefined).  A better
    value than the reference passes.
    """
    ref = exact["sum" if objective == "sum" else "product"]
    sign = -1.0 if objective == "reverse_product" else 1.0
    valid = sign * (best - ref) <= TOL * max(1.0, abs(ref))
    if math.isinf(reference):
        return valid
    return valid and sign * (reference - best) <= TOL * max(1.0, abs(reference))


WORKLOADS = {"figures": Figures, "ensemble": Ensemble, "instances": Instances, "search": Search}
