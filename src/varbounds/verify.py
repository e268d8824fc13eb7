"""Random-ensemble verification of every bound inequality.

For each requested dimension, ``run_verification`` draws ``n`` instances
(Haar pure states on even indices, normalized Wishart density matrices on
odd ones; GUE-style Hermitian observable pairs; Haar bases for the
basis-dependent checks) and tests every theorem the bound modules promise:

* chain: the basis product bound dominates the Robertson-Schrodinger bound;
* validity: every lower bound sits at or below the exact product/sum and
  every defined upper bound at or above it;
* sandwich: lower <= exact <= upper whenever the upper side is defined,
  with undefined fractions reported;
* |Cov| <= Delta A Delta B, reverse factors >= 1;
* global-phase, identity-shift, and eigenvalue-relabeling invariance on a
  deterministic subsample.  A global phase leaves a density matrix as it
  is, so the phase check is vacuous on the mixed rows: their drift is 0 by
  construction and is recorded without recomputing a bound.

Every row's random numbers are drawn, in one fixed order (states, Wishart
matrices, A, B, bases), so each draw keeps its values and the report its
bytes.  Each row builds only what its checks read: a density matrix on the
odd rows and a Haar basis on the even rows.

Every value checked comes from the bound formulas the API runs.  Each
dimension's draw becomes two :class:`~varbounds.moments.Instance` objects,
one of its pure rows and one of its mixed rows, each with one observable
pair per row (two stacked :class:`~varbounds.linalg.Observable` objects,
diagonalized in one eigensolver call each, with the API's phase
convention).  The formulas of :mod:`varbounds.lower_bounds` and
:mod:`varbounds.upper_bounds` evaluate all rows of an instance at once, and
their values are put back in index order before they are recorded (the
pure-state checks run over the pure rows, in index order), so the checks,
their counts and the order of any violations do not depend on the split.
A row has the bits of the scalar ``*_bound`` API on its own state and
pair; a test pins that.  This module holds no moment or bound formula:
it draws, builds instances, compares and counts.  The phase and shift
spot-checks build instances from the transformed inputs; the relabel check
permutes an instance's own eigenvalue deviations and fidelities.

The dimensions of one call run concurrently, on the calling thread and one
helper thread (on the calling thread alone for one dimension or on a
one-CPU host); numpy releases the interpreter lock in the LAPACK, BLAS,
einsum and generator calls that carry the cost.  With the default dims the
largest dimension, which the calling thread takes alone, lasts about as
long as the others together, so a third thread would not finish sooner and
would hold one more dimension in memory.  Each dimension draws from its own
generator and fills its own accumulator, and the accumulators are merged
in the order of ``dims``, so the report does not depend on the thread count
or on scheduling.  There is no setting for it.

Any violation means an implementation bug: the inequalities are theorems.
The report is deterministic under a fixed seed and carries no timestamps:
two runs on one machine give identical bytes, and across machines the
bytes agree as far as their LAPACK builds agree.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from . import __version__ as _pkg_version
from ._record import FrozenRecord, Record
from .linalg import Observable
from .lower_bounds import (
    basis_product,
    basis_sum,
    fidelity_product,
    mp_sum_1,
    mp_sum_2,
    parallelogram_sum,
    rs_product,
)
from .moments import Instance, sorted_weighted
from .random_ensembles import (
    RNG_NAME,
    _complex_gaussian,
    _phase_fixed_q,
    _wishart,
    gue_hermitian,
    haar_state,
)
from .upper_bounds import (
    dw_deviation_sum,
    dw_variance_sum,
    reverse_basis_product,
    reverse_fidelity_product,
)

__all__ = ["VerificationReport", "Violation", "run_verification"]

TOL = 1e-10
INVARIANCE_TOL = 1e-10
SUBSET = 200  # instances per dimension used for the invariance re-computations

CHECKS = (
    "chain_basis_ge_rs",
    "chain_eigenbasis_ge_rs",
    "valid_rs_product",
    "valid_basis_product",
    "valid_fidelity_product",
    "valid_parallelogram_sum",
    "valid_basis_sum",
    "valid_mp_sum_1",
    "valid_mp_sum_2",
    "upper_reverse_fidelity_product",
    "upper_reverse_basis_product",
    "upper_dw_deviation_sum",
    "upper_dw_variance_sum",
    "sandwich_product",
    "sandwich_sum",
    "cov_cauchy_schwarz",
    "omega_factor_ge_one",
    "lambda_factor_ge_one",
    "phase_invariance",
    "shift_invariance",
    "relabel_invariance",
)

UNDEFINED_TRACKED = (
    "upper_reverse_fidelity_product",
    "upper_reverse_basis_product",
    "upper_dw_deviation_sum",
    "upper_dw_variance_sum",
)


class Violation(FrozenRecord):
    _fields = ("check", "digest", "slack")

    def __init__(self, check: str, digest: str, slack: float):
        self.__dict__.update(check=check, digest=digest, slack=slack)


class VerificationReport(Record):
    _fields = ("instances", "violations", "undefined_fraction", "max_slack", "applicable",
               "metadata")

    def __init__(self, instances: int, violations: list, undefined_fraction: dict,
                 max_slack: dict, applicable: dict, metadata: dict | None = None):
        self.instances = instances
        self.violations = violations
        self.undefined_fraction = undefined_fraction
        self.max_slack = max_slack
        self.applicable = applicable
        self.metadata = {} if metadata is None else metadata

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "instances": self.instances,
            "ok": self.ok,
            "violations": [
                {"check": v.check, "digest": v.digest, "slack": v.slack}
                for v in self.violations
            ],
            "undefined_fraction": dict(self.undefined_fraction),
            "max_slack": dict(self.max_slack),
            "applicable": dict(self.applicable),
            "metadata": dict(self.metadata),
        }


class _Accumulator:
    def __init__(self):
        self.violations = []
        self.max_slack = {c: None for c in CHECKS}
        self.applicable = {c: 0 for c in CHECKS}
        self.undefined = {c: 0 for c in UNDEFINED_TRACKED}
        self.undefined_base = {c: 0 for c in UNDEFINED_TRACKED}

    def record(self, check, slack, mask, digest_fn, tol=TOL):
        """slack > tol on an applicable instance is a violation."""
        slack = np.asarray(slack, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        count = int(mask.sum())
        self.applicable[check] += count
        if count:
            self._raise_max(check, float(slack[mask].max()))
            for idx in np.nonzero(mask & (slack > tol))[0]:
                self.violations.append(
                    Violation(check=check, digest=digest_fn(int(idx)), slack=float(slack[idx]))
                )

    def _raise_max(self, check, worst):
        prev = self.max_slack[check]
        self.max_slack[check] = worst if prev is None else max(prev, worst)

    def count_undefined(self, check, defined_mask, applicable_mask):
        self.undefined_base[check] += int(np.sum(applicable_mask))
        self.undefined[check] += int(np.sum(applicable_mask & ~defined_mask))

    def merge(self, other: _Accumulator) -> None:
        """Append ``other``'s records, as if they had been recorded here after ours."""
        self.violations.extend(other.violations)
        for check, worst in other.max_slack.items():
            if worst is not None:
                self._raise_max(check, worst)
        for check, count in other.applicable.items():
            self.applicable[check] += count
        for check in UNDEFINED_TRACKED:
            self.undefined[check] += other.undefined[check]
            self.undefined_base[check] += other.undefined_base[check]


def _interleave(parts) -> np.ndarray:
    """Per-row values of the pure (even) rows and of the mixed (odd) rows, ``parts``, in index order."""
    even, odd = parts
    out = np.empty((len(even) + len(odd),) + even.shape[1:], even.dtype)
    out[0::2], out[1::2] = even, odd
    return out


def _row_values(inst: Instance) -> dict:
    """The exact moments and the bounds every row is checked with, over the rows of ``inst``."""
    ms = inst.moments
    rev, dw = reverse_fidelity_product(inst), dw_variance_sum(inst)
    return {
        "product": ms.var_a * ms.var_b,
        "total": ms.var_a + ms.var_b,
        "cov": ms.cov,
        "std_product": ms.std_a * ms.std_b,
        "deviation_sum": ms.std_a + ms.std_b,
        "rs": rs_product(inst).value,
        "fidelity_product": fidelity_product(inst).value,
        "parallelogram_sum": parallelogram_sum(inst).value,
        "reverse_fidelity": rev.value,
        "omega": rev.intermediates["omega"],
        "reverse_defined": rev.defined,
        "dw_deviation": dw_deviation_sum(inst).value,
        "dw_variance": dw.value,
        "dw_defined": dw.defined,  # the two Dunkl-Williams bounds are undefined on the same rows
    }


def _pure_values(inst: Instance, basis: np.ndarray) -> dict:
    """The pure-state bounds over the rows of ``inst``, in the bases ``basis`` and in B's eigenbasis."""
    rev = reverse_basis_product(inst, basis)
    return {
        "basis_product": basis_product(inst, basis).value,
        "basis_sum": basis_sum(inst, basis).value,
        "eigenbasis_product": basis_product(inst, inst.b.eigenvectors).value,
        "reverse_basis": rev.value,
        "lambda": rev.intermediates["lambda"],
        "reverse_basis_defined": rev.defined,
        "mp1": mp_sum_1(inst).value,
        "mp2": mp_sum_2(inst).value,
    }


def _verify_dimension(d: int, n: int, seed: int, acc: _Accumulator) -> dict:
    rng = np.random.default_rng([seed, d])
    # every row's numbers are drawn, in this order, so that each draw keeps its values; a row
    # builds only what its checks read: pure states on the even rows, density matrices on the
    # odd ones, and a Haar basis for each pure row
    halves = (slice(0, None, 2), slice(1, None, 2))
    psi = haar_state(rng, d, n)
    rho = _wishart(_complex_gaussian(rng, (n, d, d))[halves[1]])
    # GUE draws are exactly Hermitian, so the validated matrices keep their bits
    a = Observable(gue_hermitian(rng, d, n))
    b = Observable(gue_hermitian(rng, d, n))
    basis = _phase_fixed_q(_complex_gaussian(rng, (n, d, d))[halves[0]])

    def digest(idx: int) -> str:
        # imported here: digests are made only for violations, and hashlib loads OpenSSL
        import hashlib

        h = hashlib.sha256()
        h.update(np.int64([d, idx]).tobytes())
        h.update(rho[idx // 2].tobytes() if idx % 2 else psi[idx].tobytes())
        h.update(a.matrix[idx].tobytes())
        h.update(b.matrix[idx].tobytes())
        return h.hexdigest()[:16]

    def pure_digest(j: int) -> str:
        return digest(2 * j)

    # one instance of the pure rows and one of the mixed rows; each observable stack is
    # diagonalized in one call, and its halves are views that share the spectrum
    a.eigenvectors, b.eigenvectors
    obs_a, obs_b = [a[h] for h in halves], [b[h] for h in halves]
    states = [psi[halves[0]], rho]
    insts = [Instance(s, x, y) for s, x, y in zip(states, obs_a, obs_b)]
    parts = [_row_values(inst) for inst in insts]
    v = {key: _interleave([part[key] for part in parts]) for key in parts[0]}
    pv = _pure_values(insts[0], basis)  # over the pure rows, in index order
    every, on_pure = np.ones(n, dtype=bool), np.ones(len(basis), dtype=bool)
    product, total, rev_ok, dw_ok = v["product"], v["total"], v["reverse_defined"], v["dw_defined"]

    acc.count_undefined("upper_reverse_fidelity_product", rev_ok, every)
    acc.count_undefined("upper_dw_deviation_sum", dw_ok, every)
    acc.count_undefined("upper_dw_variance_sum", dw_ok, every)
    acc.count_undefined("upper_reverse_basis_product", pv["reverse_basis_defined"], on_pure)
    for check, slack, mask in (
        ("valid_rs_product", v["rs"] - product, every),
        ("cov_cauchy_schwarz", np.abs(v["cov"]) - v["std_product"], every),
        ("valid_fidelity_product", v["fidelity_product"] - product, every),
        ("valid_parallelogram_sum", v["parallelogram_sum"] - total, every),
        ("upper_reverse_fidelity_product", product - v["reverse_fidelity"], rev_ok),
        ("omega_factor_ge_one", 1.0 - v["omega"], rev_ok),
        ("sandwich_product",
         np.maximum(v["fidelity_product"] - product, product - v["reverse_fidelity"]), rev_ok),
        ("upper_dw_deviation_sum", v["deviation_sum"] - v["dw_deviation"], dw_ok),
        ("upper_dw_variance_sum", total - v["dw_variance"], dw_ok),
        ("sandwich_sum", np.maximum(v["parallelogram_sum"] - total, total - v["dw_variance"]), dw_ok),
    ):
        acc.record(check, slack, mask, digest)

    rs, product, total = parts[0]["rs"], parts[0]["product"], parts[0]["total"]
    for check, slack, mask in (
        ("chain_basis_ge_rs", rs - pv["basis_product"], on_pure),
        ("valid_basis_product", pv["basis_product"] - product, on_pure),
        ("valid_basis_sum", pv["basis_sum"] - total, on_pure),
        # eigenbasis of B commutes with the centered B; it must also beat RS
        ("chain_eigenbasis_ge_rs", rs - pv["eigenbasis_product"], on_pure),
        ("upper_reverse_basis_product", product - pv["reverse_basis"], pv["reverse_basis_defined"]),
        ("lambda_factor_ge_one", 1.0 - pv["lambda"], pv["reverse_basis_defined"]),
        ("valid_mp_sum_1", pv["mp1"] - total, on_pure),
        ("valid_mp_sum_2", pv["mp2"] - total, on_pure),
    ):
        acc.record(check, slack, mask, pure_digest)

    # --- invariance spot-checks on the first k rows -------------------------
    # they are the first rows of each half, cuts[0] pure and cuts[1] mixed
    k = min(SUBSET, n)
    cuts = ((k + 1) // 2, k // 2)
    sub_states = [x[:c] for x, c in zip(states, cuts)]
    sub_b = [x[:c] for x, c in zip(obs_b, cuts)]

    def drift(moved) -> np.ndarray:
        """How far the fidelity bounds of the first k rows move under a transform of the inputs.

        ``moved`` holds, for each half, an instance of the transformed inputs,
        or None where the transform leaves the inputs as they are, so that the
        bounds do not move.
        """
        out = []
        for inst, part, c in zip(moved, parts, cuts):
            if inst is None:
                out.append(np.zeros(c))
                continue
            fid = np.abs(fidelity_product(inst).value[:c] - part["fidelity_product"][:c])
            par = np.abs(parallelogram_sum(inst).value[:c] - part["parallelogram_sum"][:c])
            out.append(np.maximum(fid, par))
        return _interleave(out)

    # a global phase changes a state vector and leaves a density matrix as it is, so the
    # check is vacuous on the mixed rows
    phased = [Instance(sub_states[0] * np.exp(0.7j), obs_a[0][:cuts[0]], sub_b[0]), None]
    a_shifted = a[:k].shifted(0.37)
    a_shifted.eigenvectors  # one call for both halves
    shifted = [Instance(x, a_shifted[h], y) for x, h, y in zip(sub_states, halves, sub_b)]
    perm = np.arange(d)[::-1]
    relabel = []
    for inst, c in zip(insts, cuts):
        u, _ = sorted_weighted(inst.eig_devs[0, :c][:, perm], inst.fidelities[0, :c][:, perm])
        relabel.append(np.abs(u - inst.sequences.u[:c]).max(axis=1))
    on_first = np.ones(k, dtype=bool)
    for check, drifted in (("phase_invariance", drift(phased)), ("shift_invariance", drift(shifted)),
                           ("relabel_invariance", _interleave(relabel))):
        acc.record(check, drifted - INVARIANCE_TOL, on_first, digest, tol=0.0)

    # the inputs and the values checked, exposed so tests can pin them to the scalar API:
    # ``rho``, ``basis`` and the pure-state values have one entry per row of their half, the
    # others one per row
    pure = np.arange(n) % 2 == 0
    return {"pure": pure, "psi": psi, "rho": rho, "a": a.matrix, "b": b.matrix, "basis": basis, **v, **pv}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _verify_on_two_threads(dims, n, seed, accs) -> None:
    """Verify ``dims[i]`` into ``accs[i]`` on the calling thread and one helper thread.

    The calling thread starts on the largest dimension, so that only its
    allocator arena holds the largest arrays; then each thread takes the
    largest dimension not yet started, until none is left.  A failing
    dimension does not stop the others, so once the helper is joined the
    exception raised on the calling thread is that of the first failing
    dimension in ``dims`` order, as on one thread.
    """
    order = iter(sorted(range(len(dims)), key=lambda i: -dims[i]))
    lock = threading.Lock()
    errors = {}

    def take():
        with lock:
            return next(order, None)

    def work(i):
        while i is not None:
            try:
                _verify_dimension(dims[i], n, seed, accs[i])
            except Exception as exc:  # raised on the calling thread below
                errors[i] = exc
            i = take()

    first = take()
    helper = threading.Thread(target=lambda: work(take()), name="verify-helper")
    helper.start()
    try:
        work(first)
    finally:
        with lock:  # after an interrupt on this thread the helper stops after its current dimension
            for _ in order:
                pass
        helper.join()
    if errors:
        raise errors[min(errors)]


def run_verification(n: int, dims, seed: int) -> VerificationReport:
    """Check every bound invariant on ``n`` random instances per dimension."""
    if n < 1:
        raise ValueError("instance count must be at least 1")
    dims = [int(d) for d in dims]
    if not dims or any(d < 2 for d in dims):
        raise ValueError("dims must be a non-empty list of integers >= 2")

    accs = [_Accumulator() for _ in dims]
    if len(dims) > 1 and _usable_cpus() > 1:
        _verify_on_two_threads(dims, n, seed, accs)
    else:
        for d, part in zip(dims, accs):
            _verify_dimension(d, n, seed, part)
    acc = _Accumulator()
    for part in accs:
        acc.merge(part)

    undefined_fraction = {
        check: (acc.undefined[check] / acc.undefined_base[check]) if acc.undefined_base[check] else 0.0
        for check in UNDEFINED_TRACKED
    }
    metadata = {
        "n_per_dim": n,
        "dims": dims,
        "seed": int(seed),
        "rng": RNG_NAME,
        "tolerance": TOL,
        "state_mix": "even indices pure (Haar), odd indices mixed (normalized Wishart)",
        "versions": {"varbounds": _pkg_version, "numpy": np.__version__},
    }
    return VerificationReport(
        instances=n * len(dims),
        violations=acc.violations,
        undefined_fraction=undefined_fraction,
        max_slack=acc.max_slack,
        applicable=acc.applicable,
        metadata=metadata,
    )
