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
  deterministic subsample.

All math here is vectorized over instances.  The engine diagonalizes its
observable stacks with ``np.linalg.eigh`` directly, the same LAPACK routine
behind the scalar API's ``Observable``, and shares the sequence and pairing
kernels with it (``sorted_weighted``, ``pairing_sums``,
``parallelogram_values``), the reverse bounds' positivity rule and reverse
factor (``_strictly_positive``, ``ReverseFactor``) and the Frobenius scale
of the basis floor (``deviation_norm``); a test pins the batched formulas
against the scalar API's.  Nothing here depends on eigenvector phases:
only eigenvalues and the fidelities <v|rho|v> are used, and GUE spectra
are non-degenerate with probability 1.

Any violation means an implementation bug: the inequalities are theorems.
The report is deterministic under a fixed seed and carries no timestamps:
two runs on one machine give identical bytes, and across machines the
bytes agree as far as their LAPACK builds agree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _pkg_version
from .linalg import require_hermitian
from .lower_bounds import pairing_sums, parallelogram_values
from .moments import deviation_norm, sorted_weighted
from .random_ensembles import (
    RNG_NAME,
    gue_hermitian,
    haar_state,
    haar_unitary,
    wishart_density_matrix,
)
from .upper_bounds import DENOMINATOR_TOL, ReverseFactor, _strictly_positive

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


@dataclass(frozen=True)
class Violation:
    check: str
    digest: str
    slack: float


@dataclass
class VerificationReport:
    instances: int
    violations: list
    undefined_fraction: dict
    max_slack: dict
    applicable: dict
    metadata: dict = field(default_factory=dict)

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
            worst = float(slack[mask].max())
            prev = self.max_slack[check]
            self.max_slack[check] = worst if prev is None else max(prev, worst)
            for idx in np.nonzero(mask & (slack > tol))[0]:
                self.violations.append(
                    Violation(check=check, digest=digest_fn(int(idx)), slack=float(slack[idx]))
                )

    def count_undefined(self, check, defined_mask, applicable_mask):
        self.undefined_base[check] += int(np.sum(applicable_mask))
        self.undefined[check] += int(np.sum(applicable_mask & ~defined_mask))


def _tr_product(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nji->n", rho, m)


def _verify_dimension(d: int, n: int, seed: int, acc: _Accumulator) -> None:
    rng = np.random.default_rng([seed, d])
    psi = haar_state(rng, d, n)
    rho_mixed = wishart_density_matrix(rng, d, n)
    a = gue_hermitian(rng, d, n)
    b = gue_hermitian(rng, d, n)
    basis = haar_unitary(rng, d, n)

    pure = np.arange(n) % 2 == 0
    rho = np.where(
        pure[:, None, None], np.einsum("ni,nj->nij", psi, psi.conj()), rho_mixed
    )

    def digest(idx: int) -> str:
        h = hashlib.sha256()
        h.update(np.int64([d, idx]).tobytes())
        state_bytes = psi[idx].tobytes() if pure[idx] else rho_mixed[idx].tobytes()
        h.update(state_bytes)
        h.update(np.ascontiguousarray(a[idx]).tobytes())
        h.update(np.ascontiguousarray(b[idx]).tobytes())
        return h.hexdigest()[:16]

    # --- moments -----------------------------------------------------------
    mean_a = _tr_product(rho, a).real
    mean_b = _tr_product(rho, b).real
    z = _tr_product(rho, a @ b)  # Re -> half anticommutator, Im -> half commutator
    cov = z.real - mean_a * mean_b
    var_a = np.maximum(_tr_product(rho, a @ a).real - mean_a**2, 0.0)
    var_b = np.maximum(_tr_product(rho, b @ b).real - mean_b**2, 0.0)
    std_a, std_b = np.sqrt(var_a), np.sqrt(var_b)
    product = var_a * var_b
    total = var_a + var_b
    rs = cov**2 + z.imag**2
    every = np.ones(n, dtype=bool)

    acc.record("valid_rs_product", rs - product, every, digest)
    acc.record("cov_cauchy_schwarz", np.abs(cov) - std_a * std_b, every, digest)

    # --- fidelity-weighted sequences ----------------------------------------
    wa, va = np.linalg.eigh(require_hermitian(a))
    wb, vb = np.linalg.eigh(require_hermitian(b))
    fid_a = np.maximum(np.einsum("nim,nij,njm->nm", va.conj(), rho, va).real, 0.0)
    fid_b = np.maximum(np.einsum("nim,nij,njm->nm", vb.conj(), rho, vb).real, 0.0)
    u, _ = sorted_weighted(wa - mean_a[:, None], fid_a)
    v, _ = sorted_weighted(wb - mean_b[:, None], fid_b)

    asc, alt = pairing_sums(u, v)
    fid_val = np.maximum(asc**2, alt**2)
    acc.record("valid_fidelity_product", fid_val - product, every, digest)

    par_val, _ = parallelogram_values(u, v)
    acc.record("valid_parallelogram_sum", par_val - total, every, digest)

    # --- reverse fidelity bound ---------------------------------------------
    c_seq, d_seq = np.abs(u), np.abs(v)
    scale_a = np.abs(wa - mean_a[:, None]).max(axis=1)
    scale_b = np.abs(wb - mean_b[:, None]).max(axis=1)
    rev_defined = _strictly_positive(c_seq, scale_a) & _strictly_positive(d_seq, scale_b)
    acc.count_undefined("upper_reverse_fidelity_product", rev_defined, every)
    omega = ReverseFactor.from_sequences(c_seq, d_seq).factor
    rev_fid = omega * np.einsum("ni,ni->n", c_seq, d_seq) ** 2
    acc.record("upper_reverse_fidelity_product", product - rev_fid, rev_defined, digest)
    acc.record("omega_factor_ge_one", 1.0 - omega, rev_defined, digest)
    acc.record(
        "sandwich_product",
        np.maximum(fid_val - product, product - rev_fid),
        rev_defined,
        digest,
    )

    # --- Dunkl-Williams bounds ----------------------------------------------
    nonnull = (var_a > 0) & (var_b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = 1.0 - cov / np.where(nonnull, std_a * std_b, 1.0)
    dw_defined = nonnull & (denom > DENOMINATOR_TOL)
    acc.count_undefined("upper_dw_deviation_sum", dw_defined, every)
    acc.count_undefined("upper_dw_variance_sum", dw_defined, every)
    var_diff = np.maximum(total - 2.0 * cov, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_bound = np.sqrt(2.0 * var_diff / np.where(dw_defined, denom, 1.0))
        var_bound = 2.0 * var_diff / np.where(dw_defined, denom, 1.0) - 2.0 * std_a * std_b
    acc.record("upper_dw_deviation_sum", (std_a + std_b) - dev_bound, dw_defined, digest)
    acc.record("upper_dw_variance_sum", total - var_bound, dw_defined, digest)
    acc.record(
        "sandwich_sum",
        np.maximum(par_val - total, total - var_bound),
        dw_defined,
        digest,
    )

    # --- pure-state basis checks --------------------------------------------
    f = np.einsum("nij,nj->ni", a, psi) - mean_a[:, None] * psi
    g = np.einsum("nij,nj->ni", b, psi) - mean_b[:, None] * psi
    alpha = np.abs(np.einsum("nim,ni->nm", basis.conj(), f))
    beta = np.abs(np.einsum("nim,ni->nm", basis.conj(), g))
    basis_prod = np.einsum("nm,nm->n", alpha, beta) ** 2
    basis_sum = 0.5 * ((alpha + beta) ** 2).sum(axis=1)

    acc.record("chain_basis_ge_rs", rs - basis_prod, pure, digest)
    acc.record("valid_basis_product", basis_prod - product, pure, digest)
    acc.record("valid_basis_sum", basis_sum - total, pure, digest)

    # eigenbasis of B commutes with the centered B; it must also beat RS
    alpha_e = np.abs(np.einsum("nim,ni->nm", vb.conj(), f))
    beta_e = np.abs(np.einsum("nim,ni->nm", vb.conj(), g))
    eig_prod = np.einsum("nm,nm->n", alpha_e, beta_e) ** 2
    acc.record("chain_eigenbasis_ge_rs", rs - eig_prod, pure, digest)

    rev_basis_defined = (_strictly_positive(alpha, deviation_norm(a, mean_a))
                         & _strictly_positive(beta, deviation_norm(b, mean_b)) & pure)
    acc.count_undefined("upper_reverse_basis_product", rev_basis_defined, pure)
    lam = ReverseFactor.from_sequences(alpha, beta).factor
    rev_basis = lam * np.einsum("nm,nm->n", alpha, beta) ** 2
    acc.record("upper_reverse_basis_product", product - rev_basis, rev_basis_defined, digest)
    acc.record("lambda_factor_ge_one", 1.0 - lam, rev_basis_defined, digest)

    # --- perpendicular-state baselines (analytic suprema) --------------------
    mp1 = np.full(n, -np.inf)
    for sign in (1.0, -1.0):
        w = np.einsum("nij,nj->ni", a - sign * 1j * b, psi)
        w_perp = w - psi * np.einsum("ni,ni->n", psi.conj(), w)[:, None]
        amp = np.einsum("ni,ni->n", w_perp.conj(), w_perp).real
        term1 = -2.0 * sign * z.imag
        mp1 = np.maximum(mp1, term1 + amp)
    acc.record("valid_mp_sum_1", mp1 - total, pure, digest)

    mp2 = 0.5 * (total + 2.0 * cov)
    acc.record("valid_mp_sum_2", mp2 - total, pure, digest)

    # --- invariance spot-checks on a deterministic subsample -----------------
    k = min(SUBSET, n)
    sel = np.arange(k)
    phase = np.exp(0.7j)
    psi_rot = psi[sel] * phase
    rho_rot = np.where(
        pure[sel, None, None],
        np.einsum("ni,nj->nij", psi_rot, psi_rot.conj()),
        rho_mixed[sel],
    )
    fid_a2 = np.maximum(np.einsum("nim,nij,njm->nm", va[sel].conj(), rho_rot, va[sel]).real, 0.0)
    fid_b2 = np.maximum(np.einsum("nim,nij,njm->nm", vb[sel].conj(), rho_rot, vb[sel]).real, 0.0)
    u2, _ = sorted_weighted(wa[sel] - mean_a[sel, None], fid_a2)
    v2, _ = sorted_weighted(wb[sel] - mean_b[sel, None], fid_b2)
    asc2, alt2 = pairing_sums(u2, v2)
    par2, _ = parallelogram_values(u2, v2)
    drift = np.maximum(
        np.abs(np.maximum(asc2**2, alt2**2) - fid_val[sel]), np.abs(par2 - par_val[sel])
    )
    acc.record("phase_invariance", drift - INVARIANCE_TOL, np.ones(k, bool), digest, tol=0.0)

    shift = 0.37
    wa_s, va_s = np.linalg.eigh(require_hermitian(a[sel] + shift * np.eye(d)))
    fid_a3 = np.maximum(np.einsum("nim,nij,njm->nm", va_s.conj(), rho[sel], va_s).real, 0.0)
    u3, _ = sorted_weighted(wa_s - (mean_a[sel] + shift)[:, None], fid_a3)
    asc3, alt3 = pairing_sums(u3, v[sel])
    par3, _ = parallelogram_values(u3, v[sel])
    drift = np.maximum(
        np.abs(np.maximum(asc3**2, alt3**2) - fid_val[sel]), np.abs(par3 - par_val[sel])
    )
    acc.record("shift_invariance", drift - INVARIANCE_TOL, np.ones(k, bool), digest, tol=0.0)

    perm = np.arange(d)[::-1]
    u4, _ = sorted_weighted((wa[sel] - mean_a[sel, None])[:, perm], fid_a[sel][:, perm])
    drift = np.abs(u4 - u[sel]).max(axis=1)
    acc.record("relabel_invariance", drift - INVARIANCE_TOL, np.ones(k, bool), digest, tol=0.0)

    # per-instance arrays, exposed so tests can pin the engine to the scalar API
    return {
        "pure": pure, "psi": psi, "rho_mixed": rho_mixed, "a": a, "b": b,
        "basis": basis, "product": product, "total": total, "rs": rs,
        "fidelity_product": fid_val, "parallelogram_sum": par_val,
        "reverse_fidelity": rev_fid, "reverse_defined": rev_defined,
        "dw_deviation": dev_bound, "dw_variance": var_bound, "dw_defined": dw_defined,
        "basis_product": basis_prod, "basis_sum": basis_sum,
        "reverse_basis": rev_basis, "reverse_basis_defined": rev_basis_defined,
        "mp1": mp1, "mp2": mp2,
    }


def run_verification(n: int, dims, seed: int) -> VerificationReport:
    """Check every bound invariant on ``n`` random instances per dimension."""
    if n < 1:
        raise ValueError("instance count must be at least 1")
    dims = [int(d) for d in dims]
    if not dims or any(d < 2 for d in dims):
        raise ValueError("dims must be a non-empty list of integers >= 2")

    acc = _Accumulator()
    for d in dims:
        _verify_dimension(d, n, seed, acc)

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
