"""Host-speed probes: fixed reference kernels timed between the benchmark's calls.

The shared host the baseline comes from changes speed by up to 2x in
phases of seconds to minutes, also in CPU time (see NOTE.md, *Noise*).  Ten
runs of the same code then spread by more than any bound the benchmark may
set.  A probe is a fixed piece of work of the same kind as the calls it
brackets, done by the benchmark's own code and never by varbounds, so no
change to varbounds can move it.  A call's time is scaled by
``NOMINAL_S / probe``, where ``probe`` is the mean of the probes just before
and just after the call: the result is the call's time at the host's nominal
speed.  A slower or faster varbounds still shows in full; a slower host
does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(1607)
_G = _rng.standard_normal((2, 4, 4)) + 1j * _rng.standard_normal((2, 4, 4))
_A, _B = _G + _G.conj().transpose(0, 2, 1)
_PSI = _rng.standard_normal(4) + 1j * _rng.standard_normal(4)
_PSI /= np.linalg.norm(_PSI)


def _unitary(theta: np.ndarray) -> np.ndarray:
    g = np.zeros((4, 4), dtype=complex)
    k = 0
    for i in range(4):
        for j in range(i + 1, 4):
            g[i, j] = theta[k] + 1j * theta[k + 1]
            g[j, i] = -np.conj(g[i, j])
            k += 2
    w, v = np.linalg.eigh(-1j * g)
    return (v * np.exp(1j * w)) @ v.conj().T


def _product(theta: np.ndarray) -> float:
    u = _unitary(theta)
    c = np.abs(u.conj().T @ _PSI) ** 2
    ea = np.real(np.diag(u.conj().T @ _A @ u))
    eb = np.real(np.diag(u.conj().T @ _B @ u))
    return float(c @ ea**2 - (c @ ea) ** 2) * float(c @ eb**2 - (c @ eb) ** 2)


def scalar_kernel() -> float:
    """One compass step over a 4x4 unitary: Python loops around small numpy calls."""
    theta = np.zeros(12)
    best = _product(theta)
    for k in range(12):
        for sign in (1.0, -1.0):
            trial = theta.copy()
            trial[k] += 0.5 * sign
            value = _product(trial)
            if value > best:
                best, theta = value, trial
    return best


def batched_kernel(stack: np.ndarray) -> float:
    """Four Jacobi-style rotations on a stack of 4x4 matrices."""
    a = stack.copy()
    for p, q in ((0, 1), (2, 3), (0, 2), (1, 3)):
        apq = a[:, p, q]
        r = np.abs(apq)
        w = apq / (r + 1e-300)
        tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * r + 1e-300)
        t = -np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        cp = a[:, :, p].copy()
        cq = a[:, :, q]
        a[:, :, p] = c[:, None] * cp + (s * np.conj(w))[:, None] * cq
        a[:, :, q] = -s[:, None] * cp + (c * np.conj(w))[:, None] * cq
    return float(np.abs(a).sum())


KERNELS = {"scalar": scalar_kernel, "batched": batched_kernel}
# Each kernel's time at the host's nominal speed: its usual time in the fast
# phases of the host the baseline comes from (see NOTE.md).  Only the unit
# depends on these constants, not the comparison of two commits.
NOMINAL_S = {"scalar": 1.30e-3, "batched": 9.0e-3}
# Kernel runs per probe, and how their times are combined.  A call's time
# takes in every burst of a busy host during it, so the short scalar kernel
# is probed by the mean of nine runs.  One run of the batched kernel is long
# enough to take in the bursts itself; the median of three keeps one
# interrupted run from setting it.
PROBE_RUNS = {"scalar": (9, statistics.fmean), "batched": (3, statistics.median)}
PROBE_EVERY_S = 0.05  # calls shorter than this share the probes around them


class Probe:
    """Times one kernel between calls and scales call times to nominal speed."""

    def __init__(self, kind: str):
        self.kernel = KERNELS[kind]
        self.nominal = NOMINAL_S[kind]
        self.runs, self.combine = PROBE_RUNS[kind]
        self.args = ()
        if kind == "batched":  # made here, so that scalar probes do not hold it in memory
            g = np.random.default_rng(1607).standard_normal((2, 10_000, 4, 4))
            self.args = (g[0] + 1j * g[1],)
        self.kernel(*self.args)  # first call builds numpy's caches
        self.last = self.measure()
        self.at = time.perf_counter()

    def measure(self) -> float:
        """The time of one kernel run, combined over ``runs`` runs."""
        times = []
        for _ in range(self.runs):
            t0 = time.perf_counter()
            self.kernel(*self.args)
            times.append(time.perf_counter() - t0)
        return self.combine(times)

    def between(self) -> float:
        """A fresh probe if the last is older than ``PROBE_EVERY_S``, else the last."""
        if time.perf_counter() - self.at >= PROBE_EVERY_S:
            self.last = self.measure()
            self.at = time.perf_counter()
        return self.last

    def scale(self, before: float, after: float) -> float:
        return self.nominal / (0.5 * (before + after))
