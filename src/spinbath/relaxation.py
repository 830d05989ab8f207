"""Relaxation rate, P(t) law, and the level-shift operator entries.

All integrals run over a KernelTable through cubic splines, with a = q0^2/pi
applied here (tables exclude it).  For superohmic baths the damping envelope
saturates at E_inf = exp(-a C2) > 0 instead of decaying; the integrals then
exist only as Abel limits, handled by subtracting the exact asymptotic
integrand on [0, t_max] and adding its closed-form Abel tail:

    x(+eps):  subtract E_inf cos(eps t - phi),  tail  E_inf sin(phi)/eps
    x(-eps):  subtract E_inf cos(eps t + phi),  tail -E_inf sin(phi)/eps
    z, rate:  subtract E_inf cos(eps t) (times cos(phi) for the rate), tail 0

with phi = a Q1(inf).  The +-sin(phi)/eps tails cancel in Im(x(+eps)+x(-eps)),
so the trace identity survives the regularization exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .bath_correlations import KernelTable, tabulate_kernels
from .errors import AccuracyError, DivergentIntegralError, DomainError
from .quadrature import integrate_refining
from .spectral_density import BathSpec

_ENVELOPE_FLOOR = 1e-12
_DECAY_THRESHOLD = -np.log(_ENVELOPE_FLOOR)


@dataclass(frozen=True)
class RateReport:
    tau_inv: float
    tau0_inv: float
    p_inf: float
    err: float
    damping_ok: bool


@dataclass(frozen=True, eq=False)
class LevelShiftMatrix:
    x_plus: complex
    x_minus: complex
    z: complex
    matrix: np.ndarray
    db_residual: float
    trace_gap: float
    kernel_residual: float


def p_infinity(spec: BathSpec) -> float:
    """Equilibrium value P(inf) = -tanh(beta eps / 2)."""
    return float(-np.tanh(0.5 * spec.beta * spec.eps))


@dataclass(frozen=True)
class _Envelope:
    a: float
    e_inf: float
    phi: float
    damping_ok: bool
    mismatch: float


def _envelope(spec: BathSpec, table: KernelTable) -> _Envelope:
    if spec.q0 == 0.0:
        raise DivergentIntegralError(
            "q0 = 0: undamped integrand, the time integrals diverge")
    a = spec.q0 ** 2 / np.pi
    end = a * table.q2[-1]
    damping_ok = bool(end >= _DECAY_THRESHOLD)
    c2 = table.tail.c2_inf
    e_inf = 0.0
    mismatch = 0.0
    if not damping_ok and np.isfinite(c2) and a * c2 < _DECAY_THRESHOLD:
        e_inf = float(np.exp(-a * c2))
        mismatch = abs(float(np.exp(-end)) - e_inf)
    phi = a * table.tail.q1_limit
    return _Envelope(a=a, e_inf=e_inf, phi=phi, damping_ok=damping_ok,
                     mismatch=mismatch)


def _oscillation_edges(spec: BathSpec, table: KernelTable, a: float,
                       s1: CubicSpline, s2: CubicSpline) -> np.ndarray:
    T = float(table.t_grid[-1])
    d1, d2 = s1.derivative(), s2.derivative()
    lo, hi = T / 4000.0, T / 8.0
    edges = [0.0]
    t = 0.0
    while t < T:
        rate = abs(spec.eps) + a * (abs(float(d1(t))) + abs(float(d2(t))))
        width = min(hi, max(lo, 0.25 * np.pi / max(rate, 1.0 / T)))
        t = min(t + width, T)
        edges.append(t)
    return np.asarray(edges)


def _integrate_lso(spec: BathSpec, table: KernelTable, tol: float):
    """Common quadrature: rows (x_plus, x_minus, z, rate) on [0, t_max].

    Raises AccuracyError if the table or this quadrature did not converge.
    """
    if not table.converged:
        raise AccuracyError("kernel table did not converge; its err_est shows "
                            "where", err=float(np.max(table.err_est)))
    env = _envelope(spec, table)
    a, e_inf, phi = env.a, env.e_inf, env.phi
    eps = spec.eps
    if e_inf > 0.0 and eps == 0.0:
        raise DivergentIntegralError(
            "saturated envelope at eps = 0: the Abel regularization diverges")
    t = table.t_grid
    s1 = CubicSpline(t, table.q1)
    s2 = CubicSpline(t, table.q2)
    sz = CubicSpline(t, table.qz)
    edges = _oscillation_edges(spec, table, a, s1, s2)

    def rows(tt):
        q1v, q2v, qzv = s1(tt), s2(tt), sz(tt)
        e2 = np.exp(-a * q2v)
        ez = np.exp(-a * qzv)
        ph = eps * tt
        xp = np.cos(ph - a * q1v) * e2 - e_inf * np.cos(ph - phi)
        xm = np.cos(ph + a * q1v) * e2 - e_inf * np.cos(ph + phi)
        zz = np.cos(ph) * ez - e_inf * np.cos(ph)
        rr = np.cos(ph) * np.cos(a * q1v) * e2 - e_inf * np.cos(phi) * np.cos(ph)
        return np.vstack([xp, xm, zz, rr])

    res = integrate_refining(rows, edges, rtol=tol)
    if not res.converged:
        raise AccuracyError("level-shift quadrature did not converge",
                            partial=res.values, err=float(np.max(res.errors)))
    values = res.values
    if e_inf > 0.0:
        tail = e_inf * np.sin(phi) / eps
        values = values + np.array([tail, -tail, 0.0, 0.0])
    env_len = float(np.trapezoid(np.exp(-a * table.q2), t))
    err_table = a * float(np.max(table.err_est[:, :2])) * env_len
    if env.mismatch > 0.0:
        err_table += env.mismatch / abs(eps)
    elif not env.damping_ok:
        end = float(np.exp(-a * table.q2[-1]))
        err_table += end / max(abs(eps), a * table.tail.q2_slope, 1.0 / t[-1])
    err = float(np.max(res.errors)) + err_table
    return values, err, env


def gamma_rate(spec: BathSpec, table: KernelTable, tol: float = 1e-8) -> RateReport:
    """Relaxation rate tau^-1 = delta^2 int_0^inf cos(eps t) cos(a Q1) e^{-a Q2} dt."""
    values, err, env = _integrate_lso(spec, table, tol)
    tau0_inv = float(values[3])
    return RateReport(tau_inv=float(spec.delta ** 2 * tau0_inv),
                      tau0_inv=tau0_inv,
                      p_inf=p_infinity(spec),
                      err=err,
                      damping_ok=env.damping_ok)


def p_of_t(spec: BathSpec, rate: RateReport, t: float) -> float:
    """P(t) = P(inf) + [1 - P(inf)] exp(-t/tau); constant 1 when delta = 0."""
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    p_inf = rate.p_inf
    return float(p_inf + (1.0 - p_inf) * np.exp(-t * rate.tau_inv))


def lso_entries(spec: BathSpec, table: KernelTable, tol: float = 1e-8):
    """(x_plus, x_minus, z, err): the level-shift matrix entries."""
    values, err, _ = _integrate_lso(spec, table, tol)
    x_plus = 0.5j * values[0]
    x_minus = 0.5j * values[1]
    z = -0.5j * values[2]
    return x_plus, x_minus, z, err


def _gibbs_vector(spec: BathSpec) -> np.ndarray:
    c = 0.25 * spec.beta * spec.eps
    v = np.array([np.exp(-c - abs(c)), np.exp(c - abs(c))])
    return v / np.linalg.norm(v)


def _db_residual(spec: BathSpec, x_plus: complex, z: complex) -> float:
    c = 0.5 * spec.beta * spec.eps
    floor = 1e-300
    if c <= 300.0:
        return float(abs(x_plus + np.exp(c) * z) / max(abs(x_plus), floor))
    return float(np.exp(c) * abs(np.exp(-c) * x_plus + z) / max(abs(x_plus), floor))


def lso_matrix(spec: BathSpec, table: KernelTable, tol: float = 1e-8) -> LevelShiftMatrix:
    """Assemble Lambda_0 = [[x(eps), z], [z, x(-eps)]] with its diagnostics.

    tau0_inv for the trace gap comes from gamma_rate, whose quadrature
    refines independently of the entry integrals.
    """
    x_plus, x_minus, z, err = lso_entries(spec, table, tol)
    matrix = np.array([[x_plus, z], [z, x_minus]])
    tau0_inv = gamma_rate(spec, table, tol).tau0_inv
    trace_gap = float(abs((x_plus + x_minus).imag - tau0_inv) / abs(tau0_inv))
    psi = _gibbs_vector(spec)
    kernel_residual = float(np.linalg.norm(matrix @ psi))
    return LevelShiftMatrix(x_plus=x_plus, x_minus=x_minus, z=z, matrix=matrix,
                            db_residual=_db_residual(spec, x_plus, z),
                            trace_gap=trace_gap,
                            kernel_residual=kernel_residual)


def fgr_check(spec: BathSpec, table: KernelTable, tol: float = 1e-8):
    """(effective, tau0_inv): is the Fermi-Golden-Rule rate resolvably nonzero."""
    rate = gamma_rate(spec, table, tol)
    return rate.tau0_inv > 10.0 * rate.err, rate.tau0_inv


def default_time_horizon(spec: BathSpec, max_doublings: int = 8) -> float:
    """A t_max at which the damping envelope has decayed or visibly saturated."""
    if spec.q0 == 0.0:
        raise DivergentIntegralError("q0 = 0: no damping, no finite horizon")
    a = spec.q0 ** 2 / np.pi
    eps_scale = 1.0 / abs(spec.eps) if spec.eps != 0.0 else 1.0
    T = 8.0 * max(spec.beta, 1.0, eps_scale)
    for _ in range(max_doublings):
        probe = tabulate_kernels(spec, T, 64, tol=1e-6)
        if not probe.converged:
            raise AccuracyError("horizon probe at t_max=%g did not converge" % T,
                                err=float(np.max(probe.err_est)))
        end = a * probe.q2[-1]
        if end >= _DECAY_THRESHOLD:
            return T
        c2 = probe.tail.c2_inf
        if np.isfinite(c2) and abs(a * (probe.q2[-1] - c2)) < 1e-3 * max(1.0, a * c2):
            return T
        T *= 2.0
    return T


def report_dict(spec: BathSpec, rate: RateReport, lso: LevelShiftMatrix) -> dict:
    """The JSON-ready relaxation report."""
    def pair(w):
        return [float(w.real), float(w.imag)]

    return {
        "params": {"beta": spec.beta, "eps": spec.eps, "delta": spec.delta,
                   "q0": spec.q0, "h": spec.h.content_key()},
        "tau_inv": float(rate.tau_inv),
        "tau0_inv": float(rate.tau0_inv),
        "p_inf": float(rate.p_inf),
        "lso": {"x_plus": pair(lso.x_plus), "x_minus": pair(lso.x_minus),
                "z": pair(lso.z)},
        "db_residual": float(lso.db_residual),
        "trace_gap": float(lso.trace_gap),
        "kernel_residual": float(lso.kernel_residual),
        "err": float(rate.err),
        "damping_ok": bool(rate.damping_ok),
    }
