"""Relaxation rate, P(t) law, and the level-shift operator entries.

All integrals run over a KernelTable through not-a-knot cubic splines, with
a = q0^2/pi applied here (tables exclude it).  For superohmic baths the
damping envelope saturates at E_inf = exp(-a C2) > 0 instead of decaying;
the integrals then exist only as Abel limits.  Every row (x(+eps), x(-eps),
z and the rate) subtracts the same asymptotic integrand E_inf cos(eps t) on
[0, t_max].  The Abel tail of that term,
lim_{eta->0} int_0^inf E_inf cos(eps t) e^{-eta t} dt
= lim E_inf eta / (eta^2 + eps^2), is 0 for eps != 0, so nothing is added
back; at eps = 0 it diverges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg import solve_banded

from .bath_correlations import (KernelTable, c2_saturation, j_source_from_spec,
                                q2, require_tabulable)
from .errors import DivergentIntegralError, DomainError, ScalingError
from .quadrature import integrate_refining
from .spectral_density import BathSpec

_ENVELOPE_FLOOR = 1e-12
_DECAY_THRESHOLD = -np.log(_ENVELOPE_FLOOR)
_HORIZON_DOUBLINGS = 8
# the largest x with a finite exp(x), about 709.78
_EXP_LIMIT = float(np.log(np.finfo(float).max))


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
    damping_ok: bool
    mismatch: float


def _envelope(spec: BathSpec, table: KernelTable) -> _Envelope:
    if spec.q0 == 0.0:
        raise DivergentIntegralError(
            "q0 = 0: undamped integrand, the time integrals diverge")
    a = spec.q0 ** 2 / np.pi
    end = a * table.q2[-1]
    damping_ok = bool(end >= _DECAY_THRESHOLD)
    c2 = table.c2_inf
    e_inf = 0.0
    mismatch = 0.0
    if not damping_ok and np.isfinite(c2) and a * c2 < _DECAY_THRESHOLD:
        e_inf = float(np.exp(-a * c2))
        mismatch = abs(float(np.exp(-end)) - e_inf)
    return _Envelope(a=a, e_inf=e_inf, damping_ok=damping_ok,
                     mismatch=mismatch)


# PPoly.derivative's factors for the c[:-1] of a cubic
_DERIVATIVE = np.array([[3.0], [2.0], [1.0]])


def _not_a_knot(x, y) -> np.ndarray:
    """The not-a-knot cubic splines through the rows of y on knots x (de Boor,
    A Practical Guide to Splines, 2001), bitwise scipy's
    ``CubicSpline(x, y, axis=1)``.

    Returns the coefficients c[k, j, i] of row k in scipy's PPoly layout: on
    [x[i], x[i+1]] spline k is sum_j c[k, j, i] (t - x[i])^(3 - j).  The
    knot slopes of all rows come from one banded system with one
    right-hand side per row, built by the same expressions in the same
    order and solved by the same LAPACK call as scipy 1.17's CubicSpline
    for n >= 4 knots.  The tridiagonal solver runs a separate loop for a
    single right-hand side, so a row can differ from the one-row
    ``CubicSpline(x, y[k])`` in its last bits: about 1 in 10^4 random rows
    do, no kernel table tested does.  Fewer knots, and inputs that
    CubicSpline rejects, raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 2 or y.shape[1] != x.size:
        raise ValueError("x must be 1-dimensional and y 2-dimensional, with "
                         "rows of the length of x")
    n = len(x)
    if n < 4:
        raise ValueError("x must contain at least 4 elements")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must contain only finite values")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("x must be a strictly increasing sequence")
    # scipy's layout: knots along axis 0, one column per row of y
    y = y.T
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    A = np.zeros((3, n))
    b = np.empty(y.shape)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    A[1, 0] = dx[1]
    A[0, 1] = x[2] - x[0]
    d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    A[1, -1] = dx[-2]
    A[-1, -2] = x[-1] - x[-3]
    d = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2]
             + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    # CubicHermiteSpline's coefficients from the knot slopes s
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return np.moveaxis(c, -1, 0)


def _spline_values(x: np.ndarray, c: np.ndarray, t) -> np.ndarray:
    """Values at t of the splines with coefficients c[..., 4, n-1] on knots x.

    PPoly's rule: the interval is the last knot <= t, clipped to the end
    intervals (which extrapolate), and the value is
    c3 + c2 s + c1 (s s) + c0 ((s s) s), summed left to right.  One interval
    search serves every spline of the stack; the sum is formed in place,
    which reorders no rounding (a + b and b + a are bitwise equal).
    """
    i = np.clip(np.searchsorted(x, t, "right") - 1, 0, len(x) - 2)
    s = t - x[i]
    ss = s * s
    ci = np.take(c, i, axis=-1)
    value = ci[..., 2, :] * s
    value += ci[..., 3, :]
    ci[..., 1, :] *= ss
    value += ci[..., 1, :]
    ss *= s
    ci[..., 0, :] *= ss
    value += ci[..., 0, :]
    return value


def _oscillation_edges(spec: BathSpec, table: KernelTable, a: float,
                       c: np.ndarray) -> np.ndarray:
    """Panel edges whose widths follow the local phase rate of the integrand.

    c[0] and c[1] are the coefficients of the Q1 and Q2 splines on the
    table's grid, in PPoly layout (scipy's CubicSpline has it too).  Their
    derivatives are evaluated from the coefficients c[:-1] * (3, 2, 1),
    which PPoly.derivative computes, by PPoly's interval rule and summation
    order, so the edges are bitwise those of ``d(t)`` calls, without the
    per-call overhead.
    """
    T = float(table.t_grid[-1])
    x = table.t_grid.tolist()
    (a1, b1, c1), (a2, b2, c2) = (c[:2, :-1] * _DERIVATIVE).tolist()
    last = len(x) - 2
    lo, hi = T / 4000.0, T / 8.0
    edges = [0.0]
    t = 0.0
    i = 0
    while t < T:
        while i < last and x[i + 1] <= t:
            i += 1
        s = t - x[i]
        ss = s * s
        v1 = c1[i] + b1[i] * s + a1[i] * ss
        v2 = c2[i] + b2[i] * s + a2[i] * ss
        rate = abs(spec.eps) + a * (abs(v1) + abs(v2))
        width = min(hi, max(lo, 0.25 * np.pi / max(rate, 1.0 / T)))
        t = min(t + width, T)
        edges.append(t)
    return np.asarray(edges)


def _integrate_lso(spec: BathSpec, table: KernelTable, tol: float):
    """Common quadrature: rows (x_plus, x_minus, z, rate) on [0, t_max].

    Raises AccuracyError if the quadrature did not converge.
    """
    env = _envelope(spec, table)
    a, e_inf = env.a, env.e_inf
    eps = spec.eps
    if e_inf > 0.0 and eps == 0.0:
        raise DivergentIntegralError(
            "saturated envelope at eps = 0: the constant E_inf term has no "
            "Abel limit")
    t = table.t_grid
    coef = _not_a_knot(t, np.stack([table.q1, table.q2, table.qz]))
    edges = _oscillation_edges(spec, table, a, coef)

    def rows(tt, w):
        q1v, q2v, qzv = _spline_values(t, coef, tt)
        e2 = np.exp(-a * q2v)
        ez = np.exp(-a * qzv)
        ph = eps * tt
        c = np.cos(ph)
        sub = e_inf * c
        xp = np.cos(ph - a * q1v) * e2 - sub
        xm = np.cos(ph + a * q1v) * e2 - sub
        zz = c * ez - sub
        rr = c * np.cos(a * q1v) * e2 - sub
        return np.array([np.sum(row * w) for row in (xp, xm, zz, rr)])

    res = integrate_refining(rows, edges, rtol=tol, what="level-shift quadrature")
    env_len = float(np.trapezoid(np.exp(-a * table.q2), t))
    err_table = a * float(np.max(table.err_est[:, :2])) * env_len
    if env.mismatch > 0.0:
        err_table += env.mismatch / abs(eps)
    elif not env.damping_ok:
        # Q2's linear growth rate, fitted on t >= t_max / 10
        sel = t >= 0.999 * (t[-1] / 10.0)
        slope = 0.0
        if np.count_nonzero(sel) >= 2:
            slope = max(float(np.polyfit(t[sel], table.q2[sel], 1)[0]), 0.0)
        end = float(np.exp(-a * table.q2[-1]))
        err_table += end / max(abs(eps), a * slope, 1.0 / t[-1])
    err = float(np.max(res.errors)) + err_table
    return res.values, err, env


def _rate_report(spec: BathSpec, values, err: float, env: _Envelope) -> RateReport:
    tau0_inv = float(values[3])
    return RateReport(tau_inv=float(spec.delta ** 2 * tau0_inv),
                      tau0_inv=tau0_inv,
                      p_inf=p_infinity(spec),
                      err=err,
                      damping_ok=env.damping_ok)


def _entries(values):
    return 0.5j * values[0], 0.5j * values[1], -0.5j * values[2]


def gamma_rate(spec: BathSpec, table: KernelTable, tol: float = 1e-8) -> RateReport:
    """Relaxation rate tau^-1 = delta^2 int_0^inf cos(eps t) cos(a Q1) e^{-a Q2} dt."""
    return _rate_report(spec, *_integrate_lso(spec, table, tol))


def p_of_t(rate: RateReport, t: float) -> float:
    """P(t) = P(inf) + [1 - P(inf)] exp(-t/tau); constant 1 when delta = 0."""
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    p_inf = rate.p_inf
    return float(p_inf + (1.0 - p_inf) * np.exp(-t * rate.tau_inv))


def lso_entries(spec: BathSpec, table: KernelTable, tol: float = 1e-8):
    """(x_plus, x_minus, z, err): the level-shift matrix entries."""
    values, err, _ = _integrate_lso(spec, table, tol)
    return _entries(values) + (err,)


def _gibbs_vector(spec: BathSpec) -> np.ndarray:
    c = 0.25 * spec.beta * spec.eps
    v = np.array([np.exp(-c - abs(c)), np.exp(c - abs(c))])
    return v / np.linalg.norm(v)


def rate_and_lso(spec: BathSpec, table: KernelTable,
                 tol: float = 1e-8) -> Tuple[RateReport, LevelShiftMatrix]:
    """The rate report and Lambda_0 = [[x(eps), z], [z, x(-eps)]] with its
    diagnostics, from one quadrature of all four rows.

    The trace gap compares Im(x(eps) + x(-eps)) with tau0_inv, the rate row
    of that same quadrature.  The detailed-balance residual
    |x(eps) + exp(beta eps / 2) z| / |x(eps)| needs exp(beta eps / 2) to be
    finite: a larger beta eps / 2 raises ScalingError before the quadrature.
    """
    c = 0.5 * spec.beta * spec.eps
    if c > _EXP_LIMIT:
        raise ScalingError(
            "beta eps / 2 = %g exceeds the float exponent limit %.2f: "
            "exp(beta eps / 2) of the detailed-balance residual overflows"
            % (c, _EXP_LIMIT))
    values, err, env = _integrate_lso(spec, table, tol)
    rate = _rate_report(spec, values, err, env)
    x_plus, x_minus, z = _entries(values)
    matrix = np.array([[x_plus, z], [z, x_minus]])
    tau0_inv = rate.tau0_inv
    trace_gap = float(abs((x_plus + x_minus).imag - tau0_inv) / abs(tau0_inv))
    psi = _gibbs_vector(spec)
    kernel_residual = float(np.linalg.norm(matrix @ psi))
    lso = LevelShiftMatrix(x_plus=x_plus, x_minus=x_minus, z=z, matrix=matrix,
                           db_residual=float(abs(x_plus + np.exp(c) * z)
                                             / max(abs(x_plus), 1e-300)),
                           trace_gap=trace_gap,
                           kernel_residual=kernel_residual)
    return rate, lso


def lso_matrix(spec: BathSpec, table: KernelTable, tol: float = 1e-8) -> LevelShiftMatrix:
    """Assemble Lambda_0 = [[x(eps), z], [z, x(-eps)]] with its diagnostics.

    This is the matrix half of rate_and_lso: the tau0_inv of its trace gap is
    the rate row of the same quadrature as the entries.
    """
    return rate_and_lso(spec, table, tol)[1]


def default_time_horizon(spec: BathSpec) -> float:
    """A t_max at which the damping envelope has decayed or visibly saturated.

    The first probe is 8 max(beta, 1, 1/|eps|), doubled at most
    _HORIZON_DOUBLINGS times.  Each probe T reads the pointwise Q2(T) at
    tol 1e-6; the bath's JSource and its plateau C2 are built once per call.
    A bath whose kernels cannot be tabulated raises InfraredError, and an
    unconverged Q2 raises AccuracyError.
    """
    if spec.q0 == 0.0:
        raise DivergentIntegralError("q0 = 0: no damping, no finite horizon")
    a = spec.q0 ** 2 / np.pi
    source = j_source_from_spec(spec)
    require_tabulable(source.ir_exponent)
    c2 = c2_saturation(source, tol=1e-6)
    eps_scale = 1.0 / abs(spec.eps) if spec.eps != 0.0 else 1.0
    T = 8.0 * max(spec.beta, 1.0, eps_scale)
    for _ in range(_HORIZON_DOUBLINGS):
        q2_end = q2(source, T, tol=1e-6)[0]
        if a * q2_end >= _DECAY_THRESHOLD:
            return T
        if np.isfinite(c2) and abs(a * (q2_end - c2)) < 1e-3 * max(1.0, a * c2):
            return T
        T *= 2.0
    return T


def report_params(spec: BathSpec) -> dict:
    """The "params" block shared by the rate and level-shift reports."""
    return {"beta": spec.beta, "eps": spec.eps, "delta": spec.delta,
            "q0": spec.q0, "h": spec.h.content_key()}


def report_dict(spec: BathSpec, rate: RateReport, lso: LevelShiftMatrix) -> dict:
    """The JSON-ready relaxation report."""
    def pair(w):
        return [float(w.real), float(w.imag)]

    return {
        "params": report_params(spec),
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
