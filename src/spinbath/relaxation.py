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

Every report of the four rows is assembled by _assemble from the rows, err
and damping_ok.  cached_level_shift answers one level-shift request through
a cache of one record per request beside the kernel tables, so a request
that an earlier command answered reads its record and integrates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bath_correlations import (_NUMERICS_VERSION, KernelTable,
                                _require_thermal_head, _time_grid,
                                c2_saturation, j_source_from_spec, q2,
                                require_tabulable, tabulate_kernels)
from .errors import DivergentIntegralError, DomainError, ScalingError
from .fileio import cached_record
from .quadrature import integrate_refining
from .spectral_density import BathSpec

_ENVELOPE_FLOOR = 1e-12
_DECAY_THRESHOLD = -np.log(_ENVELOPE_FLOOR)
_HORIZON_DOUBLINGS = 8
# the largest x with a finite exp(x), about 709.78
_EXP_LIMIT = float(np.log(np.finfo(float).max))
# Part of every level-shift cache key, beside the kernel tables'
# _NUMERICS_VERSION: bump it when the rows, err or damping_ok that one
# table gives change, or when _LEVEL_SHIFT_RECORD does.
_LEVEL_SHIFT_VERSION = "lso-v1"
# The record of a level-shift cache entry: the rows (x(eps), x(-eps), z,
# rate), err and damping_ok of one quadrature, and the request it answers;
# a t_max of 0 stands for kernels.t_max unset, the default horizon.
_LEVEL_SHIFT_RECORD = np.dtype([
    ("values", "<f8", (4,)), ("err", "<f8"), ("damping_ok", "?"),
    ("request", [("beta", "<f8"), ("q0", "<f8"), ("eps", "<f8"),
                 ("t_max", "<f8"), ("n", "<i8"), ("tol", "<f8"),
                 ("lso_tol", "<f8")])])
# why q0 = 0 is refused, by the horizon and by the level-shift rows
_NO_HORIZON = "no damping, no finite horizon"
_UNDAMPED = "undamped integrand, the time integrals diverge"


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


def _require_damping(spec: BathSpec, why: str) -> None:
    if spec.q0 == 0.0:
        raise DivergentIntegralError("q0 = 0: " + why)


def _require_balance_factor(spec: BathSpec) -> None:
    """Raise ScalingError unless exp(beta eps / 2), the factor of the
    detailed-balance residual, is a finite nonzero float."""
    c = 0.5 * spec.beta * spec.eps
    if abs(c) > _EXP_LIMIT:
        raise ScalingError(
            "beta eps / 2 = %g exceeds the float exponent limit %.2f in "
            "magnitude: exp(beta eps / 2) of the detailed-balance residual %s"
            % (c, _EXP_LIMIT, "overflows" if c > 0 else "underflows"))


def _envelope(spec: BathSpec, table: KernelTable) -> _Envelope:
    _require_damping(spec, _UNDAMPED)
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


def _solve_tridiagonal(dl: list, d: list, du: list, cols: list) -> list:
    """Solve the tridiagonal system with sub-, main and super-diagonals dl,
    d, du (lengths n-1, n, n-1) for each right-hand side in cols.

    A port of reference LAPACK's dgtsv on its path for more than one
    right-hand side: Gaussian elimination that interchanges rows i and i+1
    wherever |d[i]| < |dl[i]|, then one back substitution per column, every
    operation in dgtsv's order on Python floats, so the solution is bitwise
    that of scipy's ``solve_banded((1, 1), ...)`` with two or more columns.
    The lists are overwritten, and cols returned holding the solutions.
    """
    n = len(d)
    # dgtsv's fill-in above the superdiagonal reuses dl; the last row's
    # interchange reads one superdiagonal entry past the end
    du = du + [0.0]
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in cols:
                b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            dl[i] = du[i + 1]
            du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in cols:
                temp = b[i]
                b[i] = b[i + 1]
                b[i + 1] = temp - fact * b[i + 1]
    for b in cols:
        b[n - 1] = b[n - 1] / d[n - 1]
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return cols


def _not_a_knot(x, y) -> np.ndarray:
    """The not-a-knot cubic splines through the rows of y on knots x (de Boor,
    A Practical Guide to Splines, 2001), bitwise scipy's
    ``CubicSpline(x, y, axis=1)``.

    Returns the coefficients c[k, j, i] of row k in scipy's PPoly layout: on
    [x[i], x[i+1]] spline k is sum_j c[k, j, i] (t - x[i])^(3 - j).  The
    knot slopes of all rows come from one tridiagonal system with one
    right-hand side per row, built by the same expressions in the same
    order as scipy 1.17's CubicSpline for n >= 4 knots, and solved by
    _solve_tridiagonal, the port of the LAPACK dgtsv path that CubicSpline
    reaches through solve_banded.  Compiled dgtsv runs a separate loop for
    a single right-hand side, which can round differently, so a y of one
    row, or a row against the one-row ``CubicSpline(x, y[k])``, can differ
    in its last bits: about 1 in 10^3 random systems do, no kernel table
    tested does.  Fewer knots, and inputs that CubicSpline rejects, raise
    ValueError.
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
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2]
             + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    diag = [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])]
    upper = [float(x[2] - x[0])] + dx[:-1].tolist()
    lower = dx[1:].tolist() + [float(x[-1] - x[-3])]
    s = np.array(_solve_tridiagonal(lower, diag, upper, b.T.tolist())).T
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


def _phase_rate_bound(eps: float, a: float, x: np.ndarray,
                      c: np.ndarray) -> np.ndarray:
    """An upper bound of the phase rate |eps| + a (|Q1'| + |Q2'|) on each
    knot interval [x[i], x[i+1]].

    c[0] and c[1] are the coefficients of the Q1 and Q2 splines on knots x,
    in PPoly layout.  Each derivative is the quadratic with coefficients
    c[:-1] * (3, 2, 1), so its largest magnitude on an interval is at one
    of the two ends, or at the vertex if the vertex lies inside (clipped
    into the interval, a vertex outside is one of the ends).
    """
    dx = np.diff(x)
    p, q, r = np.moveaxis(c[:2, :-1] * _DERIVATIVE, 1, 0)
    vertex = np.divide(-q, 2.0 * p, out=np.zeros_like(p), where=p != 0.0)
    peak = np.max([np.abs((p * s + q) * s + r)
                   for s in (0.0, dx, np.clip(vertex, 0.0, dx))], axis=0)
    return abs(eps) + a * peak.sum(axis=0)


def _oscillation_edges(spec: BathSpec, table: KernelTable, a: float,
                       c: np.ndarray) -> np.ndarray:
    """Panel edges whose widths follow the phase rate of the integrand.

    c[0] and c[1] are the coefficients of the Q1 and Q2 splines on the
    table's grid, in PPoly layout (scipy's CubicSpline has it too).  Each
    knot interval allows panels of width 0.25 pi / rate, clipped to
    [T / 4000, T / 8], where rate, at least 1 / T, bounds the phase rate
    there (_phase_rate_bound).  The budget Phi(t) integrates
    1 / width from 0, and the ceil(Phi(T)) panels take equal steps of Phi:
    no panel spends more than one unit of budget, whatever knots it
    crosses, and there are 8 to 4000 panels.
    """
    x = table.t_grid
    T = float(x[-1])
    rate = _phase_rate_bound(spec.eps, a, x, c)
    width = np.clip(0.25 * np.pi / np.maximum(rate, 1.0 / T),
                    T / 4000.0, T / 8.0)
    phi = np.concatenate(([0.0], np.cumsum(np.diff(x) / width)))
    # a budget that rounding lifts just past 4000 takes no 4001st panel
    n = min(int(np.ceil(phi[-1])), 4000)
    return np.interp(np.linspace(0.0, phi[-1], n + 1), phi, x)


def _integrate_lso(spec: BathSpec, table: KernelTable, tol: float):
    """Common quadrature: rows (x_plus, x_minus, z, rate) on [0, t_max].

    Raises ScalingError, before the quadrature, if the table's splines have
    a coefficient that is not finite, and AccuracyError if the quadrature
    did not converge.
    """
    env = _envelope(spec, table)
    a, e_inf = env.a, env.e_inf
    eps = spec.eps
    if e_inf > 0.0 and eps == 0.0:
        raise DivergentIntegralError(
            "saturated envelope at eps = 0: the constant E_inf term has no "
            "Abel limit")
    t = table.t_grid
    # knot steps near the least normal float divide the kernels' rounding
    # noise past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        coef = _not_a_knot(t, np.stack([table.q1, table.q2, table.qz]))
    if not np.isfinite(coef).all():
        raise ScalingError(
            "the kernel splines on the grid of t_max = %g overflow: its knot "
            "steps are too small for the kernels' rounding; use a larger "
            "t_max" % t[-1])
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
    err_table = a * float(np.max(table.err_est)) * env_len
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


def _gibbs_vector(spec: BathSpec) -> np.ndarray:
    c = 0.25 * spec.beta * spec.eps
    v = np.array([np.exp(-c - abs(c)), np.exp(c - abs(c))])
    return v / np.linalg.norm(v)


def _assemble(spec: BathSpec, values, err: float,
              damping_ok: bool) -> Tuple[RateReport, LevelShiftMatrix]:
    """The rate report and Lambda_0 = [[x(eps), z], [z, x(-eps)]] with its
    diagnostics, from one level-shift quadrature: its rows values
    (x(eps), x(-eps), z, rate), its err and its envelope's damping_ok.

    Every report of the four rows is assembled here, whether the rows were
    just integrated or read from a cache record, so both give the same
    bytes.  The trace gap compares Im(x(eps) + x(-eps)) with tau0_inv, the
    rate row.  The detailed-balance residual
    |x(eps) + exp(beta eps / 2) z| / |x(eps)| reads inf where
    exp(beta eps / 2) is no finite nonzero float; rate_and_lso and every
    command that reports it refuse such a bath first.
    """
    tau0_inv = float(values[3])
    rate = RateReport(tau_inv=float(spec.delta ** 2 * tau0_inv),
                      tau0_inv=tau0_inv,
                      p_inf=p_infinity(spec),
                      err=err,
                      damping_ok=damping_ok)
    x_plus, x_minus, z = 0.5j * values[0], 0.5j * values[1], -0.5j * values[2]
    matrix = np.array([[x_plus, z], [z, x_minus]])
    trace_gap = float(abs((x_plus + x_minus).imag - tau0_inv) / abs(tau0_inv))
    kernel_residual = float(np.linalg.norm(matrix @ _gibbs_vector(spec)))
    c = 0.5 * spec.beta * spec.eps
    db_residual = np.inf
    if abs(c) <= _EXP_LIMIT:
        db_residual = float(abs(x_plus + np.exp(c) * z) / max(abs(x_plus), 1e-300))
    lso = LevelShiftMatrix(x_plus=x_plus, x_minus=x_minus, z=z, matrix=matrix,
                           db_residual=db_residual, trace_gap=trace_gap,
                           kernel_residual=kernel_residual)
    return rate, lso


def _quadrature_reports(spec: BathSpec, table: KernelTable, tol: float):
    values, err, env = _integrate_lso(spec, table, tol)
    return _assemble(spec, values, err, env.damping_ok)


def gamma_rate(spec: BathSpec, table: KernelTable, tol: float = 1e-8) -> RateReport:
    """Relaxation rate tau^-1 = delta^2 int_0^inf cos(eps t) cos(a Q1) e^{-a Q2} dt."""
    return _quadrature_reports(spec, table, tol)[0]


def p_of_t(rate: RateReport, t: float) -> float:
    """P(t) = P(inf) + [1 - P(inf)] exp(-t/tau); constant 1 when delta = 0."""
    if not 0.0 <= t < np.inf:
        raise DomainError("t must be finite and nonnegative, got %r" % (t,))
    p_inf = rate.p_inf
    return float(p_inf + (1.0 - p_inf) * np.exp(-t * rate.tau_inv))


def lso_entries(spec: BathSpec, table: KernelTable, tol: float = 1e-8):
    """(x_plus, x_minus, z, err): the level-shift matrix entries."""
    rate, lso = _quadrature_reports(spec, table, tol)
    return lso.x_plus, lso.x_minus, lso.z, rate.err


def rate_and_lso(spec: BathSpec, table: KernelTable,
                 tol: float = 1e-8) -> Tuple[RateReport, LevelShiftMatrix]:
    """The rate report and Lambda_0 = [[x(eps), z], [z, x(-eps)]] with its
    diagnostics, from one quadrature of all four rows (_assemble).

    The detailed-balance residual needs exp(beta eps / 2) to be finite and
    nonzero: a |beta eps / 2| beyond the float exponent limit raises
    ScalingError before the quadrature.
    """
    _require_balance_factor(spec)
    return _quadrature_reports(spec, table, tol)


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
    tol 1e-6; the bath's plateau C2 is computed once per call.  A bath
    whose kernels cannot be tabulated raises InfraredError, and an
    unconverged Q2 raises AccuracyError.
    """
    _require_damping(spec, _NO_HORIZON)
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


def _read_level_shift(record: np.ndarray):
    values, err = record["values"], float(record["err"])
    if not (np.isfinite(values).all() and err >= 0.0 and np.isfinite(err)):
        raise ValueError("its rows are not finite, or its err %r not finite "
                         "and >= 0" % err)
    return values, err, bool(record["damping_ok"])


def cached_level_shift(spec: BathSpec, t_max: Optional[float], n: int, *,
                       tol: float, lso_tol: float, cache_dir: str,
                       balance: bool = False) -> Tuple[RateReport, LevelShiftMatrix]:
    """The rate report and Lambda_0 of one level-shift request, through the
    cache at cache_dir (_assemble).

    The request is the bath without delta, the kernel table's t_max (None
    for default_time_horizon's), n and tol, and the level-shift tol
    lso_tol.  delta only scales tau_inv after the quadrature, so the
    requests of two baths that differ in delta alone share one record.

    Every refusal that the request alone decides comes before the cache is
    read, in the order a cold request meets it: q0 = 0
    (DivergentIntegralError), a beta beyond the thermal head (DomainError),
    an infrared exponent without a kernel table (InfraredError), with
    balance (for a caller that reports the detailed-balance residual) a
    |beta eps / 2| past the float exponent limit (ScalingError), and a
    kernel grid of n < 4 rows or, for a set t_max, one whose times do not
    rise strictly (DomainError).

    The request is one entry of the cache (fileio's cached_record): one
    record (_LEVEL_SHIFT_RECORD), keyed by both numerics salts and the
    request, so a hit reads that record alone; an unusable one is one
    warning, then recomputed and rewritten.  A miss takes t_max from
    default_time_horizon when it is None, reads or writes the kernel table
    in the same cache, runs the quadrature and stores the record.  An
    AccuracyError, or any other refusal, stores nothing.
    """
    if t_max is None:
        _require_damping(spec, _NO_HORIZON)
    _require_thermal_head(spec.beta)
    require_tabulable(spec.h.ir_exponent)
    if balance:
        _require_balance_factor(spec)
    _require_damping(spec, _UNDAMPED)
    # refuses n < 4, and a t_max too small for its kernel grid; the default
    # horizon is at least 8, on whose grid the times rise for every n >= 4
    _time_grid(8.0 if t_max is None else t_max, n)
    request = (spec.beta, spec.q0, spec.eps, 0.0 if t_max is None else t_max,
               n, tol, lso_tol)

    def compute():
        table = tabulate_kernels(
            spec, default_time_horizon(spec) if t_max is None else t_max, n,
            tol=tol, cache_dir=cache_dir)
        values, err, env = _integrate_lso(spec, table, lso_tol)
        return (values, err, env.damping_ok), np.array(
            (values, err, env.damping_ok, request), dtype=_LEVEL_SHIFT_RECORD)

    rows = cached_record(
        cache_dir, [_NUMERICS_VERSION, _LEVEL_SHIFT_VERSION, spec.beta,
                    spec.h.content_key(), spec.q0, spec.eps,
                    "auto" if t_max is None else t_max, n, tol, lso_tol],
        "level-shift", _LEVEL_SHIFT_RECORD, request, _read_level_shift, compute)
    return _assemble(spec, *rows)


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
