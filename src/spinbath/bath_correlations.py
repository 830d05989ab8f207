"""Bath kernels Q1(t), Q2(t), Qz(t): evaluation, tabulation, caching.

All kernels exclude the q0^2/pi prefactor; consumers apply it explicitly.
The Qz integrand uses the combined form

    J(w)/w^2 * [tanh(beta w/4) + 2 sin^2(w t/2) / sinh(beta w/2)]

whose two pieces are separately nonnegative and O(w) at the origin, unlike
the literal difference of two infrared-divergent integrals.

One quadrature call integrates the rows of a chunk of up to 8 times t_k.
Its integrand evaluates one sine/cosine pair s, c = sin, cos(t_k w / 2) per
(t, w) pair, and writes sin(w t) = 2 s c and 1 - cos(w t) = 2 s^2; the
latter keeps the small-angle accuracy that Q2 and Qz need.  On an evenly
spaced chunk (the linear part of the time grid, most of the work) only row
0 and the step angle are evaluated, and the other rows follow by angle
addition.  The quadrature weights, J/w^2 and the per-node factors coth,
1/sinh and tanh are folded into weight vectors, so each row block is one
matrix-vector product of the (m, N) trig block.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import AccuracyError, DomainError, InfraredError, UsageError
from .fileio import atomic_write
from .quadrature import capped_edges, integrate_refining
from .spectral_density import BathSpec, eval_J, infrared_exponent

_IR_Q1_MIN = 0.95
_IR_Q2_MIN = 0.05
_SERIES_CUT = 1e-4
_SUPPORT_DROP = 1e-18
_CHUNK = 8
# Part of every cache key: tables computed under another stop rule or
# support bound are recomputed, never served.
_NUMERICS_VERSION = "quad-v3"

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class JSource:
    """A spectral density J(omega) with the metadata the quadrature needs.

    Built from a BathSpec via j_source_from_spec, or injected directly in
    tests with a closed-form J.  breaks lists frequencies where J is not
    smooth (the knots of a tabulated form factor); panel edges are put on
    them so that refinement converges at the rate of a smooth integrand.
    """

    j: Callable[[np.ndarray], np.ndarray]
    omega_max: float
    ir_exponent: float
    breaks: Optional[np.ndarray] = field(default=None, compare=False)


@dataclass(frozen=True)
class TailFit:
    """Large-t asymptotics fitted from a tabulation.

    q2_slope is the linear growth rate of Q2 and c2_inf the saturation value
    of Q2 (inf unless the infrared exponent exceeds 2, where Q2 stays
    bounded).
    """

    q2_slope: float
    c2_inf: float


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Kernels on t_grid with per-entry error estimates (columns q1, q2, qz).

    converged is False when some chunk of the tabulation stopped at the
    refinement limit before meeting the stop rule; err_est then shows where.
    """

    t_grid: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    qz: np.ndarray
    err_est: np.ndarray
    tail: TailFit
    converged: bool


def coth_stable(x: np.ndarray) -> np.ndarray:
    """coth(x) for x > 0 with a series branch below 1e-4."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_CUT
    xs = x[small]
    out[small] = 1.0 / xs + xs / 3.0 - xs ** 3 / 45.0
    xl = x[~small]
    out[~small] = 1.0 / np.tanh(xl)
    return out


def inv_sinh(x: np.ndarray) -> np.ndarray:
    """1/sinh(x) for x > 0 without overflow at large x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_CUT
    large = x >= 30.0
    mid = ~small & ~large
    xs = x[small]
    out[small] = (1.0 - xs ** 2 / 6.0) / xs
    out[mid] = 1.0 / np.sinh(x[mid])
    xl = x[large]
    e = np.exp(-xl)
    out[large] = 2.0 * e / (1.0 - e * e)
    return out


def _support_bound(h) -> float:
    """Upper integration limit: J has fallen below _SUPPORT_DROP of its peak.

    Searches the grid 32 scale 2^k: halves from 32 scale while J at the
    half point is still below the drop, then doubles until J is below it.
    """
    if h.family == "tabulated":
        return float(h.grid[-1])
    probe = np.geomspace(1e-4, 32.0, 160) * h.scale
    peak = float(np.max(eval_J(h, probe)))
    omega = 32.0 * h.scale
    for _ in range(60):
        if not eval_J(h, 0.5 * omega) < _SUPPORT_DROP * peak:
            break
        omega *= 0.5
    for _ in range(60):
        if eval_J(h, omega) < _SUPPORT_DROP * peak:
            return float(omega)
        omega *= 2.0
    return float(omega)


def j_source_from_spec(spec: BathSpec) -> JSource:
    h = spec.h
    return JSource(j=lambda w: np.asarray(eval_J(h, w), dtype=float),
                   omega_max=_support_bound(h),
                   ir_exponent=infrared_exponent(h),
                   breaks=h.grid if h.family == "tabulated" else None)


def _as_source(spec_or_source: Union[BathSpec, JSource]) -> JSource:
    if isinstance(spec_or_source, JSource):
        return spec_or_source
    if isinstance(spec_or_source, BathSpec):
        return j_source_from_spec(spec_or_source)
    raise UsageError("expected a BathSpec or a JSource, got %r" % (spec_or_source,))


def _require_ir(exponent: float, minimum: float, kernel: str) -> None:
    if not exponent > minimum:
        raise InfraredError(
            "%s needs infrared exponent > %g, fitted %.3f"
            % (kernel, minimum, exponent), exponent=exponent)


def _initial_edges(source: JSource, t_cap: float, beta: Optional[float],
                   head_exp: float) -> np.ndarray:
    """Panel edges: per-octave geometric head, period-capped linear main part.

    The integrands behave like omega^(head_exp - 1) near 0, so the head runs
    deep enough that the omitted mass below the first edge is ~1e-18 of the
    head contribution.  Octave spacing also resolves the 1/beta thermal knee
    at whatever scale it sits.  The source's breaks are added as edges.
    """
    omega_max = source.omega_max
    width = omega_max / 8.0
    if t_cap > 0.0:
        width = min(width, np.pi / (2.0 * t_cap))
    main = capped_edges(0.0, omega_max, width)
    w0 = main[1]
    octaves = int(np.ceil(60.0 / min(max(head_exp, 0.05), 60.0)))
    if beta is not None and 4.0 * beta * w0 > 1.0:
        octaves = max(octaves, int(np.ceil(np.log2(4.0 * beta * w0))))
    octaves = min(octaves, 4000)
    head = w0 * 2.0 ** -np.arange(octaves, 0, -1, dtype=float)
    edges = np.concatenate([head, main[1:]])
    if source.breaks is not None:
        breaks = np.asarray(source.breaks, dtype=float)
        edges = np.union1d(edges, breaks[(breaks > edges[0]) & (breaks < omega_max)])
    return edges


def _half_angles(ts: np.ndarray, omega: np.ndarray):
    """sin and cos of t_k omega / 2, as two (m, N) blocks.

    On an evenly spaced chunk (every t_k within 4 ulp of t_0 + k step, m >= 3)
    only row 0 and the step angle d = step omega / 2 are evaluated: in
    z_k = exp(i t_k omega / 2), rows [span, 2 span) are rows [0, span) times
    exp(i span d), with span doubling each stage (log2(m) stages), so the
    block costs two sine/cosine pairs per node.  Any other chunk is
    evaluated directly.
    """
    m = len(ts)
    k = np.arange(m)
    step = (ts[-1] - ts[0]) / max(m - 1, 1)
    if m < 3 or np.any(np.abs(ts - (ts[0] + k * step)) > 4.0 * np.spacing(ts)):
        half = np.multiply.outer(0.5 * ts, omega)
        return np.sin(half), np.cos(half)
    z = np.empty((m, len(omega)), dtype=complex)
    a0 = (0.5 * ts[0]) * omega
    z[0].real = np.cos(a0)
    z[0].imag = np.sin(a0)
    d = (0.5 * step) * omega
    sd, cd = np.sin(d), np.cos(d)
    span = 1
    while span < m:
        n = min(span, m - span)
        np.multiply(z[:n], cd + 1j * sd, out=z[span:span + n])
        span *= 2
        if span < m:
            # the double angle; 1 - 2 sin^2 is the more accurate cosine here
            sd, cd = 2.0 * sd * cd, 1.0 - 2.0 * sd * sd
    return z.imag, z.real


def _kernel_rows(source: JSource, beta: Optional[float], ts: np.ndarray, which: str):
    """The integrand of one kernel call: (nodes, weights) -> row integrals.

    Rows, in order: Q1 at every t ("all", "q1"); then the zero-temperature
    Q2 at every t ("q1"), or Q2 ("all", "q2") and Qz ("all", "qz").  With
    s, c = sin, cos(t omega / 2), sin(t omega) = 2 s c and
    1 - cos(t omega) = 2 s^2, which keeps its small-angle accuracy.  The
    weights w J / omega^2 and the node factors coth, 1/sinh and tanh are
    folded into weight vectors, so each row block is one matrix-vector
    product of an (m, N) trig block.
    """
    need_thermal = which != "q1"

    def rows(omega: np.ndarray, w: np.ndarray) -> np.ndarray:
        wg = w * (np.asarray(source.j(omega), dtype=float) / omega ** 2)
        wg2 = 2.0 * wg
        s, c = _half_angles(ts, omega)
        out = []
        if which in ("all", "q1"):
            out.append((s * c) @ wg2)
        # a fresh contiguous block, so the products below run in BLAS
        ss = s * s
        if which == "q1":
            # Zero-temperature Q2: a nonnegative row that gives the call a
            # scale, so Q1 at a sign change can meet the stop rule.
            out.append(ss @ wg2)
        if need_thermal:
            x = 0.5 * beta * omega
            if which in ("all", "q2"):
                out.append(ss @ (wg2 * coth_stable(x)))
            if which in ("all", "qz"):
                out.append(np.dot(wg, np.tanh(0.5 * x))
                           + ss @ (wg2 * inv_sinh(x)))
        return np.concatenate(out)

    return rows


def _evaluate(source: JSource, beta: Optional[float], ts: Sequence[float],
              tol: float, which: str = "all"):
    ts = np.asarray(ts, dtype=float)
    edges = _initial_edges(source, float(np.max(ts)), beta, source.ir_exponent)
    rows = _kernel_rows(source, beta, ts, which)
    return integrate_refining(rows, edges, rtol=tol)


def _single(spec_or_source, t, beta, tol, which, kernel, ir_min):
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    source = _as_source(spec_or_source)
    _require_ir(source.ir_exponent, ir_min, kernel)
    if which != "q1":
        if isinstance(spec_or_source, BathSpec):
            beta = spec_or_source.beta
        if beta is None:
            raise UsageError("%s with an injected JSource needs beta" % kernel)
    if t == 0.0 and which in ("q1", "q2"):
        return 0.0, 0.0
    res = _evaluate(source, beta, [t], tol, which=which)
    value = float(res.values[0])
    err = float(res.errors[0])
    if not res.converged:
        raise AccuracyError("%s quadrature did not converge at t=%g" % (kernel, t),
                            partial=value, err=err)
    return value, err


def q1(spec: Union[BathSpec, JSource], t: float, *,
       beta: Optional[float] = None, tol: float = 1e-9):
    """Q1(t) = int_0^inf J(w) w^-2 sin(w t) dw, with its error estimate.

    tol is relative to max(|Q1(t)|, int_0^inf J(w) w^-2 (1 - cos(w t)) dw),
    so a sign change of Q1 does not demand accuracy beyond roundoff.
    """
    return _single(spec, t, beta, tol, "q1", "q1", _IR_Q1_MIN)


def q2(spec: Union[BathSpec, JSource], t: float, *,
       beta: Optional[float] = None, tol: float = 1e-9):
    """Q2(t) = int_0^inf J(w) w^-2 (1 - cos(w t)) coth(beta w/2) dw >= 0."""
    return _single(spec, t, beta, tol, "q2", "q2", _IR_Q2_MIN)


def qz(spec: Union[BathSpec, JSource], t: float, *,
       beta: Optional[float] = None, tol: float = 1e-9):
    """Qz(t) = int_0^inf J(w) w^-2 [cosh(beta w/2) - cos(w t)]/sinh(beta w/2) dw."""
    return _single(spec, t, beta, tol, "qz", "qz", _IR_Q2_MIN)


def c2_saturation(spec: Union[BathSpec, JSource], *,
                  beta: Optional[float] = None, tol: float = 1e-9) -> float:
    """int_0^inf J(w) w^-2 coth(beta w/2) dw, the Q2 plateau.

    Finite only when the infrared exponent exceeds 2; returns inf otherwise.
    Raises AccuracyError if the quadrature does not converge, or if the
    geometric head of the panels, which deepens as the exponent nears 2,
    reaches frequencies whose square underflows to 0.
    """
    source = _as_source(spec)
    if isinstance(spec, BathSpec):
        beta = spec.beta
    if beta is None:
        raise UsageError("c2_saturation with an injected JSource needs beta")
    if not source.ir_exponent > 2.05:
        return np.inf
    edges = _initial_edges(source, 0.0, beta, source.ir_exponent - 2.0)

    def rows(omega, w):
        w2 = omega ** 2
        if not w2.all():
            raise AccuracyError(
                "c2_saturation: infrared exponent %.4g is too close to 2; the "
                "panels reach frequencies whose square underflows"
                % source.ir_exponent)
        g = np.asarray(source.j(omega), dtype=float) / w2
        return np.sum(g * coth_stable(0.5 * beta * omega) * w)

    res = integrate_refining(rows, edges, rtol=tol)
    if not res.converged:
        raise AccuracyError("c2_saturation quadrature did not converge",
                            partial=float(res.values[0]), err=float(res.errors[0]))
    return float(res.values[0])


def _time_grid(t_max: float, n: int) -> np.ndarray:
    if n <= 1 or t_max <= 0.0:
        return np.zeros(max(n, 1))
    if n == 2:
        return np.array([0.0, t_max])
    t_switch = t_max / 10.0
    n_geo = min(max(2, n // 3), n - 2)
    geo = np.geomspace(t_switch / 1000.0, t_switch, n_geo)
    lin = np.linspace(t_switch, t_max, n - n_geo)[1:]
    return np.concatenate([[0.0], geo, lin])


def _fit_tail(source: JSource, beta: float, t: np.ndarray, q2v: np.ndarray,
              tol: float) -> TailFit:
    sel = t >= 0.999 * (t[-1] / 10.0)
    if np.count_nonzero(sel) >= 2 and t[-1] > 0.0:
        slope = float(np.polyfit(t[sel], q2v[sel], 1)[0])
    else:
        slope = 0.0
    slope = max(slope, 0.0)
    if source.ir_exponent > 2.05:
        c2_inf = c2_saturation(source, beta=beta, tol=tol)
    else:
        c2_inf = np.inf
    return TailFit(q2_slope=slope, c2_inf=c2_inf)


_CSV_HEADER = "t,q1,q2,qz,err1,err2,errz"


def _cache_key(spec: BathSpec, t_max: float, n: int, tol: float) -> str:
    canonical = "|".join([_NUMERICS_VERSION, "%.17g" % spec.beta,
                          spec.h.content_key(), "%.17g" % t_max, str(n),
                          "%.17g" % tol])
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _save_table(cache_dir: str, key: str, spec: BathSpec, t_max: float, n: int,
                tol: float, table: KernelTable) -> None:
    rows = [_CSV_HEADER]
    for i in range(len(table.t_grid)):
        rows.append(",".join("%.17g" % v for v in (
            table.t_grid[i], table.q1[i], table.q2[i], table.qz[i],
            table.err_est[i, 0], table.err_est[i, 1], table.err_est[i, 2])))
    atomic_write(os.path.join(cache_dir, key + ".csv"), "\n".join(rows) + "\n")
    meta = {
        "key": key,
        "beta": spec.beta,
        "h": spec.h.content_key(),
        "t_max": t_max,
        "n": n,
        "tol": tol,
        "converged": table.converged,
        "tail": {"q2_slope": table.tail.q2_slope,
                 "c2_inf": table.tail.c2_inf},
    }
    atomic_write(os.path.join(cache_dir, key + ".json"),
                 json.dumps(meta, sort_keys=True, indent=1))


def _read_entry(csv_path: str, meta_path: str, key: str, t_max: float,
                n: int, tol: float) -> KernelTable:
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta["key"] != key:
        raise ValueError("the sidecar names key %s" % meta["key"])
    if (meta["t_max"], meta["n"], meta["tol"]) != (t_max, n, tol):
        raise ValueError("it was computed for t_max=%r, n=%r, tol=%r"
                         % (meta["t_max"], meta["n"], meta["tol"]))
    with open(csv_path) as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != n:
        raise ValueError("it has %d rows, not %d" % (len(rows), n))
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    if data.shape[1] != 7 or not np.isfinite(data).all():
        raise ValueError("its rows are not 7 finite numbers")
    converged = meta["converged"]
    if not isinstance(converged, bool):
        raise ValueError("its converged flag is %r, not a bool" % (converged,))
    slope, c2_inf = meta["tail"]["q2_slope"], meta["tail"]["c2_inf"]
    if not (isinstance(slope, float) and np.isfinite(slope) and slope >= 0.0):
        raise ValueError("its tail q2_slope is %r, not a finite float >= 0"
                         % (slope,))
    if not (isinstance(c2_inf, float) and c2_inf > 0.0):
        raise ValueError("its tail c2_inf is %r, not a float > 0 or inf"
                         % (c2_inf,))
    return KernelTable(t_grid=data[:, 0], q1=data[:, 1], q2=data[:, 2],
                       qz=data[:, 3], err_est=data[:, 4:7],
                       tail=TailFit(q2_slope=slope, c2_inf=c2_inf),
                       converged=converged)


def _load_table(cache_dir: str, key: str, t_max: float, n: int,
                tol: float) -> Optional[KernelTable]:
    """The cached table of key, or None when it is absent or does not hold up.

    An entry holds up when its sidecar names this key and request (t_max, n,
    tol), its converged flag is a bool, its tail is a finite float
    q2_slope >= 0 and a float c2_inf > 0 (inf allowed), and its CSV is n
    rows of 7 finite numbers.  One that does not, or does not parse, is
    logged as a warning; the caller then recomputes it and rewrites both
    files.
    """
    csv_path = os.path.join(cache_dir, key + ".csv")
    meta_path = os.path.join(cache_dir, key + ".json")
    if not (os.path.exists(csv_path) and os.path.exists(meta_path)):
        return None
    try:
        return _read_entry(csv_path, meta_path, key, t_max, n, tol)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _log.warning("kernel cache entry %s is unusable (%s); recomputing it",
                     key, exc)
        return None


def tabulate_kernels(spec: Union[BathSpec, JSource], t_max: float, n: int, *,
                     beta: Optional[float] = None, tol: float = 1e-9,
                     cache_dir: Optional[str] = None) -> KernelTable:
    """Tabulate all three kernels on a geometric-then-linear t grid.

    The degenerate call (n <= 1 or t_max = 0) returns a single zeroed row
    without running any quadrature.  The table's converged flag is False if
    any chunk stopped at the refinement limit; consumers check it.  With
    cache_dir set, results are stored as CSV plus a JSON sidecar, keyed by a
    content hash of the numerics version, the bath and grid parameters, and
    written atomically; an entry that fails its load check is recomputed
    and rewritten.  A hit builds no JSource, so it skips the support probe;
    hit or miss, the infrared exponent is fitted once.
    """
    cache_key = None
    if cache_dir is not None and isinstance(spec, BathSpec):
        cache_key = _cache_key(spec, t_max, n, tol)
        cached = _load_table(cache_dir, cache_key, t_max, n, tol)
        if cached is not None:
            _require_ir(infrared_exponent(spec.h), _IR_Q1_MIN,
                        "tabulate_kernels")
            return cached

    source = _as_source(spec)
    _require_ir(source.ir_exponent, _IR_Q1_MIN, "tabulate_kernels")
    if isinstance(spec, BathSpec):
        beta = spec.beta
    if beta is None:
        raise UsageError("tabulate_kernels with an injected JSource needs beta")

    t = _time_grid(t_max, n)
    if n <= 1 or t_max <= 0.0:
        z = np.zeros(len(t))
        return KernelTable(t_grid=t, q1=z.copy(), q2=z.copy(), qz=z.copy(),
                           err_est=np.zeros((len(t), 3)),
                           tail=TailFit(0.0, np.inf), converged=True)

    results = []
    for i in range(0, len(t), _CHUNK):
        chunk = t[i:i + _CHUNK]
        res = _evaluate(source, beta, chunk, tol, which="all")
        m = len(chunk)
        results.append((res.values.reshape(3, m), res.errors.reshape(3, m).T,
                        res.converged))

    q1v, q2v, qzv = np.concatenate([r[0] for r in results], axis=1)
    err = np.concatenate([r[1] for r in results], axis=0)
    q1v[0] = q2v[0] = 0.0
    err[0, 0] = err[0, 1] = 0.0

    table = KernelTable(t_grid=t, q1=q1v, q2=q2v, qz=qzv, err_est=err,
                        tail=_fit_tail(source, beta, t, q2v, tol),
                        converged=all(r[2] for r in results))
    if cache_key is not None:
        os.makedirs(cache_dir, exist_ok=True)
        _save_table(cache_dir, cache_key, spec, t_max, n, tol, table)
        loaded = _load_table(cache_dir, cache_key, t_max, n, tol)
        if loaded is not None:
            return loaded
    return table
