"""Bath kernels Q1(t), Q2(t), Qz(t): evaluation, tabulation, caching.

All kernels exclude the q0^2/pi prefactor; consumers apply it explicitly.
Each entry point takes a BathSpec or an injected JSource, and either one
carries the inverse temperature beta (Q1 does not depend on it).
The Qz integrand uses the combined form

    J(w)/w^2 * [tanh(beta w/4) + 2 sin^2(w t/2) / sinh(beta w/2)]

whose two pieces are separately nonnegative and O(w) at the origin, unlike
the literal difference of two infrared-divergent integrals.

A table is integrated in chunks of 8 times, each held to the stop rule
against its own largest value.  The thermal factors coth, 1/sinh and
tanh(x/2) of x = beta w / 2 are computed once per node set, from expm1(-x)
and exp(-x).  The quadrature weights, J/w^2 and those factors are folded
into weight vectors b.

A direct call (pointwise q1/q2/qz, and the chunks outside the shared node
set below: geometric, straddling or partial chunks, and every chunk of a
bath with breaks) writes sin(w t) = 2 s c and 1 - cos(w t) = 2 s^2 with
s, c = sin, cos(t_k w / 2), which keeps the small-angle accuracy that Q2 and
Qz need; each row block is one matrix product of the (m, N) trig block.
s and c take one sine/cosine pair per (t, w) pair, or two per node on an
evenly spaced chunk, by angle addition along the chunk.

For a bath without breaks, the whole chunks of the linear part of the
grid, t_k = t_0 + k dt, share one node set: a geometric head below
W = pi/(2 t_max), summed directly as above, and main panels with exact
edges p W.  There, for each Gauss index, the sum over panels p of
b_p exp(i t_k w_p) is a chirp-z transform in p (Rabiner, Schafer and Rader,
1969), one FFT convolution by Bluestein's identity
k p = (k^2 + p^2 - (k - p)^2) / 2, and the main parts of Q2 and Qz are
sum(b) - Re C(t_k): well conditioned, as t w >= pi/20 on those rows and
panels.  The set is refined until every chunk meets the stop rule.

Every quadrature here is one integrate_refining call, which raises
AccuracyError naming the kernel and time, or the table's t range, when it
cannot meet the stop rule.  So a table is converged or not made, and an
unconverged one is never cached.  A cache entry is one .npy file holding
one record: the table, its request (t_max, n, tol) and the Q2 plateau
c2_inf.
"""

from __future__ import annotations

import hashlib
import io
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
_SUPPORT_DROP = 1e-18
_CHUNK = 8
# Gauss-Legendre order of the linear rows' shared node set, whose panels
# _chirp_sums reshapes by it
_GAUSS_ORDER = 6
# Part of every cache key: tables computed under another stop rule or
# support bound, or stored in another entry layout, are recomputed, never
# served.
_NUMERICS_VERSION = "quad-v4-record"
# The least omega^2 of a thermal head: a subnormal with half of its bits
_OMEGA_SQ_MIN = np.finfo(float).tiny * np.sqrt(np.finfo(float).eps)
# The label of a table quadrature in its AccuracyError, by its t range
_TABLE = "kernel table on t in [%g, %g]"

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class JSource:
    """A spectral density J(omega) with the metadata the quadrature needs.

    Built from a BathSpec via j_source_from_spec, or injected directly in
    tests with a closed-form J.  beta is the inverse temperature of the
    thermal factors of Q2, Qz and the plateau C2.  breaks lists frequencies
    where J is not smooth (the knots of a tabulated form factor); panel
    edges are put on them so that refinement converges at the rate of a
    smooth integrand.
    """

    j: Callable[[np.ndarray], np.ndarray]
    omega_max: float
    ir_exponent: float
    beta: float
    breaks: Optional[np.ndarray] = field(default=None, compare=False)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Converged kernels on t_grid with per-entry error estimates (columns
    q1, q2, qz), and the Q2 plateau c2_inf, c2_saturation at the table's tol
    (inf unless the infrared exponent exceeds 2, where Q2 stays bounded).
    """

    t_grid: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    qz: np.ndarray
    err_est: np.ndarray
    c2_inf: float


def _thermal_factors(x: np.ndarray):
    """coth(x), 1/sinh(x) and tanh(x/2) for x > 0.

    With e1 = expm1(-x) and e = expm1(-2x) = e1 (2 + e1): coth = (2 + e)/(-e)
    and tanh(x/2) = -e1/(2 + e1), accurate at small x as at large, and
    1/sinh = -2 exp(-x)/e, whose numerator keeps its relative accuracy where
    1 + e1 would not (x above about 20).
    """
    e1 = np.expm1(-x)
    e = e1 * (2.0 + e1)
    return (2.0 + e) / -e, -2.0 * np.exp(-x) / e, -e1 / (2.0 + e1)


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


def _require_thermal_head(beta: float) -> None:
    """Raise DomainError for a beta whose thermal head reaches too low.

    The thermal head of the Q2, Qz and C2 quadratures stops above 1/(8 beta)
    (_head_edges).  There the integrand J/omega^2 must still be a positive
    float of at least half precision, so omega^2 must be at least
    tiny sqrt(eps), a subnormal with 26 of its 53 bits.
    """
    floor = 0.125 / beta
    if not floor * floor >= _OMEGA_SQ_MIN:
        raise DomainError(
            "beta = %g puts the thermal head of the kernel integrals at omega "
            "= %.3g, where omega^2 underflows and J/omega^2 is no finite "
            "positive float of half precision; beta must be at most %.3g"
            % (beta, floor, 0.125 / np.sqrt(_OMEGA_SQ_MIN)))


def j_source_from_spec(spec: BathSpec) -> JSource:
    """The JSource of a bath, the one place where kernel sources are built;
    a beta too large for its thermal head raises DomainError."""
    _require_thermal_head(spec.beta)
    h = spec.h
    return JSource(j=lambda w: np.asarray(eval_J(h, w), dtype=float),
                   omega_max=_support_bound(h),
                   ir_exponent=infrared_exponent(h),
                   beta=spec.beta,
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


def require_tabulable(exponent: float) -> None:
    """Raise InfraredError unless a bath of this infrared exponent has a
    kernel table (its Q1 column needs exponent > 0.95)."""
    _require_ir(exponent, _IR_Q1_MIN, "tabulate_kernels")


def _head_edges(w0: float, beta: Optional[float], exponent: float, pole: float,
                what: str) -> np.ndarray:
    """Per-octave geometric edges below w0 (w0 itself excluded).

    The integrands behave like omega^(exponent - pole - 1) near 0, so the
    head runs deep enough that the omitted mass below the first edge is
    ~1e-18 of the head contribution.  Octave spacing also resolves the
    1/beta thermal knee at whatever scale it sits.  An exponent so close to
    pole that the first edge's square underflows to 0, where J / omega^2
    would be 0/0, raises AccuracyError naming what, before any quadrature.
    """
    octaves = int(np.ceil(60.0 / min(max(exponent - pole, 0.05), 60.0)))
    if beta is not None and 4.0 * beta * w0 > 1.0:
        octaves = max(octaves, int(np.ceil(np.log2(4.0 * beta * w0))))
    edges = w0 * 2.0 ** -np.arange(octaves, 0, -1, dtype=float)
    if not edges[0] * edges[0] > 0.0:
        raise AccuracyError(
            "%s: infrared exponent %.4g is too close to %g; the panels reach "
            "frequencies whose square underflows" % (what, exponent, pole))
    return edges


def _initial_edges(source: JSource, t_cap: float, beta: Optional[float],
                   pole: float, what: str) -> np.ndarray:
    """Panel edges: geometric head, period-capped linear main part.

    The main part has panels of width at most a quarter period at t_cap
    and at most omega_max / 8; the source's breaks are added as edges.
    """
    omega_max = source.omega_max
    width = omega_max / 8.0
    if t_cap > 0.0:
        width = min(width, np.pi / (2.0 * t_cap))
    main = capped_edges(0.0, omega_max, width)
    edges = np.concatenate([_head_edges(main[1], beta, source.ir_exponent, pole,
                                        what), main[1:]])
    if source.breaks is not None:
        breaks = np.asarray(source.breaks, dtype=float)
        edges = np.union1d(edges, breaks[(breaks > edges[0]) & (breaks < omega_max)])
    return edges


def _even_step(ts: np.ndarray) -> Optional[float]:
    """The step of an evenly spaced chunk ts, or None.

    A chunk is evenly spaced when it has 3 to 8 rows and every t_k is within
    4 ulp of t_0 + k step.
    """
    m = len(ts)
    if not 3 <= m <= _CHUNK:
        return None
    step = (ts[-1] - ts[0]) / (m - 1)
    if np.any(np.abs(ts - (ts[0] + np.arange(m) * step)) > 4.0 * np.spacing(ts)):
        return None
    return step


def _half_angles(ts: np.ndarray, omega: np.ndarray, step: Optional[float] = None):
    """sin and cos of t_k omega / 2, as two (m, N) blocks.

    Given the step of evenly spaced ts, only row 0 and the step angle
    d = step omega / 2 are evaluated: in z_k = exp(i t_k omega / 2), rows
    [span, 2 span) are rows [0, span) times exp(i span d), with span
    doubling each stage, so the block costs two sine/cosine pairs per node.
    Without a step the block is evaluated directly.
    """
    if step is None:
        half = np.multiply.outer(0.5 * ts, omega)
        return np.sin(half), np.cos(half)
    m = len(ts)
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


def _direct_sums(ts: np.ndarray, omega: np.ndarray, b: np.ndarray, n_sin: int,
                 step: Optional[float] = None) -> np.ndarray:
    """Direct sums over the nodes omega for every t in ts, shape (len(b), m).

    Rows [0, n_sin) of the weight vectors b are summed against sin(t omega),
    the others against 1 - cos(t omega).  With s, c = sin, cos(t omega / 2)
    from _half_angles (by angle addition when ts is a chunk of the given
    step), these are 2 s c and 2 s^2, which keeps the small-angle accuracy
    that Q2 and Qz need.  The rows of ts are taken in blocks of about 2^14
    (t, omega) pairs, never splitting a chunk.
    """
    out = np.empty((len(b), len(ts)))
    block = max(_CHUNK, 16384 // max(len(omega), 1))
    for i in range(0, len(ts), block):
        s, c = _half_angles(ts[i:i + block], omega, step)
        # fresh contiguous blocks, so the products run in BLAS
        if n_sin:
            out[:n_sin, i:i + block] = b[:n_sin] @ (s * c).T
        out[n_sin:, i:i + block] = b[n_sin:] @ (s * s).T
    out *= 2.0
    return out


def _kernel_rows(source: JSource, ts: np.ndarray, which: str):
    """The integrand of one direct kernel call: (nodes, weights) -> row integrals.

    Rows, in order: Q1 at every t ("all", "q1"); then the zero-temperature
    Q2 at every t ("q1"), or Q2 ("all", "q2") and Qz ("all", "qz").  The
    weights w J / omega^2 and the node factors coth, 1/sinh and tanh are
    folded into weight vectors for _direct_sums.
    """
    step = _even_step(ts)

    def rows(omega: np.ndarray, w: np.ndarray) -> np.ndarray:
        wg = w * (np.asarray(source.j(omega), dtype=float) / omega ** 2)
        if which == "q1":
            # Zero-temperature Q2: a nonnegative row that gives the call a
            # scale, so Q1 at a sign change can meet the stop rule.
            return _direct_sums(ts, omega, np.array([wg, wg]), 1, step).ravel()
        coth, csch, tanh_half = _thermal_factors(0.5 * source.beta * omega)
        b = {"all": [wg, wg * coth, wg * csch], "q2": [wg * coth],
             "qz": [wg * csch]}[which]
        sums = _direct_sums(ts, omega, np.array(b), int(which == "all"), step)
        if which in ("all", "qz"):
            sums[-1] += np.dot(wg, tanh_half)
        return sums.ravel()

    return rows


def _chirp(c: float, n: int) -> np.ndarray:
    """exp(i c j^2) for j < n, to rounding however large the phase.

    c j^2 is split as c_hi j^2 + c_lo j^2, where c_hi keeps as many leading
    bits of c as make c_hi j^2 exact in double; sin and cos reduce an exact
    argument of any size correctly, and c_lo j^2 is small.
    """
    jj = np.arange(n, dtype=float) ** 2
    mant, exp = np.frexp(c)
    bits = 53 - 2 * max(n - 1, 1).bit_length()
    c_hi = np.ldexp(np.floor(np.ldexp(mant, bits)), exp - bits)
    return np.exp(1j * (c_hi * jj)) * np.exp(1j * ((c - c_hi) * jj))


def _chirp_sums(b: np.ndarray, omega: np.ndarray, ts: np.ndarray,
                width: float) -> np.ndarray:
    """sum_j b_j exp(i t_k omega_j) over evenly spaced panels, shape (m, K).

    omega are the _GAUSS_ORDER Gauss nodes of P panels of the given width,
    panel by panel, so omega_pq = omega_0q + p width; ts are
    t_k = t_0 + k dt.  Then t_k omega_pq = t_0 omega_pq + k dt omega_0q
    + k p dt width, and for each Gauss index q the sum over p is a chirp-z
    transform with ratio z = exp(i dt width).  Bluestein's identity
    k p = (k^2 + p^2 - (k-p)^2)/2 makes it an FFT convolution of length
    >= P + K with the chirp exp(-i dt width n^2 / 2).
    """
    order = _GAUSS_ORDER
    k_rows, panels = len(ts), len(omega) // order
    dt = (ts[-1] - ts[0]) / (k_rows - 1)
    a = (b * np.exp(1j * ts[0] * omega)).reshape(len(b), panels, order)
    chirp = _chirp(0.5 * dt * width, max(panels, k_rows))
    size = 1 << (panels + k_rows - 1).bit_length()
    v = np.zeros(size, dtype=complex)
    v[:k_rows] = chirp[:k_rows].conj()
    v[size - panels + 1:] = chirp[panels - 1:0:-1].conj()
    v = np.fft.fft(v)
    step = np.exp(1j * np.multiply.outer(omega[:order], dt * np.arange(k_rows)))
    out = 0.0
    for q in range(order):
        y = np.fft.ifft(np.fft.fft(a[:, :, q] * chirp[:panels], n=size) * v)
        out = out + y[:, :k_rows] * step[q]
    return out * chirp[:k_rows]


def _lattice_rows(source: JSource, ts: np.ndarray, width: float, panels: int):
    """The integrand of the linear rows ts on their shared node set.

    The node set is a geometric head below width and the main panels
    [p width, (p + 1) width], 1 <= p <= panels, each split in two per pass.
    Returns (len(ts) / 8, 24): per chunk of 8 rows, Q1, Q2 and Qz as in
    _kernel_rows.  The head is summed by _direct_sums; the main panels by
    _chirp_sums, with Q2 and Qz as sum(b) - Re C, well conditioned as long
    as t omega >= pi/20 there.
    """
    def rows(omega: np.ndarray, w: np.ndarray) -> np.ndarray:
        wg = w * (np.asarray(source.j(omega), dtype=float) / omega ** 2)
        coth, csch, tanh_half = _thermal_factors(0.5 * source.beta * omega)
        b = np.array([wg, wg * coth, wg * csch])
        head = int(np.searchsorted(omega, width))
        sums = _direct_sums(ts, omega[:head], b[:, :head], 1)
        # the panels of this pass: each doubling halves the width exactly
        halved = width * (panels * _GAUSS_ORDER / (len(omega) - head))
        main = _chirp_sums(b[:, head:], omega[head:], ts, halved)
        sums[0] += main[0].imag
        sums[1:] += np.sum(b[1:, head:], axis=1)[:, None] - main[1:].real
        sums[2] += np.dot(wg, tanh_half)
        return sums.reshape(3, -1, _CHUNK).transpose(1, 0, 2).reshape(-1, 3 * _CHUNK)

    return rows


def _evaluate(source: JSource, ts: Sequence[float], tol: float, which: str,
              what: str):
    ts = np.asarray(ts, dtype=float)
    # Q1 does not depend on beta, so its head has no thermal knee to resolve
    beta = None if which == "q1" else source.beta
    edges = _initial_edges(source, float(np.max(ts)), beta, 0.0, what)
    rows = _kernel_rows(source, ts, which)
    return integrate_refining(rows, edges, rtol=tol, what=what)


def _shared_edges(source: JSource, t_max: float, what: str):
    """Initial edges of the linear rows' shared node set, with W and P.

    The P main panels have exact edges p W, 1 <= p <= P + 1,
    W = pi/(2 t_max), up to omega_max and at least 7 of them; below W the
    geometric head.
    """
    width = np.pi / (2.0 * t_max)
    main = width * np.arange(1, max(8, int(np.ceil(source.omega_max / width))) + 1)
    edges = np.concatenate([_head_edges(width, source.beta, source.ir_exponent,
                                        0.0, what), main])
    return edges, width, len(main) - 1


def _evaluate_shared(source: JSource, ts: np.ndarray, t_max: float, tol: float):
    """The linear rows ts (whole chunks of 8) on one shared node set.

    The stop rule holds per chunk, and the set is refined until every chunk
    meets it.
    """
    what = _TABLE % (ts[0], ts[-1])
    edges, width, panels = _shared_edges(source, t_max, what)
    rows = _lattice_rows(source, ts, width, panels)
    return integrate_refining(rows, edges, order=_GAUSS_ORDER, rtol=tol,
                              what=what)


def _single(spec_or_source, t, tol, which, ir_min):
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    source = _as_source(spec_or_source)
    _require_ir(source.ir_exponent, ir_min, which)
    if t == 0.0 and which in ("q1", "q2"):
        return 0.0, 0.0
    res = _evaluate(source, [t], tol, which, "%s at t=%g" % (which, t))
    return float(res.values[0]), float(res.errors[0])


def q1(spec: Union[BathSpec, JSource], t: float, *, tol: float = 1e-9):
    """Q1(t) = int_0^inf J(w) w^-2 sin(w t) dw, with its error estimate.

    tol is relative to max(|Q1(t)|, int_0^inf J(w) w^-2 (1 - cos(w t)) dw),
    so a sign change of Q1 does not demand accuracy beyond roundoff.
    """
    return _single(spec, t, tol, "q1", _IR_Q1_MIN)


def q2(spec: Union[BathSpec, JSource], t: float, *, tol: float = 1e-9):
    """Q2(t) = int_0^inf J(w) w^-2 (1 - cos(w t)) coth(beta w/2) dw >= 0."""
    return _single(spec, t, tol, "q2", _IR_Q2_MIN)


def qz(spec: Union[BathSpec, JSource], t: float, *, tol: float = 1e-9):
    """Qz(t) = int_0^inf J(w) w^-2 [cosh(beta w/2) - cos(w t)]/sinh(beta w/2) dw."""
    return _single(spec, t, tol, "qz", _IR_Q2_MIN)


def c2_saturation(spec: Union[BathSpec, JSource], *, tol: float = 1e-9) -> float:
    """int_0^inf J(w) w^-2 coth(beta w/2) dw, the Q2 plateau.

    Finite only when the infrared exponent exceeds 2; returns inf otherwise.
    Raises AccuracyError if the quadrature does not converge, or if the
    geometric head of the panels, which deepens as the exponent nears 2,
    reaches frequencies whose square underflows to 0 (_head_edges).
    """
    source = _as_source(spec)
    if not source.ir_exponent > 2.05:
        return np.inf
    edges = _initial_edges(source, 0.0, source.beta, 2.0, "c2_saturation")

    def rows(omega, w):
        g = np.asarray(source.j(omega), dtype=float) / omega ** 2
        return np.sum(g * _thermal_factors(0.5 * source.beta * omega)[0] * w)

    res = integrate_refining(rows, edges, rtol=tol, what="c2_saturation")
    return float(res.values[0])


def _n_geo(n: int) -> int:
    """The number of geometric times of an n-point grid (n >= 4)."""
    return max(2, n // 3)


def _time_grid(t_max: float, n: int) -> np.ndarray:
    """0, n_geo geometric times up to t_max / 10, then linear ones to t_max
    (n >= 4, 0 < t_max < inf)."""
    t_switch = t_max / 10.0
    n_geo = _n_geo(n)
    geo = np.geomspace(t_switch / 1000.0, t_switch, n_geo)
    lin = np.linspace(t_switch, t_max, n - n_geo)[1:]
    return np.concatenate([[0.0], geo, lin])


def _shared_rows(n: int):
    """Rows [first, stop) of an n-point grid: its whole chunks of linear times.

    (0, 0) when there are none.
    """
    first = -(-(1 + _n_geo(n)) // _CHUNK) * _CHUNK
    stop = n // _CHUNK * _CHUNK
    return (first, stop) if stop > first else (0, 0)


def _cache_key(spec: BathSpec, t_max: float, n: int, tol: float) -> str:
    canonical = "|".join([_NUMERICS_VERSION, "%.17g" % spec.beta,
                          spec.h.content_key(), "%.17g" % t_max, str(n),
                          "%.17g" % tol])
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _record_dtype(n: int) -> np.dtype:
    """The record of a cache entry: the (n, 7) table (t, Q1, Q2, Qz and the
    three error estimates), its request and the Q2 plateau."""
    return np.dtype([("table", "<f8", (n, 7)),
                     ("request", [("t_max", "<f8"), ("n", "<i8"), ("tol", "<f8")]),
                     ("c2_inf", "<f8")])


def _save_table(path: str, t_max: float, n: int, tol: float,
                table: KernelTable) -> None:
    columns = np.column_stack([table.t_grid, table.q1, table.q2, table.qz,
                               table.err_est])
    buf = io.BytesIO()
    np.save(buf, np.array((columns, (t_max, n, tol), table.c2_inf),
                          dtype=_record_dtype(n)))
    atomic_write(path, buf.getvalue())


def _read_entry(path: str, t_max: float, n: int, tol: float) -> KernelTable:
    with open(path, "rb") as fh:
        # the .npy format alone: no zip archive, and never a pickle
        record = np.lib.format.read_array(fh, allow_pickle=False)
    if not (record.dtype == _record_dtype(n) and record.shape == ()):
        raise ValueError("it is not one kernel table record of %d rows" % n)
    request = record["request"].item()
    if request != (t_max, n, tol):
        raise ValueError("it was computed for t_max=%r, n=%r, tol=%r" % request)
    data, c2_inf = record["table"], float(record["c2_inf"])
    if not (np.isfinite(data).all() and c2_inf > 0.0):
        raise ValueError("its table is not finite, or its c2_inf %r not > 0"
                         % c2_inf)
    return KernelTable(t_grid=data[:, 0], q1=data[:, 1], q2=data[:, 2],
                       qz=data[:, 3], err_est=data[:, 4:7], c2_inf=c2_inf)


def _load_table(path: str, t_max: float, n: int,
                tol: float) -> Optional[KernelTable]:
    """The cached table at path, or None when it is absent or does not hold up.

    An entry holds up when it is a record of exactly _record_dtype(n) (never
    a pickle), of this request (t_max, n, tol), whose table is finite and
    whose c2_inf is > 0 (inf allowed).  One that does not, or does not
    parse, is logged as a warning; the caller then recomputes and rewrites it.
    """
    if not os.path.exists(path):
        return None
    try:
        return _read_entry(path, t_max, n, tol)
    except (OSError, ValueError) as exc:
        _log.warning("kernel cache entry %s is unusable (%s); recomputing it",
                     path, exc)
        return None


def tabulate_kernels(spec: Union[BathSpec, JSource], t_max: float, n: int, *,
                     tol: float = 1e-9,
                     cache_dir: Optional[str] = None) -> KernelTable:
    """Tabulate all three kernels on a geometric-then-linear t grid.

    The grid needs n >= 4 rows and 0 < t_max < inf; any other request
    raises DomainError before the cache is read or a quadrature runs.  A
    chunk, or the shared node set, that does not meet the stop rule within
    the refinement limit raises AccuracyError naming its t range, and
    nothing is cached.  With cache_dir set, a table is stored as one .npy
    record (see _record_dtype), keyed by a content hash of the numerics
    version, the bath and grid parameters, and written atomically; an entry
    that fails its load check is recomputed and rewritten.  A miss returns
    the table it computed and stored (.npy round-trips exactly), without
    reading it back.  A hit builds no JSource, so it skips the support
    probe; hit or miss, the infrared exponent is fitted once.
    """
    if not (n >= 4 and 0.0 < t_max < np.inf):
        raise DomainError("a kernel table needs n >= 4 and 0 < t_max < inf, "
                          "got n=%r, t_max=%r" % (n, t_max))
    path = None
    if cache_dir is not None and isinstance(spec, BathSpec):
        # a hit builds no JSource, so the beta refusal is made here too
        _require_thermal_head(spec.beta)
        path = os.path.join(cache_dir, _cache_key(spec, t_max, n, tol) + ".npy")
        cached = _load_table(path, t_max, n, tol)
        if cached is not None:
            require_tabulable(infrared_exponent(spec.h))
            return cached

    source = _as_source(spec)
    require_tabulable(source.ir_exponent)
    # first, so that a plateau whose head underflows refuses the table
    # before any of its quadratures
    c2_inf = c2_saturation(source, tol=tol)

    t = _time_grid(t_max, n)
    values, err = np.empty((3, n)), np.empty((n, 3))
    first, stop = _shared_rows(n) if source.breaks is None else (0, 0)
    for i in [*range(0, first, _CHUNK), *range(stop, n, _CHUNK)]:
        chunk = t[i:i + _CHUNK]
        m = len(chunk)
        res = _evaluate(source, chunk, tol, "all", _TABLE % (chunk[0], chunk[-1]))
        values[:, i:i + m] = res.values.reshape(3, m)
        err[i:i + m] = res.errors.reshape(3, m).T
    if stop > first:
        res = _evaluate_shared(source, t[first:stop], t_max, tol)
        # (chunks, 3 kernels x 8 rows) -> kernel-major values, row-major errors
        chunks = res.values.reshape(-1, 3, _CHUNK)
        values[:, first:stop] = chunks.transpose(1, 0, 2).reshape(3, -1)
        chunks = res.errors.reshape(-1, 3, _CHUNK)
        err[first:stop] = chunks.transpose(0, 2, 1).reshape(-1, 3)

    q1v, q2v, qzv = values
    q1v[0] = q2v[0] = 0.0
    err[0, 0] = err[0, 1] = 0.0

    table = KernelTable(t_grid=t, q1=q1v, q2=q2v, qz=qzv, err_est=err,
                        c2_inf=c2_inf)
    if path is not None:
        _save_table(path, t_max, n, tol, table)
    return table
