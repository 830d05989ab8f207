"""Bath kernels Q1(t), Q2(t), Qz(t): evaluation, tabulation, caching.

All kernels exclude the q0^2/pi prefactor; consumers apply it explicitly.
Each entry point takes a BathSpec or an injected JSource, and either one
carries the inverse temperature beta (Q1 does not depend on it).
The Qz integrand uses the combined form

    J(w)/w^2 * [tanh(beta w/4) + 2 sin^2(w t/2) / sinh(beta w/2)]

whose two pieces are separately nonnegative and O(w) at the origin, unlike
the literal difference of two infrared-divergent integrals.

A table is integrated in chunks of 8 times, each held to the stop rule
against its own largest value; a ragged last chunk is padded with copies
of its last row.  The thermal factors coth, 1/sinh and tanh(x/2) of
x = beta w / 2 are computed once per node set, from expm1(-x) and exp(-x).
The quadrature weights, J/w^2 and those factors are folded into weight
vectors b.

A cold table is at most three quadratures: the plateau c2_inf; the rows
below the first whole chunk of linear times (geometric and straddling) as
the groups of one call; and the rows from there to t_max as the groups of
a second call.

Every kernel call has the same panels (_edges): a geometric head below
W = min(w_max / 8, pi/(2 t_max)), t_max the call's largest time, and main
panels with exact edges p W.  And one integrand (_kernel_rows): on the main
panels it writes sin(w t) = 2 s c and 1 - cos(w t) = 2 s^2 with
s, c = sin, cos(t_k w / 2), one sine/cosine pair per (t, w) pair, which
keeps the small-angle accuracy that Q2 and Qz need; each row block is one
matrix product of the (m, N) trig block.  A table call sums its head by
moments: there t w < pi/2, so sin(t w) and 1 - cos(t w) are their power
series in (t W)(w / W), cut where the first omitted term is below 2^-53,
and the head takes the moments sum_j b_j (w_j / W)^k and no sine or
cosine.  A pointwise q1/q2/qz call has one row, on which the moments cost
more than the pairs, so it takes a pair on its head nodes too.

For a bath without breaks, the rows on the linear part of the grid,
t_k = t_0 + k dt, take no pairs on the main panels either: for each Gauss
index, the sum over panels p of b_p exp(i t_k w_p) is a chirp-z transform
in p (Rabiner, Schafer and Rader, 1969), one FFT convolution by
Bluestein's identity k p = (k^2 + p^2 - (k - p)^2) / 2, and the main parts
of Q2 and Qz are sum(b) - Re C(t_k).  Those rows have t >= t_max / 10 and
those panels w >= W, so t w >= t_max W / 10: pi/20 when W = pi/(2 t_max),
that is for t_max >= 4 pi / w_max, where the difference is well
conditioned.  A shorter t_max has t w down to t_max w_max / 80, and Q2
loses digits against its own value, though not against the chunk's
largest.  Every call is refined until each of its chunks meets the stop
rule.

Every quadrature here is one integrate_refining call, which raises
AccuracyError naming the kernel and time, or the table's t range, when it
cannot meet the stop rule.  So a table is converged or not made, and an
unconverged one is never cached.  A kernel cache entry is one .npy file
holding one record (_record_dtype): the table, its request (t_max, n, tol)
and the Q2 plateau c2_inf, looked up, checked and stored by fileio's
cached_record, which the level-shift records of relaxation share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import AccuracyError, DomainError, InfraredError, UsageError
from .fileio import cached_record
from .quadrature import integrate_refining
from .spectral_density import BathSpec, eval_J

_IR_Q1_MIN = 0.95
_IR_Q2_MIN = 0.05
_CHUNK = 8
# Gauss-Legendre order of the kernel calls, whose main panels _chirp_sums
# reshapes by it
_GAUSS_ORDER = 6
# Part of every cache key: tables computed under another stop rule or
# support bound, or stored in another entry layout, are recomputed, never
# served.
_NUMERICS_VERSION = "quad-v5-moments"
# The least omega^2 of a thermal head: a subnormal with half of its bits
_OMEGA_SQ_MIN = np.finfo(float).tiny * np.sqrt(np.finfo(float).eps)
# The last power of the head's series: (pi/2)^22 / 22! < 2^-53 at t W = pi/2
_SERIES = 21
# Per power k > 0, the Taylor coefficient (-1)^((k - 1) // 2) / k! of sin
# (row 0, odd k) and of 1 - cos (row 1, even k); 0 elsewhere
_TAYLOR = np.zeros((2, _SERIES + 1))
for _k in range(1, _SERIES + 1):
    _TAYLOR[1 - _k % 2, _k] = (-1) ** ((_k - 1) // 2) / math.factorial(_k)
# The label of a table quadrature in its AccuracyError, by its t range
_TABLE = "kernel table on t in [%g, %g]"


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
    a beta too large for its thermal head raises DomainError.

    Its support bound and infrared exponent are those of the form factor,
    derived once per FormFactor however many sources are built from it.
    """
    _require_thermal_head(spec.beta)
    h = spec.h
    return JSource(j=lambda w: np.asarray(eval_J(h, w), dtype=float),
                   omega_max=h.omega_max,
                   ir_exponent=h.ir_exponent,
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


def _edges(source: JSource, t_cap: float, beta: Optional[float], pole: float,
           what: str):
    """Panel edges of a kernel quadrature, with W and P.

    Below W = min(omega_max / 8, pi / (2 t_cap)) lies the geometric head;
    above it P >= 7 main panels with exact edges p W, up to the first
    multiple at or past omega_max.  The source's breaks up to omega_max are
    added as edges, so the last knot of a tabulated J, where it drops to 0,
    stays one.
    """
    omega_max = source.omega_max
    width = omega_max / 8.0
    if t_cap > 0.0:
        width = min(width, np.pi / (2.0 * t_cap))
    main = width * np.arange(1, max(8, int(np.ceil(omega_max / width))) + 1)
    edges = np.concatenate([_head_edges(width, beta, source.ir_exponent, pole,
                                        what), main])
    if source.breaks is not None:
        breaks = np.asarray(source.breaks, dtype=float)
        edges = np.union1d(edges, breaks[(breaks > edges[0]) & (breaks <= omega_max)])
    return edges, width, len(main) - 1


def _direct_sums(ts: np.ndarray, omega: np.ndarray, b: np.ndarray,
                 n_sin: int) -> np.ndarray:
    """Direct sums over the nodes omega for every t in ts, shape (len(b), m).

    Rows [0, n_sin) of the weight vectors b are summed against sin(t omega),
    the others against 1 - cos(t omega).  With s, c = sin, cos(t omega / 2),
    these are 2 s c and 2 s^2, which keeps the small-angle accuracy that Q2
    and Qz need.  The rows of ts are taken in blocks of about 2^14
    (t, omega) pairs, and of at least 8 rows.
    """
    out = np.empty((len(b), len(ts)))
    block = max(_CHUNK, 16384 // max(len(omega), 1))
    for i in range(0, len(ts), block):
        half = np.multiply.outer(0.5 * ts[i:i + block], omega)
        s, c = np.sin(half), np.cos(half)
        # fresh contiguous blocks, so the products run in BLAS
        if n_sin:
            out[:n_sin, i:i + block] = b[:n_sin] @ (s * c).T
        out[n_sin:, i:i + block] = b[n_sin:] @ (s * s).T
    out *= 2.0
    return out


def _moment_sums(ts: np.ndarray, omega: np.ndarray, b: np.ndarray,
                 width: float, n_sin: int) -> np.ndarray:
    """Sums over the nodes omega < width for t in ts, t width <= pi/2, shape
    (len(b), m).

    Rows [0, n_sin) of the weight vectors b are summed against
    sin(t omega), the others against 1 - cos(t omega), by their power series
    up to _SERIES in t omega = (t width)(omega / width): the sums need only
    the moments M_k = sum_j b_j (omega_j / width)^k, one Vandermonde block
    in omega / width, and one in t width.  Deep in the head the high powers
    are subnormal or 0, far below the moments' rounding.
    """
    moments = b @ np.vander(omega / width, _SERIES + 1, increasing=True)
    moments[:n_sin] *= _TAYLOR[0]
    moments[n_sin:] *= _TAYLOR[1]
    return moments @ np.vander(ts * width, _SERIES + 1, increasing=True).T


def _by_chunk(sums: np.ndarray) -> np.ndarray:
    """Q1, Q2 and Qz rows (3, m) as (chunks, 24): per chunk of 8 rows, its
    Q1, then Q2, then Qz rows.  A ragged last chunk is padded with copies of
    its last row, which the caller drops."""
    pad = -sums.shape[1] % _CHUNK
    sums = np.concatenate([sums, sums[:, -1:].repeat(pad, axis=1)], axis=1)
    return sums.reshape(3, -1, _CHUNK).transpose(1, 0, 2).reshape(-1, 3 * _CHUNK)


def _by_kernel(chunks: np.ndarray) -> np.ndarray:
    """The inverse of _by_chunk, padding included: (chunks, 24) -> (3, m)."""
    return chunks.reshape(-1, 3, _CHUNK).transpose(1, 0, 2).reshape(3, -1)


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
    >= P + K with the chirp exp(-i dt width n^2 / 2).  A single row takes
    dt = 0.
    """
    order = _GAUSS_ORDER
    k_rows, panels = len(ts), len(omega) // order
    dt = (ts[-1] - ts[0]) / max(k_rows - 1, 1)
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


def _kernel_rows(source: JSource, ts: np.ndarray, which: str, width: float,
                 panels: int):
    """The integrand of one kernel call: (nodes, weights) -> row integrals.

    Rows, in order: Q1 at every t ("all", "q1"); then the zero-temperature
    Q2 at every t ("q1"), or Q2 ("all", "q2") and Qz ("all", "qz").  The
    weights w J / omega^2 and the node factors coth, 1/sinh and tanh are
    folded into weight vectors b.  The head, the nodes below width (none
    for width 0), is summed by _moment_sums.  The main panels are summed by
    _chirp_sums when panels > 0 (the P panels of _edges, each halved per
    pass, and evenly spaced ts), with Q2 and Qz as sum(b) - Re C (the
    module docstring says when that is well conditioned); else by
    _direct_sums.  The table's rows ("all") come as groups, one per chunk
    of 8 times (_by_chunk).
    """
    def rows(omega: np.ndarray, w: np.ndarray) -> np.ndarray:
        wg = w * (np.asarray(source.j(omega), dtype=float) / omega ** 2)
        if which == "q1":
            # Zero-temperature Q2: a nonnegative row that gives the call a
            # scale, so Q1 at a sign change can meet the stop rule.
            b, n_sin = np.array([wg, wg]), 1
        else:
            coth, csch, tanh_half = _thermal_factors(0.5 * source.beta * omega)
            b = np.array({"all": [wg, wg * coth, wg * csch], "q2": [wg * coth],
                          "qz": [wg * csch]}[which])
            n_sin = int(which == "all")
        head = int(np.searchsorted(omega, width))
        if panels:
            # the panels of this pass: each doubling halves the width exactly
            halved = width * (panels * _GAUSS_ORDER / (len(omega) - head))
            chirp = _chirp_sums(b[:, head:], omega[head:], ts, halved)
            total = np.sum(b[n_sin:, head:], axis=1)[:, None]
            sums = np.concatenate([chirp[:n_sin].imag,
                                   total - chirp[n_sin:].real])
        else:
            sums = _direct_sums(ts, omega[head:], b[:, head:], n_sin)
        if head:
            sums += _moment_sums(ts, omega[:head], b[:, :head], width, n_sin)
        if which in ("all", "qz"):
            sums[-1] += np.dot(wg, tanh_half)
        return _by_chunk(sums) if which == "all" else sums.ravel()

    return rows


def _evaluate(source: JSource, ts: Sequence[float], tol: float, which: str,
              what: str, shared: bool = False):
    """One kernel quadrature of the rows at ts.

    A table call ("all") sums its head by moments, and with shared (the
    linear rows of a bath without breaks) its main panels by chirp-z
    transforms; a pointwise call sums every node directly, since moments
    cost more than one sine/cosine pair per node on a single row.
    """
    ts = np.asarray(ts, dtype=float)
    # Q1 does not depend on beta, so its head has no thermal knee to resolve
    beta = None if which == "q1" else source.beta
    edges, width, panels = _edges(source, float(np.max(ts)), beta, 0.0, what)
    rows = _kernel_rows(source, ts, which, width if which == "all" else 0.0,
                        panels if shared else 0)
    return integrate_refining(rows, edges, order=_GAUSS_ORDER, rtol=tol,
                              what=what)


def _single(spec_or_source, t, tol, which, ir_min):
    if not 0.0 <= t < np.inf:
        raise DomainError("t must be finite and nonnegative, got %r" % (t,))
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
    edges = _edges(source, 0.0, source.beta, 2.0, "c2_saturation")[0]

    def rows(omega, w):
        g = np.asarray(source.j(omega), dtype=float) / omega ** 2
        return np.sum(g * _thermal_factors(0.5 * source.beta * omega)[0] * w)

    res = integrate_refining(rows, edges, rtol=tol, what="c2_saturation")
    return float(res.values[0])


def _n_geo(n: int) -> int:
    """The number of geometric times of an n-point grid (n >= 4)."""
    return max(2, n // 3)


def _time_grid(t_max: float, n: int) -> np.ndarray:
    """0, n_geo geometric times from t_max / 10^4 up to t_max / 10, then
    linear ones to t_max.

    DomainError unless n >= 4 and 0 < t_max < inf, and unless the times
    rise strictly from a positive first one: a t_max near the least
    subnormal makes that first time 0, or repeats times.
    """
    if not (n >= 4 and 0.0 < t_max < np.inf):
        raise DomainError("a kernel table needs n >= 4 and 0 < t_max < inf, "
                          "got n=%r, t_max=%r" % (n, t_max))
    t_switch = t_max / 10.0
    n_geo = _n_geo(n)
    if t_switch / 1000.0 > 0.0:
        geo = np.geomspace(t_switch / 1000.0, t_switch, n_geo)
        lin = np.linspace(t_switch, t_max, n - n_geo)[1:]
        t = np.concatenate([[0.0], geo, lin])
        if np.all(np.diff(t) > 0.0):
            return t
    raise DomainError("t_max=%r is too small for a kernel table of n=%r: its "
                      "times do not rise strictly from a positive first one"
                      % (t_max, n))


def _first_linear_chunk(n: int) -> int:
    """The first row of an n-point grid's first whole chunk of linear times,
    which may be past its last row."""
    return -(-(1 + _n_geo(n)) // _CHUNK) * _CHUNK


def _record_dtype(n: int) -> np.dtype:
    """The record of a cache entry: the (n, 7) table (t, Q1, Q2, Qz and the
    three error estimates), its request and the Q2 plateau."""
    return np.dtype([("table", "<f8", (n, 7)),
                     ("request", [("t_max", "<f8"), ("n", "<i8"), ("tol", "<f8")]),
                     ("c2_inf", "<f8")])


def _read_entry(record: np.ndarray, t: np.ndarray) -> KernelTable:
    """The table of a cache record of the request of grid t, or ValueError
    unless its table is finite, its time column is t bitwise, and its
    c2_inf is > 0 (inf allowed)."""
    data, c2_inf = record["table"], float(record["c2_inf"])
    if not (np.isfinite(data).all() and c2_inf > 0.0):
        raise ValueError("its table is not finite, or its c2_inf %r not > 0"
                         % c2_inf)
    # the grid is a pure function of (t_max, n): any other time column
    # would place the kernels at the wrong times
    if not np.array_equal(data[:, 0], t):
        raise ValueError("its time column is not the grid of t_max=%r, n=%r"
                         % (t[-1], len(t)))
    return KernelTable(t_grid=data[:, 0], q1=data[:, 1], q2=data[:, 2],
                       qz=data[:, 3], err_est=data[:, 4:7], c2_inf=c2_inf)


def _tabulate(source: JSource, t: np.ndarray, tol: float) -> KernelTable:
    """The kernels of source on the grid t, computed: at most three
    quadratures (tabulate_kernels)."""
    # first, so that a plateau whose head underflows refuses the table
    # before any of its quadratures
    c2_inf = c2_saturation(source, tol=tol)
    n = len(t)
    first = min(_first_linear_chunk(n), n)
    values, err = np.empty((3, n)), np.empty((n, 3))
    for i, stop in ((0, first), (first, n)):
        if i == stop:
            # a grid of at most 8 rows has no rows past its first chunk
            break
        ts = t[i:stop]
        res = _evaluate(source, ts, tol, "all", _TABLE % (ts[0], ts[-1]),
                        shared=i > 0 and source.breaks is None)
        # (chunks, 3 kernels x 8 rows) -> kernel-major values, row-major
        # errors, without the copies that pad a ragged last chunk
        values[:, i:stop] = _by_kernel(res.values)[:, :stop - i]
        err[i:stop] = _by_kernel(res.errors)[:, :stop - i].T

    q1v, q2v, qzv = values
    q1v[0] = q2v[0] = 0.0
    err[0, 0] = err[0, 1] = 0.0
    return KernelTable(t_grid=t, q1=q1v, q2=q2v, qz=qzv, err_est=err,
                       c2_inf=c2_inf)


def tabulate_kernels(spec: Union[BathSpec, JSource], t_max: float, n: int, *,
                     tol: float = 1e-9,
                     cache_dir: Optional[str] = None) -> KernelTable:
    """Tabulate all three kernels on a geometric-then-linear t grid.

    The grid needs n >= 4 rows and 0 < t_max < inf, with times that rise
    strictly from a positive first one (_time_grid); any other request
    raises DomainError before the cache is read or a quadrature runs.  A
    cold table is at most three quadratures: the plateau c2_inf, the rows
    below the first whole chunk of linear times as the groups of one call,
    and the other rows as the groups of a second call, by chirp-z
    transforms for a bath without breaks; a grid of at most 8 rows has no
    other rows.  A call that does not meet the stop rule within the
    refinement limit raises AccuracyError naming its t range, and nothing
    is cached.

    The source is built, and its infrared exponent checked, before the
    cache is read, so a hit and a miss refuse alike; a BathSpec's form
    factor derives its exponent and support bound once.  A JSource has no
    content key, so with cache_dir it raises UsageError first.

    With cache_dir set, a table is one entry of the cache (fileio's
    cached_record): one .npy record (_record_dtype), keyed by the numerics
    version, the bath and grid parameters.  An entry that does not hold up
    (a time column that is not the grid of (t_max, n) bitwise, say) is one
    warning, then recomputed and rewritten; a miss returns the table it
    computed and stored, without reading it back.
    """
    t = _time_grid(t_max, n)
    if cache_dir is not None and not isinstance(spec, BathSpec):
        raise UsageError("a kernel table is cached by its BathSpec; a %s "
                         "has no cache key" % type(spec).__name__)
    source = _as_source(spec)
    require_tabulable(source.ir_exponent)
    if cache_dir is None:
        return _tabulate(source, t, tol)

    def compute():
        table = _tabulate(source, t, tol)
        columns = np.column_stack([table.t_grid, table.q1, table.q2,
                                   table.qz, table.err_est])
        return table, np.array((columns, (t_max, n, tol), table.c2_inf),
                               dtype=_record_dtype(n))

    return cached_record(
        cache_dir, [_NUMERICS_VERSION, spec.beta, spec.h.content_key(), t_max,
                    n, tol],
        "kernel", _record_dtype(n), (t_max, n, tol),
        lambda record: _read_entry(record, t), compute)
