"""Form factors, the spectral density, and the thermal glueing map.

A radially symmetric coupling function f(|k|) on R^3 embeds into the
positive-temperature one-particle space L2(R x S^2) as

    f_beta(u) = sqrt(u / (1 - exp(-beta u))) |u|^(1/2) * B(u),
    B(u) = f(u) for u >= 0,  B(u) = -conj(f(-u)) for u < 0,

sampled here on a uniform midpoint-offset grid (no sample at u = 0).  The
angular integral contributes a fixed factor 4 pi.  The minus sign on the
negative branch is a fixed convention; no phase knob is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, EvaluationError, InfraredError, UsageError

ANGULAR_FACTOR = 4.0 * np.pi
TWO_PI_SQ = 2.0 * np.pi ** 2
_SERIES_CUT = 1e-4
_IR_FIT_DECADE = (1e-4, 1e-3)
_COUPLING_IR_THRESHOLD = 2.95
_CONDITION_A_REFINEMENTS = 2


@dataclass(frozen=True, eq=False)
class FormFactor:
    """Radially symmetric form factor h(k) = h(|k|).

    family "power_exp": h(u) = u^p * cut(u/scale) with cut exponential
    (exp(-x)) or gaussian (exp(-x^2)).  Exponents down to p = -1/2 are
    accepted so that ohmic spectral densities J ~ omega are expressible;
    for p <= 0 the value at u = 0 is not finite, but J(0) = 0 still holds
    and all grids used here avoid u = 0.

    family "tabulated": linear interpolation on an ascending grid, zero
    outside it.
    """

    family: str
    p: float = 0.0
    cutoff: str = "exponential"
    scale: float = 1.0
    grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family == "power_exp":
            if not np.isfinite(self.p) or self.p < -0.5:
                raise DomainError("power_exp exponent must be >= -1/2, got %r" % (self.p,))
            if self.cutoff not in ("exponential", "gaussian"):
                raise DomainError("unknown cutoff %r" % (self.cutoff,))
            if not (np.isfinite(self.scale) and self.scale > 0):
                raise DomainError("cutoff scale must be positive, got %r" % (self.scale,))
        elif self.family == "tabulated":
            grid = np.asarray(self.grid, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
                raise UsageError("tabulated form factor needs matching 1-d grid and values")
            if not (np.all(np.isfinite(grid)) and grid[0] >= 0
                    and np.all(np.diff(grid) > 0)):
                raise DomainError("tabulated grid must be finite, strictly ascending "
                                  "and nonnegative")
            if not np.all(np.isfinite(values)):
                raise DomainError("tabulated values must be finite")
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "values", values)
        else:
            raise DomainError("unknown form factor family %r" % (self.family,))

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.family == "tabulated":
            return np.interp(omega, self.grid, self.values, left=0.0, right=0.0)
        x = omega / self.scale
        cut = np.exp(-x) if self.cutoff == "exponential" else np.exp(-x * x)
        with np.errstate(divide="ignore"):
            return omega ** self.p * cut

    def content_key(self) -> str:
        if self.family == "power_exp":
            return "power_exp(p=%.17g,cutoff=%s,scale=%.17g)" % (self.p, self.cutoff, self.scale)
        body = ",".join("%.17g:%.17g" % (g, v) for g, v in zip(self.grid, self.values))
        return "tabulated(%s)" % body


def power_exp(p: float, cutoff: str = "exponential", scale: float = 1.0) -> FormFactor:
    return FormFactor("power_exp", p=p, cutoff=cutoff, scale=scale)


def tabulated(grid, values) -> FormFactor:
    return FormFactor("tabulated", grid=np.asarray(grid, dtype=float),
                      values=np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Physical parameters of one problem instance."""

    beta: float
    eps: float
    delta: float
    q0: float
    h: FormFactor

    def __post_init__(self):
        for name in ("beta", "eps", "delta", "q0"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError("%s must be finite" % name)
        if self.beta <= 0:
            raise DomainError("beta must be positive, got %r" % (self.beta,))

    def content_key(self) -> str:
        return "beta=%.17g,eps=%.17g,delta=%.17g,q0=%.17g,h=%s" % (
            self.beta, self.eps, self.delta, self.q0, self.h.content_key())


@dataclass(frozen=True)
class GridSpec:
    """Uniform midpoint-offset grid on [-u_max, u_max] with n samples."""

    u_max: float
    n: int = 2 ** 14

    def __post_init__(self):
        if not (np.isfinite(self.u_max) and self.u_max > 0):
            raise DomainError("u_max must be positive")
        if self.n < 4 or self.n % 2:
            raise DomainError("n must be an even count >= 4")

    def points(self) -> Tuple[np.ndarray, float]:
        step = 2.0 * self.u_max / self.n
        u = (np.arange(self.n) - self.n / 2 + 0.5) * step
        return u, step


@dataclass(frozen=True, eq=False)
class GluedFunction:
    """Samples of a glued function with midpoint quadrature weights."""

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    angular_factor: float = ANGULAR_FACTOR
    beta: Optional[float] = None
    source: Optional[Callable] = field(default=None, repr=False)

    def norm_sq(self) -> float:
        return float(self.angular_factor * np.sum(self.weights * np.abs(self.values) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def inner(self, other: "GluedFunction") -> complex:
        return complex(self.angular_factor
                       * np.sum(self.weights * np.conj(self.values) * other.values))

    def sign_relation_residual(self) -> float:
        """max |conj(g(-u)) + exp(-beta u / 2) g(u)| / max |g| over u > 0."""
        if self.beta is None:
            raise UsageError("sign relation needs the glueing temperature")
        mirrored = self.values[::-1]
        pos = self.grid > 0
        res = np.abs(np.conj(mirrored[pos])
                     + np.exp(-self.beta * self.grid[pos] / 2.0) * self.values[pos])
        scale = float(np.max(np.abs(self.values)))
        if scale == 0.0:
            return 0.0
        return float(np.max(res) / scale)


def thermal_factor(u, beta: float):
    """u / (1 - exp(-beta u)), series-stabilized near 0 and overflow-safe."""
    u = np.asarray(u, dtype=float)
    x = beta * u
    out = np.empty_like(u)
    small = np.abs(x) < _SERIES_CUT
    xs = x[small]
    out[small] = (1.0 + xs * (0.5 + xs / 12.0)) / beta
    xb = x[~small]
    ub = u[~small]
    res = np.empty_like(xb)
    pos = xb > 0
    res[pos] = ub[pos] / (-np.expm1(-xb[pos]))
    # for x < 0 rewrite as u e^x / (e^x - 1) to avoid exp(-x) overflow
    res[~pos] = ub[~pos] * np.exp(xb[~pos]) / np.expm1(xb[~pos])
    out[~small] = res
    return out


def eval_J(h: FormFactor, omega):
    """Spectral density J(omega) = (pi/2) omega^2 * 4 pi |h(omega)|^2.

    For power_exp form factors the power omega^(2 + 2p) is assembled
    directly, so ohmic cases (p = -1/2) avoid the indeterminate inf * 0
    at omega = 0.
    """
    arr = np.asarray(omega, dtype=float)
    if np.any(arr < 0):
        raise DomainError("omega must be nonnegative")
    if h.family == "power_exp":
        x = arr / h.scale
        cut = np.exp(-x) if h.cutoff == "exponential" else np.exp(-x * x)
        out = TWO_PI_SQ * arr ** (2.0 + 2.0 * h.p) * cut * cut
    else:
        vals = h(arr)
        out = TWO_PI_SQ * arr * arr * vals * vals
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def default_grid(f, beta: float) -> GridSpec:
    """Default glueing grid: u_max = 40 / beta * max(1, cutoff scale)."""
    scale = 1.0
    if isinstance(f, FormFactor):
        scale = f.scale if f.family == "power_exp" else float(f.grid[-1])
    return GridSpec(u_max=40.0 / beta * max(1.0, scale))


def glue(f, beta: float, grid: Optional[GridSpec] = None) -> GluedFunction:
    """Embed a radial function into the glued space at temperature 1/beta.

    f may be a FormFactor or any callable of u > 0 (complex values allowed).
    """
    if not (np.isfinite(beta) and beta > 0):
        raise DomainError("beta must be positive, got %r" % (beta,))
    if grid is None:
        grid = default_grid(f, beta)
    u, step = grid.points()
    pos = u > 0
    up = u[pos]
    base_pos = np.asarray(f(up), dtype=complex)
    if base_pos.shape != up.shape:
        base_pos = np.broadcast_to(base_pos, up.shape).astype(complex)
    branch = np.empty(u.shape, dtype=complex)
    branch[pos] = base_pos
    # mirror symmetry of the grid: sample at -u is the reversed array
    branch[~pos] = -np.conj(base_pos[::-1])
    with np.errstate(invalid="ignore"):
        values = np.sqrt(thermal_factor(u, beta) * np.abs(u)) * branch
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        bad = u[~(np.isfinite(values.real) & np.isfinite(values.imag))]
        raise EvaluationError("glued function not finite at %d sample(s), first u = %g"
                              % (bad.size, bad[0]))
    weights = np.full(u.shape, step)
    return GluedFunction(u, values, weights, ANGULAR_FACTOR, beta, source=f)


def coupling_function(spec: BathSpec, grid: Optional[GridSpec] = None) -> GluedFunction:
    """The coupling function f_beta = glue(-(i/2) q0 h(u)/u, beta).

    The Weyl operator of the interaction is W(2 f_beta).  Requires the
    glued values to stay bounded near u = 0, i.e. an infrared exponent of
    J of at least 3 (h ~ u^(1/2) or better).
    """
    h = spec.h
    if spec.q0 == 0.0:
        return glue(lambda u: np.zeros_like(u, dtype=complex), spec.beta,
                    grid or default_grid(h, spec.beta))
    s = infrared_exponent(h)
    if s < _COUPLING_IR_THRESHOLD:
        raise InfraredError(
            "h(u)/u diverges after the glueing weight: infrared exponent %.3f < 3" % s,
            exponent=s)

    def f(u):
        return -0.5j * spec.q0 * np.asarray(h(u), dtype=complex) / u

    return glue(f, spec.beta, grid)


def _uniform_step(grid: np.ndarray) -> float:
    d = np.diff(grid)
    step = float(d[0])
    if not np.allclose(d, step, rtol=1e-9, atol=0.0):
        raise UsageError("regularity norm requires a uniform grid")
    return step


def _fourier_weighted_value(grid: np.ndarray, values: np.ndarray,
                            alpha: float, angular: float) -> float:
    step = _uniform_step(grid)
    n = len(grid)
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
    ghat_abs = (step / np.sqrt(2.0 * np.pi)) * np.abs(np.fft.fft(values))
    # Bessel form of the order-alpha weight: equivalent to 1 + |xi|^alpha and
    # monotone in alpha since the base is >= 1.
    weight = (1.0 + xi ** 2) ** (0.5 * alpha)
    dxi = 2.0 * np.pi / (n * step)
    return float(np.sqrt(np.sum((weight * ghat_abs) ** 2) * dxi * angular))


def _refined_values(f, beta: float, base: GridSpec, alpha: float, ks) -> list:
    """Fourier-weighted values of f glued on the k-th refinements of base.

    Each refinement doubles u_max and halves the step: (u_max 2^k, n 4^k).
    """
    values = []
    for k in ks:
        g = glue(f, beta, GridSpec(u_max=base.u_max * 2 ** k, n=base.n * 4 ** k))
        values.append(_fourier_weighted_value(g.grid, g.values, alpha, g.angular_factor))
    return values


def _require_alpha(alpha: float) -> None:
    if not (np.isfinite(alpha) and alpha >= 0):
        raise DomainError("alpha must be finite and nonnegative, got %r" % (alpha,))


def regularity_norm(g: GluedFunction, alpha: float) -> Tuple[float, bool]:
    """Sobolev norm of order alpha, || (1 + xi^2)^{alpha/2} g_hat ||_L2.

    converged is True when the value moves by at most 1% under a refinement
    that doubles u_max and halves the grid step.  When g carries its source
    function the refinement re-glues it; otherwise a decimated inner-half
    evaluation stands in for the coarse value.
    """
    _require_alpha(alpha)
    value = _fourier_weighted_value(g.grid, g.values, alpha, g.angular_factor)
    if g.source is not None and g.beta is not None:
        u_max = float(g.grid[-1] + 0.5 * _uniform_step(g.grid))
        ref, = _refined_values(g.source, g.beta, GridSpec(u_max=u_max, n=len(g.grid)),
                               alpha, [1])
    else:
        n = len(g.grid)
        sl = slice(n // 4, 3 * n // 4, 2)
        ref = _fourier_weighted_value(g.grid[sl], g.values[sl], alpha, g.angular_factor)
    scale = max(value, ref, 1e-300)
    converged = bool(abs(ref - value) <= 0.01 * scale)
    return value, converged


def infrared_exponent(h: FormFactor) -> float:
    """Least-squares slope of log J against log omega over the lowest decade.

    +inf when h vanishes identically near omega = 0.
    """
    if h.family == "power_exp":
        lo, hi = _IR_FIT_DECADE
        omega = np.geomspace(lo * h.scale, hi * h.scale, 16)
    else:
        positive = h.grid[h.grid > 0]
        if positive.size == 0:
            return np.inf
        lo = float(positive[0])
        hi = min(10.0 * lo, float(h.grid[-1]))
        if hi <= lo:
            hi = 10.0 * lo
        omega = np.geomspace(lo, hi, 16)
    J = np.asarray(eval_J(h, omega))
    ok = J > 0
    if np.count_nonzero(ok) < 2:
        return np.inf
    slope = np.polyfit(np.log(omega[ok]), np.log(J[ok]), 1)[0]
    return float(slope)


def check_condition_A(spec: BathSpec, alpha: float):
    """Regularity check of the glued (i h / u) at Fourier weight order alpha.

    Returns (verdict, report) with verdict in {"pass", "fail",
    "inconclusive"}.  The norm is recomputed on a ladder of refined grids
    (u_max doubled, step halved per rung); stability within 1% is a pass,
    persistent growth is a fail, anything else within the refinement budget
    is inconclusive.  alpha must be finite and nonnegative.
    """
    _require_alpha(alpha)
    h = spec.h

    def f(u):
        return 1j * np.asarray(h(u), dtype=complex) / u

    base = default_grid(h, spec.beta)
    rungs = range(_CONDITION_A_REFINEMENTS + 1)
    values = np.asarray(_refined_values(f, spec.beta, base, alpha, rungs))
    report = {
        "alpha": float(alpha),
        "values": values.tolist(),
        "u_max": [base.u_max * 2 ** k for k in rungs],
        "n": [base.n * 4 ** k for k in rungs],
    }
    if np.max(values) == 0.0:
        report["rel_changes"] = [0.0] * _CONDITION_A_REFINEMENTS
        return "pass", report
    rel = np.abs(np.diff(values)) / np.maximum(values[1:], 1e-300)
    report["rel_changes"] = rel.tolist()
    if rel[-1] <= 0.01 and np.all(np.isfinite(values)):
        return "pass", report
    growing = np.all(values[1:] > values[:-1] * 1.05)
    if growing:
        return "fail", report
    return "inconclusive", report
