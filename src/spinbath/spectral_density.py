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

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, EvaluationError, InfraredError, ScalingError, UsageError

ANGULAR_FACTOR = 4.0 * np.pi
TWO_PI_SQ = 2.0 * np.pi ** 2
_SERIES_CUT = 1e-4
_IR_FIT_DECADE = (1e-4, 1e-3)
# the fraction of its peak below which J counts as vanished (_support_bound)
_SUPPORT_DROP = 1e-18
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
    outside it.  The form factor keeps read-only copies of its grid and
    values, so what it derives from them never goes stale.

    The infrared exponent and the support bound are derived once per form
    factor, on first use.
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
            grid = np.array(self.grid, dtype=float)
            values = np.array(self.values, dtype=float)
            if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
                raise UsageError("tabulated form factor needs matching 1-d grid and values")
            if not (np.all(np.isfinite(grid)) and grid[0] >= 0
                    and np.all(np.diff(grid) > 0)):
                raise DomainError("tabulated grid must be finite, strictly ascending "
                                  "and nonnegative")
            if not np.all(np.isfinite(values)):
                raise DomainError("tabulated values must be finite")
            grid.flags.writeable = values.flags.writeable = False
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

    @functools.cached_property
    def ir_exponent(self) -> float:
        """The infrared exponent of J, fitted once (infrared_exponent)."""
        return infrared_exponent(self)

    @functools.cached_property
    def omega_max(self) -> float:
        """The upper limit of the kernel integrals, probed once
        (_support_bound)."""
        return _support_bound(self)

    def content_key(self) -> str:
        if self.family == "power_exp":
            return "power_exp(p=%.17g,cutoff=%s,scale=%.17g)" % (self.p, self.cutoff, self.scale)
        body = ",".join("%.17g:%.17g" % (g, v) for g, v in zip(self.grid, self.values))
        return "tabulated(%s)" % body


def power_exp(p: float, cutoff: str = "exponential", scale: float = 1.0) -> FormFactor:
    return FormFactor("power_exp", p=p, cutoff=cutoff, scale=scale)


def tabulated(grid, values) -> FormFactor:
    return FormFactor("tabulated", grid=grid, values=values)


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

    @property
    def step(self) -> float:
        """The sample spacing 2 u_max / n, the weight of the midpoint rule."""
        return 2.0 * self.u_max / self.n

    def points(self) -> np.ndarray:
        """The n sample points (j - n/2 + 1/2) step, symmetric about 0."""
        return (np.arange(self.n) - self.n / 2 + 0.5) * self.step


@dataclass(frozen=True, eq=False)
class GluedFunction:
    """Samples of source glued at inverse temperature beta on the points of
    grid_spec, made by glue.  grid is those points; every sample weighs
    grid_spec.step in the midpoint rule."""

    grid_spec: GridSpec
    values: np.ndarray
    beta: float
    source: Callable = field(repr=False)

    @functools.cached_property
    def grid(self) -> np.ndarray:
        return self.grid_spec.points()

    def norm_sq(self) -> float:
        return float(ANGULAR_FACTOR * np.sum(self.grid_spec.step * np.abs(self.values) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def inner(self, other: "GluedFunction") -> complex:
        return complex(ANGULAR_FACTOR
                       * np.sum(self.grid_spec.step * np.conj(self.values) * other.values))

    def sign_relation_residual(self) -> float:
        """max |conj(g(-u)) + exp(-beta u / 2) g(u)| / max |g| over u > 0."""
        scale = float(np.max(np.abs(self.values)))
        if scale == 0.0:
            return 0.0
        return float(np.max(_sign_residuals(self.grid, self.values, self.beta)) / scale)


def _sign_residuals(u: np.ndarray, values: np.ndarray, beta: float) -> np.ndarray:
    """|conj(g(-u)) + exp(-beta u / 2) g(u)| at the u > 0 of samples g on a
    grid symmetric about 0, where g(-u) is the reversed array."""
    pos = u > 0
    return np.abs(np.conj(values[::-1][pos])
                  + np.exp(-beta * u[pos] / 2.0) * values[pos])


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


def default_grid(h: FormFactor, beta: float) -> GridSpec:
    """The glueing grid of functions built from the form factor h:
    u_max = 40 / beta * max(1, cutoff scale), where a tabulated form
    factor's scale is its last grid point."""
    scale = h.scale if h.family == "power_exp" else float(h.grid[-1])
    return GridSpec(u_max=40.0 / beta * max(1.0, scale))


def glue(f, beta: float, grid: GridSpec) -> GluedFunction:
    """Embed a radial function into the glued space at temperature 1/beta,
    sampled on the points of grid.

    f may be a FormFactor or any callable of u > 0 (complex values allowed).
    A callable carries no cutoff scale, so the caller states the grid; for a
    function of a form factor h that is default_grid(h, beta).
    """
    if not (np.isfinite(beta) and beta > 0):
        raise DomainError("beta must be positive, got %r" % (beta,))
    u = grid.points()
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
    return GluedFunction(grid, values, beta, f)


def coupling_function(spec: BathSpec, grid: Optional[GridSpec] = None) -> GluedFunction:
    """The coupling function f_beta = glue(-(i/2) q0 h(u)/u, beta).

    Glued on grid, by default the form factor's default_grid, for every
    q0.  The Weyl operator of the interaction is W(2 f_beta).  A nonzero
    coupling requires the glued values to stay bounded near u = 0, i.e. an
    infrared exponent of J of at least 3 (h ~ u^(1/2) or better).
    """
    h = spec.h
    if spec.q0 != 0.0:
        s = h.ir_exponent
        if s < _COUPLING_IR_THRESHOLD:
            raise InfraredError(
                "h(u)/u diverges after the glueing weight: infrared exponent %.3f < 3" % s,
                exponent=s)

    def f(u):
        return -0.5j * spec.q0 * np.asarray(h(u), dtype=complex) / u

    return glue(f, spec.beta, grid or default_grid(h, spec.beta))


def _fourier_weighted_value(g: GluedFunction, alpha: float) -> float:
    n, step = g.grid_spec.n, g.grid_spec.step
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
    ghat_abs = (step / np.sqrt(2.0 * np.pi)) * np.abs(np.fft.fft(g.values))
    # Bessel form of the order-alpha weight: equivalent to 1 + |xi|^alpha and
    # monotone in alpha since the base is >= 1.
    dxi = 2.0 * np.pi / (n * step)
    # every step is finite unless one overflows, and then the value is inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        weight = (1.0 + xi ** 2) ** (0.5 * alpha)
        value = float(np.sqrt(np.sum((weight * ghat_abs) ** 2) * dxi * ANGULAR_FACTOR))
    if not np.isfinite(value):
        raise ScalingError(
            "the order-%g Fourier weight overflows on a grid of step %g "
            "(|xi| up to %g); use a smaller alpha" % (alpha, step, np.abs(xi).max()))
    return value


def _refined_values(f, beta: float, base: GridSpec, alpha: float, ks) -> list:
    """Fourier-weighted values of f glued on the k-th refinements of base.

    Each refinement doubles u_max and halves the step: (u_max 2^k, n 4^k).
    """
    values = []
    for k in ks:
        g = glue(f, beta, GridSpec(u_max=base.u_max * 2 ** k, n=base.n * 4 ** k))
        values.append(_fourier_weighted_value(g, alpha))
    return values


def _require_alpha(alpha: float) -> None:
    if not (np.isfinite(alpha) and alpha >= 0):
        raise DomainError("alpha must be finite and nonnegative, got %r" % (alpha,))


def regularity_norm(g: GluedFunction, alpha: float) -> Tuple[float, bool]:
    """Sobolev norm of order alpha, || (1 + xi^2)^{alpha/2} g_hat ||_L2.

    converged is True when the value moves by at most 1% when g's source is
    glued again on the refinement of its grid that doubles u_max and halves
    the step.  An alpha whose weight overflows raises ScalingError.
    """
    _require_alpha(alpha)
    value = _fourier_weighted_value(g, alpha)
    ref, = _refined_values(g.source, g.beta, g.grid_spec, alpha, [1])
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


def _support_bound(h: FormFactor) -> float:
    """Upper integration limit: J has fallen below _SUPPORT_DROP of its peak.

    Searches the grid 32 scale 2^k: halves from 32 scale while J at the
    half point is still below the drop, then doubles until J is below it.
    A tabulated form factor vanishes past its last grid point.
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


def check_condition_A(spec: BathSpec, alpha: float):
    """Regularity check of the glued (i h / u) at Fourier weight order alpha.

    Returns (verdict, report) with verdict in {"pass", "fail",
    "inconclusive"}.  The norm is recomputed on a ladder of refined grids
    (u_max doubled, step halved per rung); stability within 1% is a pass,
    persistent growth is a fail, anything else within the refinement budget
    is inconclusive.  alpha must be finite and nonnegative; an alpha whose
    weight overflows on a rung's grid raises ScalingError.
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
