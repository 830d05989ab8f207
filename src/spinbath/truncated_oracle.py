"""Finite doubled-Fock models of the dressed Liouvillean.

The glued frequency line is discretized into 2 m_pos modes and each mode
keeps occupations up to n_max.  Every Weyl and polaron operator is the
matrix exponential of a truncated per-mode generator, so identities that
follow from a shared generator (V^2 = 1, unitarity of the dressing,
[V, JVJ] = 0) hold to roundoff, while identities that need the canonical
commutation relations at the truncation edge acquire an error that has to
vanish along n_max refinement.

Models whose Hilbert dimension exceeds the dense cap stay virtual: only
the level-shift matrix is available for them, through a per-mode
factorized time integral that agrees with the dense resolvent path up to
quadrature tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh, expm

from .errors import (AccuracyError, ConfigurationError, PreconditionError,
                     ScalingError, TruncationError)
from .quadrature import integrate_refining
from .spectral_density import BathSpec, GluedFunction, coupling_function, power_exp

_DENSE_BATH_CAP = 1024
_TAU_DECADES = 45.0
_TAU_NODE_CAP = 400000
_TAU_ORDER = 16
_WEYL_UNITARITY_TOL = 1e-6
_EXP_BUDGET = 709.0

_SP = np.array([[0.0, 1.0], [0.0, 0.0]])
_SM = _SP.T.copy()
_SZ = np.diag([1.0, -1.0])
_I2 = np.eye(2)
_SP_L = np.kron(_SP, _I2)
_SM_L = np.kron(_SM, _I2)
_SP_R = np.kron(_I2, _SP)
_SM_R = np.kron(_I2, _SM)
_SZ_L = np.kron(_SZ, _I2)
_SZ_R = np.kron(_I2, _SZ)
_SX_L = _SP_L + _SM_L
_SX_R = _SP_R + _SM_R
# spin sector s = 0..3 is (left, right) = (up,up), (up,down), (down,up), (down,down)
_SECTOR_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _dim_log(m_pos: int, n_max: int) -> float:
    return np.log(4.0) + 2.0 * m_pos * np.log(n_max + 1.0)


@dataclass(frozen=True)
class TruncationSpec:
    """Discretization and truncation parameters of one finite model.

    budget caps the total Hilbert dimension 4 (n_max+1)^(2 m_pos); pass
    inf to allow models that only the virtual level-shift path can touch.
    """

    m_pos: int
    u_max: float
    n_max: int
    eta: float
    budget: float = 2e5

    def __post_init__(self):
        if self.m_pos < 1 or self.n_max < 1:
            raise ConfigurationError("m_pos and n_max must be at least 1")
        if not (self.u_max > 0.0 and self.eta > 0.0):
            raise ConfigurationError("u_max and eta must be positive")
        if not self.budget >= 4.0:
            raise ConfigurationError("budget must be at least 4")
        if _dim_log(self.m_pos, self.n_max) > np.log(self.budget):
            log_room = np.log(self.budget / 4.0)
            m_fit = int(log_room / (2.0 * np.log(self.n_max + 1.0)))
            n_fit = int(np.exp(log_room / (2.0 * self.m_pos))) - 1
            raise ConfigurationError(
                "dimension 4*(n_max+1)^(2*m_pos) exceeds budget %g; within it "
                "m_pos <= %d at this n_max, or n_max <= %d at this m_pos"
                % (self.budget, max(m_fit, 0), max(n_fit, 0)))

    @property
    def bath_dim(self) -> int:
        return (self.n_max + 1) ** (2 * self.m_pos)


@dataclass(frozen=True, eq=False)
class DiscretizedBath:
    """Mode frequencies (ascending) and Weyl amplitudes, mirror(j) = 2m-1-j.

    amps are the arguments of the interaction Weyl operator W(c); their
    squared moduli carry the full 4 pi angular weight, so sum |c_j|^2
    approximates ||2 f_beta||^2 in the glued-space norm.
    """

    freqs: np.ndarray
    amps: np.ndarray
    bin_edges: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.freqs.size

    def balance_residual(self, beta: float) -> float:
        """max |conj(c at -u) + exp(-beta u/2) c at u| over positive modes."""
        mirrored = self.amps[::-1]
        pos = self.freqs > 0
        res = np.abs(np.conj(mirrored[pos])
                     + np.exp(-0.5 * beta * self.freqs[pos]) * self.amps[pos])
        return float(np.max(res)) if res.size else 0.0


def _interp_complex(x: np.ndarray, grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.interp(x, grid, values.real) + 1j * np.interp(x, grid, values.imag)


def discretize(f_beta: GluedFunction, trunc: TruncationSpec) -> DiscretizedBath:
    """Equal-width bins on each half-axis, midpoint-rule mode amplitudes.

    Mode frequency is the bin midpoint; |c_j|^2 is the midpoint-rule value
    of the angular-weighted bin integral of |2 f_beta|^2, and the phase of
    c_j is the phase of f_beta at the midpoint.  The negative half-axis is
    sampled the same way, so the glueing sign relation
    conj(c at -u) = -exp(-beta u/2) (c at u) is inherited from the samples
    up to interpolation error rather than imposed.
    """
    m = trunc.m_pos
    if f_beta.grid[0] > -trunc.u_max or f_beta.grid[-1] < trunc.u_max:
        raise PreconditionError(
            "glued samples cover [%g, %g] but discretization needs [-%g, %g]"
            % (f_beta.grid[0], f_beta.grid[-1], trunc.u_max, trunc.u_max))
    edges = np.linspace(0.0, trunc.u_max, m + 1)
    width = edges[1] - edges[0]
    mids_pos = 0.5 * (edges[:-1] + edges[1:])
    freqs = np.concatenate([-mids_pos[::-1], mids_pos])
    vals = _interp_complex(freqs, f_beta.grid, f_beta.values)
    mass = 4.0 * f_beta.angular_factor * np.abs(vals) ** 2 * width
    r = np.sqrt(mass)
    phase = np.ones(freqs.size, dtype=complex)
    nonzero = np.abs(vals) > 0
    phase[nonzero] = vals[nonzero] / np.abs(vals[nonzero])
    return DiscretizedBath(freqs=freqs, amps=phase * r, bin_edges=edges)


def _annihilator(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _phi(z: complex, a: np.ndarray) -> np.ndarray:
    return (z * a.T + np.conj(z) * a) / np.sqrt(2.0)


def _wmode(z: complex, a: np.ndarray) -> np.ndarray:
    w = expm(1j * _phi(z, a))
    drift = np.abs(w.conj().T @ w - np.eye(a.shape[0])).max()
    if drift > _WEYL_UNITARITY_TOL:
        raise TruncationError(
            "Weyl-mode exponential lost unitarity (residual %g at amplitude "
            "%g); raise n_max" % (drift, abs(z)))
    return w


def _weyl(amps: np.ndarray, a: np.ndarray) -> np.ndarray:
    acc = _wmode(amps[0], a)
    for z in amps[1:]:
        acc = np.kron(_wmode(z, a), acc)
    return acc


def _field_sum(hvec: np.ndarray, a: np.ndarray, d: int) -> np.ndarray:
    n = hvec.size
    out = np.zeros((d ** n, d ** n), dtype=complex)
    for j in range(n):
        op = _phi(hvec[j], a)
        out += np.kron(np.eye(d ** (n - 1 - j)), np.kron(op, np.eye(d ** j)))
    return out


def _bath_diag(freqs: np.ndarray, d: int) -> np.ndarray:
    diag = np.zeros(1)
    for f in freqs:
        diag = ((f * np.arange(d))[:, None] + diag[None, :]).ravel()
    return diag


class FiniteModel:
    """Dense truncated model, or a virtual handle past the size cap.

    L0, P_Omega, and Pi0 are stored as diagonals; the occupation basis is
    little-endian over modes (mode 0 fastest) with the four spin sectors
    outermost.  I, L, and cal_L are assembled on access so the resident
    set stays at five dense matrices.  Virtual models keep only the
    discretization; their operator attributes raise, and lso_finite is
    the one supported computation.
    """

    def __init__(self, spec: BathSpec, trunc: TruncationSpec, bath: DiscretizedBath,
                 materialized: bool, **arrays):
        self.spec = spec
        self.trunc = trunc
        self.bath = bath
        self.materialized = materialized
        self.bath_dim = (trunc.n_max + 1) ** bath.n_modes
        self.dim = 4 * self.bath_dim
        self.L0 = arrays.get("L0")
        self.cal_V = arrays.get("cal_V")
        self.cal_JVJ = arrays.get("cal_JVJ")
        self.V = arrays.get("V")
        self.JVJ = arrays.get("JVJ")
        self.U = arrays.get("U")
        self.P_Omega = arrays.get("P_Omega")
        self.Pi0 = arrays.get("Pi0")

    def _need(self, what: str):
        if not self.materialized:
            raise ConfigurationError(
                "%s needs a materialized model; bath dimension %d exceeds the "
                "dense cap %d" % (what, self.bath_dim, _DENSE_BATH_CAP))

    @property
    def I(self) -> np.ndarray:
        self._need("I")
        return -0.5 * (self.cal_V - self.cal_JVJ)

    @property
    def L(self) -> np.ndarray:
        """Untransformed generator: L0 + spin flip + (q0/2)(V - JVJ)."""
        self._need("L")
        spec = self.spec
        out = np.diag(self.L0.astype(complex))
        out += np.kron(-0.5 * spec.delta * (_SX_L - _SX_R),
                       np.eye(self.bath_dim))
        out += 0.5 * spec.q0 * (self.V - self.JVJ)
        return out

    @property
    def cal_L(self) -> np.ndarray:
        """Transformed generator: diag(L0) + delta * I."""
        self._need("cal_L")
        out = self.spec.delta * self.I
        out[np.diag_indices(self.dim)] += self.L0
        return out


def build_model(bath: DiscretizedBath, spec: BathSpec,
                trunc: TruncationSpec) -> FiniteModel:
    """Assemble the truncated operators, or a virtual handle past the cap."""
    d = trunc.n_max + 1
    if d ** bath.n_modes > _DENSE_BATH_CAP:
        return FiniteModel(spec, trunc, bath, materialized=False)
    a = _annihilator(d)
    c = bath.amps
    ct = np.conj(c[::-1])
    bd = d ** bath.n_modes

    cal_V = np.kron(_SP_L, _weyl(c, a)) + np.kron(_SM_L, _weyl(-c, a))
    cal_JVJ = np.kron(_SP_R, _weyl(ct, a)) + np.kron(_SM_R, _weyl(-ct, a))

    if spec.q0 != 0.0:
        hvec = (1j * bath.freqs * c / spec.q0).real
    else:
        hvec = np.zeros(bath.n_modes)
    V = np.kron(_SZ_L, _field_sum(hvec, a, d))
    JVJ = -np.kron(_SZ_R, _field_sum(hvec[::-1], a, d))

    U = np.zeros((4 * bd, 4 * bd), dtype=complex)
    for s, (s_left, s_right) in enumerate(_SECTOR_SIGNS):
        block = _weyl(0.5 * (s_left * c + s_right * ct), a)
        U[s * bd:(s + 1) * bd, s * bd:(s + 1) * bd] = block

    bath_diag = _bath_diag(bath.freqs, d)
    spin_diag = np.array([0.0, spec.eps, -spec.eps, 0.0])
    L0 = np.concatenate([sd + bath_diag for sd in spin_diag])

    P_Omega = np.zeros(4 * bd)
    P_Omega[np.arange(4) * bd] = 1.0
    Pi0 = np.zeros(4 * bd)
    Pi0[[0, 3 * bd]] = 1.0
    return FiniteModel(spec, trunc, bath, materialized=True,
                       L0=L0, cal_V=cal_V, cal_JVJ=cal_JVJ, V=V, JVJ=JVJ,
                       U=U, P_Omega=P_Omega, Pi0=Pi0)


def check_unitary_equivalence(model: FiniteModel) -> float:
    """|| (U L U* - cal_L) B ||_F / || L0 B ||_F on occupation <= 1 columns."""
    model._need("check_unitary_equivalence")
    d = model.trunc.n_max + 1
    n = model.bath.n_modes
    probes = [0] + [d ** j for j in range(n)]
    cols = np.array([s * model.bath_dim + b for s in range(4) for b in probes])
    Uh_cols = model.U.conj().T[:, cols]
    R = model.U @ (model.L @ Uh_cols) - model.cal_L[:, cols]
    den = float(np.linalg.norm(model.L0[cols]))
    return float(np.linalg.norm(R) / den)


def _lso_dense(model: FiniteModel, eta: float) -> np.ndarray:
    I = model.I
    v = [I[:, 0], I[:, 3 * model.bath_dim]]
    den = model.L0 - 1j * eta
    x = [vi / den for vi in v]
    return np.array([[np.vdot(v[a], x[b]) for b in range(2)] for a in range(2)])


def _resolvent_pairing(s: float, avec: np.ndarray, bvec: np.ndarray,
                       bath: DiscretizedBath, n_max: int, eta: float) -> complex:
    """<W(a)Omega, (dGamma - s - i eta)^{-1} W(b)Omega> by time integration."""
    d = n_max + 1
    a_op = _annihilator(d)
    occ = np.arange(d)
    pair = [np.conj(_wmode(avec[j], a_op)[:, 0]) * _wmode(bvec[j], a_op)[:, 0]
            for j in range(bath.n_modes)]
    tau_max = _TAU_DECADES / eta
    w_char = abs(s) + eta + 0.5 * float(
        np.sum(np.abs(bath.freqs) * (np.abs(avec) ** 2 + np.abs(bvec) ** 2)))
    n_pan = int(min(max(8, np.ceil(tau_max * w_char / 1.5)),
                    _TAU_NODE_CAP // (2 * _TAU_ORDER)))
    max_refine = max(1, int(np.log2(max(2.0, _TAU_NODE_CAP / (n_pan * _TAU_ORDER)))))

    def f(tau):
        F = np.ones(tau.shape, dtype=complex)
        for j in range(bath.n_modes):
            F *= pair[j] @ np.exp(-1j * bath.freqs[j] * np.outer(occ, tau))
        g = 1j * np.exp(-(eta + 1j * s) * tau) * F
        return np.vstack([g.real, g.imag])

    edges = np.linspace(0.0, tau_max, n_pan + 1)
    res = integrate_refining(f, edges, order=_TAU_ORDER, rtol=1e-9,
                             max_refine=max_refine, floor=1e-3)
    value = complex(res.values[0], res.values[1])
    if not res.converged:
        raise AccuracyError("resolvent pairing at s=%g did not converge after "
                            "%d doublings" % (s, res.passes), partial=value,
                            err=float(np.max(res.errors)))
    return value


def _lso_virtual(model: FiniteModel, eta: float) -> np.ndarray:
    c = model.bath.amps
    ct = np.conj(c[::-1])
    eps = model.spec.eps
    n_max = model.trunc.n_max

    def R(s, avec, bvec):
        return _resolvent_pairing(s, avec, bvec, model.bath, n_max, eta)

    l00 = 0.25 * (R(-eps, -c, -c) + R(eps, -ct, -ct))
    l11 = 0.25 * (R(eps, c, c) + R(-eps, ct, ct))
    l01 = -0.25 * (R(-eps, -c, ct) + R(eps, -ct, c))
    l10 = -0.25 * (R(eps, c, -ct) + R(-eps, ct, -c))
    return np.array([[l00, l01], [l10, l11]])


def lso_finite(model: FiniteModel, eta: Optional[float] = None, *,
               force_virtual: bool = False) -> np.ndarray:
    """Level-shift matrix Pi0 I (L0 - i eta)^{-1} I Pi0 of the finite model.

    Returns the 2x2 matrix in the (phi_++ Omega, phi_-- Omega) basis.
    Materialized models invert the diagonal free generator exactly;
    virtual (or force_virtual) ones use the factorized time integral.
    """
    if eta is None:
        eta = model.trunc.eta
    if not eta > 0.0:
        raise ConfigurationError("eta must be positive, got %r" % (eta,))
    if model.materialized and not force_virtual:
        return _lso_dense(model, eta)
    return _lso_virtual(model, eta)


def kms_vector(model: FiniteModel) -> Tuple[np.ndarray, float]:
    """KMS vector of the dressed model and its kernel residual.

    Applies exp(-beta (L0 - (delta/2) cal_V) / 2) to the decoupled KMS
    vector (spin Gibbs tensor vacuum) through an eigendecomposition with
    the spectrum shifted so the largest amplitude is 1; returns the
    normalized vector and || cal_L psi ||.
    """
    model._need("kms_vector")
    spec = model.spec
    g = 0.25 * spec.beta * spec.eps
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = np.exp(-g - abs(g))
    psi0[3 * model.bath_dim] = np.exp(g - abs(g))
    psi0 /= np.linalg.norm(psi0)
    if spec.delta == 0.0:
        psi = psi0
    else:
        reach = spec.beta * (float(np.abs(model.L0).max()) + abs(spec.delta))
        if reach > _EXP_BUDGET:
            raise ScalingError(
                "beta (||L0|| + |delta|) = %g exceeds the exponential budget "
                "%g; use a smaller beta" % (reach, _EXP_BUDGET))
        A = np.diag(model.L0).astype(complex) - 0.5 * spec.delta * model.cal_V
        w, Q = eigh(A)
        amp = np.exp(-0.5 * spec.beta * (w - w.min()))
        psi = Q @ (amp * (Q.conj().T @ psi0))
        psi /= np.linalg.norm(psi)
    residual = float(np.linalg.norm(model.cal_L @ psi))
    return psi, residual


def weyl_sequence_check(model: FiniteModel, s: float, n_seq: int = 4) -> np.ndarray:
    """Residuals of the singular sequence a*(f_n) psi_KMS at spectral point s.

    f_n is the indicator of [s - 1/n, s + 1/n] over the discrete modes; a
    window containing no mode is a PreconditionError.
    """
    model._need("weyl_sequence_check")
    psi, _ = kms_vector(model)
    cal_L = model.cal_L
    d = model.trunc.n_max + 1
    a_op = _annihilator(d)
    out = []
    for n in range(1, n_seq + 1):
        sel = np.abs(model.bath.freqs - s) <= 1.0 / n
        if not sel.any():
            raise PreconditionError(
                "window [%g, %g] contains no discretized mode"
                % (s - 1.0 / n, s + 1.0 / n))
        adag = np.zeros((model.bath_dim, model.bath_dim), dtype=complex)
        for j in np.nonzero(sel)[0]:
            adag += np.kron(np.eye(d ** (model.bath.n_modes - 1 - j)),
                            np.kron(a_op.T, np.eye(d ** j)))
        phi_n = np.kron(np.eye(4), adag) @ psi
        nrm = np.linalg.norm(phi_n)
        out.append(np.linalg.norm(cal_L @ phi_n - s * phi_n) / nrm)
    return np.asarray(out)


_ORACLE_SCHEDULE = ((8, 0.2), (16, 0.1), (32, 0.05))
_ENTRY_KEYS = ("x_plus", "x_minus", "z")
_HOLDER_FLOOR = 1.0 / 3.0


def _matrix_entries(lam: np.ndarray) -> Dict[str, complex]:
    return {"x_plus": complex(lam[0, 0]), "x_minus": complex(lam[1, 1]),
            "z": complex(0.5 * (lam[0, 1] + lam[1, 0]))}


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Level-shift matrices along the schedule with Richardson closure."""

    schedule: tuple
    rungs: tuple
    extrapolated: Dict[str, complex]
    observed_order: Dict[str, float]
    monotone: Dict[str, bool]

    def entries(self, rung: int) -> Dict[str, complex]:
        return _matrix_entries(self.rungs[rung])


def run_oracle_schedule(spec: Optional[BathSpec] = None,
                        schedule: Optional[Sequence[Tuple[int, float]]] = None,
                        *, n_max: int = 3,
                        u_max: Optional[float] = None) -> OracleReport:
    """lso_finite along an (m_pos, eta) ladder with eta-Richardson closure.

    The extrapolation uses the observed order log2 |D1| / |D2| of the last
    three rungs; measured orders below the guaranteed Hoelder floor 1/3
    (or absurd ones) fall back to 1/3 rather than amplify the last
    difference.  The raw observed order is reported alongside.  Monotone
    flags record |D1| > |D2| per entry.
    """
    spec = spec if spec is not None else standard_oracle_bath()
    sched = tuple(schedule if schedule is not None else _ORACLE_SCHEDULE)
    if len(sched) < 3:
        raise ConfigurationError("the schedule needs at least three rungs")
    span = u_max if u_max is not None else 12.0 / spec.beta
    f_beta = coupling_function(spec)
    rungs = []
    for m, eta in sched:
        trunc = TruncationSpec(m, span, n_max, eta, budget=np.inf)
        bath = discretize(f_beta, trunc)
        rungs.append(lso_finite(build_model(bath, spec, trunc), eta))
    entries = [_matrix_entries(lam) for lam in rungs]
    extrapolated, orders, monotone = {}, {}, {}
    for key in _ENTRY_KEYS:
        v1, v2, v3 = (e[key] for e in entries[-3:])
        d1, d2 = v2 - v1, v3 - v2
        monotone[key] = bool(abs(d1) > abs(d2))
        if d2 == 0:
            orders[key] = np.inf
            extrapolated[key] = v3
            continue
        q_hat = float(np.log2(abs(d1) / abs(d2))) if d1 != 0 else np.inf
        q_used = q_hat if _HOLDER_FLOOR <= q_hat <= 20.0 else _HOLDER_FLOOR
        orders[key] = q_hat
        extrapolated[key] = v3 + d2 / (2.0 ** q_used - 1.0)
    return OracleReport(schedule=sched, rungs=tuple(rungs),
                        extrapolated=extrapolated, observed_order=orders,
                        monotone=monotone)


def standard_test_bath() -> Tuple[BathSpec, TruncationSpec]:
    """Small dense bath that exercises every algebraic identity quickly."""
    spec = BathSpec(beta=1.5, eps=0.4, delta=0.2, q0=0.55,
                    h=power_exp(1.0, "exponential"))
    return spec, TruncationSpec(m_pos=2, u_max=3.0, n_max=3, eta=0.1)


def standard_oracle_bath() -> BathSpec:
    """Smooth gaussian bath with the damping exponent pinned at 4.

    q0 is frozen so that (q0^2/pi) * c2_saturation = 4, giving a saturated
    envelope floor near 0.018 that keeps the continuum tail handling
    honest, while all bath kernels decay within a few time units so the
    eta ladder of the documented schedule is already in its asymptotic
    regime.
    """
    return BathSpec(beta=4.0, eps=0.25, delta=0.1, q0=1.2568508382517989,
                    h=power_exp(0.5, "gaussian", scale=1.0))
