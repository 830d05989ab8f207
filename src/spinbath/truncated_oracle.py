"""Finite doubled-Fock models of the dressed Liouvillean.

The glued frequency line is discretized into 2 m_pos modes and each mode
keeps occupations up to n_max.  Every Weyl and polaron operator is the
matrix exponential of a truncated per-mode generator, so identities that
follow from a shared generator (V^2 = 1, unitarity of the dressing,
[V, JVJ] = 0) hold to roundoff, while identities that need the canonical
commutation relations at the truncation edge acquire an error that has to
vanish along n_max refinement.

Every model, at every size, is its per-mode factors: the Weyl factors of
the interaction amplitudes and of the polaron dressing, all from one
batched matrix exponential, and the field factors of V and JVJ.  Every
operator is a short sum of Kronecker products of a 4x4 spin matrix with
per-mode factors, applied to vectors one mode axis at a time, and the
level-shift pairings read the vacuum columns of the same Weyl factors.

A model whose bath dimension is within the dense cap is materialized: it
also holds the free generator L0 as a vector-sized diagonal, so the KMS
vector (scipy's expm_multiply on the apply), the unitary-equivalence and
Weyl checks and the exact level-shift resolvent run on it, and dense
matrices of the operators are built on first access, for tests.  Past the
cap the level-shift matrix is a per-mode factorized time integral, one
quadrature over its eight resolvent pairings, that agrees with the
resolvent up to quadrature tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from .errors import (ConfigurationError, PreconditionError, ScalingError,
                     TruncationError)
from .quadrature import integrate_refining
from .spectral_density import (ANGULAR_FACTOR, BathSpec, GluedFunction, _sign_residuals,
                               coupling_function, power_exp)

_DENSE_BATH_CAP = 1024
_TAU_DECADES = 45.0
_TAU_NODE_CAP = 400000
_TAU_ORDER = 16
_WEYL_UNITARITY_TOL = 1e-6
_EXP_BUDGET = 709.0
_PHASE_BLOCK = 4096
_PHASE_ANCHOR = 4

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


@dataclass(frozen=True)
class TruncationSpec:
    """Discretization and truncation parameters of one finite model.

    Any size is admitted: a model whose bath dimension (n_max+1)^(2 m_pos)
    exceeds the dense cap is not materialized, and offers only the
    level-shift matrix.
    """

    m_pos: int
    u_max: float
    n_max: int
    eta: float

    def __post_init__(self):
        if self.m_pos < 1 or self.n_max < 1:
            raise ConfigurationError("m_pos and n_max must be at least 1")
        if not (0.0 < self.u_max < np.inf and 0.0 < self.eta < np.inf):
            raise ConfigurationError("u_max and eta must be positive and finite")

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
        return float(np.max(_sign_residuals(self.freqs, self.amps, beta)))


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
    mass = 4.0 * ANGULAR_FACTOR * np.abs(vals) ** 2 * width
    r = np.sqrt(mass)
    phase = np.ones(freqs.size, dtype=complex)
    nonzero = np.abs(vals) > 0
    phase[nonzero] = vals[nonzero] / np.abs(vals[nonzero])
    return DiscretizedBath(freqs=freqs, amps=phase * r, bin_edges=edges)


def _annihilator(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _phi(z, a: np.ndarray) -> np.ndarray:
    """Truncated field generators of the amplitudes z (any shape), (..., d, d)."""
    z = np.asarray(z)[..., None, None]
    return (z * a.T + np.conj(z) * a) / np.sqrt(2.0)


def _wmode(z, a: np.ndarray) -> np.ndarray:
    """Weyl factors exp(i phi(z)) of the amplitudes z, one batched expm.

    A scalar z gives one (d, d) factor.  The unitarity monitor raises on
    the worst factor of the batch.
    """
    z = np.asarray(z)
    w = expm(1j * _phi(z, a))
    drift = np.abs(np.swapaxes(w.conj(), -1, -2) @ w
                   - np.eye(a.shape[0])).max(axis=(-2, -1))
    worst = np.argmax(drift)
    if drift.flat[worst] > _WEYL_UNITARITY_TOL:
        raise TruncationError(
            "Weyl-mode exponential lost unitarity (residual %g at amplitude "
            "%g); raise n_max" % (drift.flat[worst], abs(z.flat[worst])))
    return w


def _amplitude_sets(c: np.ndarray) -> np.ndarray:
    """The 8 amplitude vectors of a model's Weyl factors, (8, n_modes).

    Sets 0..3 are c, -c, ct, -ct (ct = conj(c) mirrored), the amplitudes of
    cal_V and cal_JVJ; sets 4..7 are the four spin-sector dressings of U.
    """
    ct = np.conj(c[::-1])
    return np.array([c, -c, ct, -ct] + [0.5 * (s_left * c + s_right * ct)
                                        for s_left, s_right in _SECTOR_SIGNS])


def _on_mode(op: np.ndarray, x: np.ndarray, j: int) -> np.ndarray:
    """op applied to mode j of every vector in x (mode 0 fastest)."""
    d = op.shape[-1]
    return (op @ x.reshape(-1, d, d ** j)).reshape(x.shape)


def _bath_apply(factors: Optional[np.ndarray], summed: bool,
                x: np.ndarray) -> np.ndarray:
    if factors is None:
        return x
    if summed:
        return sum(_on_mode(w, x, j) for j, w in enumerate(factors))
    for j, w in enumerate(factors):
        x = _on_mode(w, x, j)
    return x


def _bath_dense(factors: Optional[np.ndarray], summed: bool,
                bath_dim: int) -> np.ndarray:
    if factors is None:
        return np.eye(bath_dim)
    n, d = len(factors), factors.shape[-1]
    if summed:
        return sum(np.kron(np.eye(d ** (n - 1 - j)), np.kron(w, np.eye(d ** j)))
                   for j, w in enumerate(factors))
    acc = factors[0]
    for w in factors[1:]:
        acc = np.kron(w, acc)
    return acc


def _scaled(terms: list, k: float) -> list:
    return [(k * spin, factors, summed) for spin, factors, summed in terms]


def _bath_diag(freqs: np.ndarray, d: int) -> np.ndarray:
    diag = np.zeros(1)
    for f in freqs:
        diag = ((f * np.arange(d))[:, None] + diag[None, :]).ravel()
    return diag


class _DenseView:
    """Dense matrix of a factored operator, built on first access and kept."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, model, owner=None):
        if model is None:
            return self
        return model._dense(self.name)


class FiniteModel:
    """Kronecker-factored truncated model, one representation at every size.

    The occupation basis is little-endian over modes (mode 0 fastest) with
    the four spin sectors outermost.  Every model stores per-mode
    (n_max+1)^2 factors: weyl[k, j] is the Weyl factor of mode j for the
    amplitude vectors c, -c, ct, -ct (k = 0..3) and for the four
    spin-sector dressings of U (k = 4..7), and field[k, j] is the field
    factor of mode j in V (k = 0) and JVJ (k = 1).  Every operator is a
    short sum of 4x4 spin matrices tensored with a product or a sum of
    per-mode factors, and _apply applies it to vectors one mode axis at a
    time (the shuffle algorithm of Fernandes, Plateau and Stewart 1998),
    so memory grows with dim, not dim^2.

    materialized (bath_dim within the dense cap) models also hold the
    diagonal L0 and the operator table; the vector operations raise
    ConfigurationError on the others, whose L0 is None.  The sector vacua
    are the basis vectors s * bath_dim, s = 0..3; the level-shift columns
    and the KMS vector index the two of Pi0, 0 and 3 * bath_dim, directly.
    The dense matrices cal_V, cal_JVJ, V, JVJ, U, I, L (untransformed
    generator L0 + spin flip + (q0/2)(V - JVJ)) and cal_L (transformed
    generator L0 + delta I) of a materialized model are built from the
    same factors on first access and kept, read-only.  They exist for
    tests; no library path reads them.
    """

    cal_V = _DenseView()
    cal_JVJ = _DenseView()
    V = _DenseView()
    JVJ = _DenseView()
    U = _DenseView()
    I = _DenseView()
    L = _DenseView()
    cal_L = _DenseView()

    def __init__(self, spec: BathSpec, trunc: TruncationSpec, bath: DiscretizedBath):
        self.spec = spec
        self.trunc = trunc
        self.bath = bath
        d = trunc.n_max + 1
        self.bath_dim = d ** bath.n_modes
        self.dim = 4 * self.bath_dim
        a = _annihilator(d)
        self.weyl = _wmode(_amplitude_sets(bath.amps), a)
        if spec.q0 != 0.0:
            hvec = (1j * bath.freqs * bath.amps / spec.q0).real
        else:
            hvec = np.zeros(bath.n_modes)
        self.field = _phi(np.array([hvec, hvec[::-1]]), a)
        self.L0 = None
        self._ops = {}
        self._views = {}
        if not self.materialized:
            return
        spin_diag = np.array([0.0, spec.eps, -spec.eps, 0.0])
        self.L0 = (spin_diag[:, None] + _bath_diag(bath.freqs, d)).ravel()
        self._ops = self._operators()

    @property
    def materialized(self) -> bool:
        """Whether the model holds vector-sized state (bath_dim within the cap)."""
        return self.bath_dim <= _DENSE_BATH_CAP

    def _need(self, what: str):
        if not self.materialized:
            raise ConfigurationError(
                "%s needs a materialized model; bath dimension %d exceeds the "
                "dense cap %d" % (what, self.bath_dim, _DENSE_BATH_CAP))

    def _operators(self) -> dict:
        """name -> (diagonal or None, [(spin 4x4, factors or None, summed)])."""
        W, F = self.weyl, self.field
        spec = self.spec
        cal_V = [(_SP_L, W[0], False), (_SM_L, W[1], False)]
        cal_JVJ = [(_SP_R, W[2], False), (_SM_R, W[3], False)]
        V = [(_SZ_L, F[0], True)]
        JVJ = [(-_SZ_R, F[1], True)]
        I = _scaled(cal_V, -0.5) + _scaled(cal_JVJ, 0.5)
        flip = [(-0.5 * spec.delta * (_SX_L - _SX_R), None, False)]
        return {
            "cal_V": (None, cal_V),
            "cal_JVJ": (None, cal_JVJ),
            "V": (None, V),
            "JVJ": (None, JVJ),
            "U": (None, [(np.diag(e), W[4 + s], False)
                         for s, e in enumerate(np.eye(4))]),
            "I": (None, I),
            "L": (self.L0, flip + _scaled(V, 0.5 * spec.q0)
                  + _scaled(JVJ, -0.5 * spec.q0)),
            "cal_L": (self.L0, _scaled(I, spec.delta)),
        }

    def _apply(self, name: str, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Operator `name` (or its adjoint) applied to every vector x[..., :]."""
        self._need(name)
        diag, terms = self._ops[name]
        xs = x.reshape(-1, 4, self.bath_dim)
        out = np.zeros(xs.shape, dtype=complex)
        for spin, factors, summed in terms:
            if adjoint:
                spin = spin.conj().T
                if factors is not None:
                    factors = np.conj(np.swapaxes(factors, -1, -2))
            cols = np.flatnonzero(np.any(spin != 0, axis=0))
            out += spin[:, cols] @ _bath_apply(factors, summed, xs[:, cols])
        out = out.reshape(x.shape)
        if diag is not None:
            out += diag * x
        return out

    def _dense(self, name: str) -> np.ndarray:
        self._need(name)
        if name not in self._views:
            diag, terms = self._ops[name]
            out = np.zeros((self.dim, self.dim), dtype=complex)
            for spin, factors, summed in terms:
                out += np.kron(spin, _bath_dense(factors, summed, self.bath_dim))
            if diag is not None:
                out[np.diag_indices(self.dim)] += diag
            out.flags.writeable = False
            self._views[name] = out
        return self._views[name]


def build_model(bath: DiscretizedBath, spec: BathSpec,
                trunc: TruncationSpec) -> FiniteModel:
    """The finite model of a discretized bath: its per-mode factors, plus the
    diagonals when it is materialized."""
    return FiniteModel(spec, trunc, bath)


def check_unitary_equivalence(model: FiniteModel) -> float:
    """|| (U L U* - cal_L) B ||_F / || L0 B ||_F on occupation <= 1 columns."""
    model._need("check_unitary_equivalence")
    d = model.trunc.n_max + 1
    n = model.bath.n_modes
    probes = [0] + [d ** j for j in range(n)]
    cols = np.array([s * model.bath_dim + b for s in range(4) for b in probes])
    B = np.zeros((cols.size, model.dim), dtype=complex)
    B[np.arange(cols.size), cols] = 1.0
    Uh_B = model._apply("U", B, adjoint=True)
    R = model._apply("U", model._apply("L", Uh_B)) - model._apply("cal_L", B)
    den = float(np.linalg.norm(model.L0[cols]))
    return float(np.linalg.norm(R) / den)


def _lso_dense(model: FiniteModel) -> np.ndarray:
    e = np.zeros((2, model.dim))
    e[[0, 1], [0, 3 * model.bath_dim]] = 1.0
    v = model._apply("I", e)
    x = v / (model.L0 - 1j * model.trunc.eta)
    return np.array([[np.vdot(v[a], x[b]) for b in range(2)] for a in range(2)])


class _RungPhases:
    """Mode phase sums of the resolvent pairings of one rung.

    Pairing k needs F_k(tau) = prod_j sum_n p_kjn z_j^n, z_j = exp(-i f_j
    tau), where p_kj = conj(W_j(a_kj) Omega) * W_j(b_kj) Omega.  vacua[i, j]
    is the vacuum column W_j Omega of amplitude set i, taken from the
    model's Weyl factors, and set_pairs[k] = (a, b) names the sets of
    pairing k.  Pairings with equal coefficients share one sum: the
    truncated field is off-diagonal in the occupation basis, so W_j(-z)
    Omega = (-1)^N W_j(z) Omega, and the 8 pairings of a rung have 4
    distinct coefficient sets, the rows of _evaluate; row[k] is the row of
    pairing k.

    The phases come from the mode grid of discretize, midpoints
    +-(k + 1/2) step with freqs[2m-1-j] == -freqs[j]; the constructor
    checks that structure.  tau is split into equal blocks of at most
    _PHASE_BLOCK nodes, which keep a block's work in cache.  The values do
    not depend on that blocking when the coefficients are real, as for
    every discretize bath, whose amplitudes are purely imaginary and whose
    vacuum columns are therefore real, and no block has one column.  With
    complex coefficients the products of blocks of different widths round
    differently, by about 1e-17 of max |F|.  On a block,
    w = exp(-i step tau) is the one exponential per step: the next positive
    mode is z w, with a direct exponential of the stored frequency every
    _PHASE_ANCHOR modes, and its mirror is conj(z), which is bitwise the
    exponential of the mirrored frequency.  Each mode's polynomial is one
    small matrix product of its coefficients with the powers 1, z, ...,
    z^n_max, so no all-modes array is formed.  Against an
    extended-precision phase sum on the last default rung the error is
    about 5e-14 of max |F| (4e-14 with a direct exponential per mode,
    1.2e-13 without re-anchoring); the tests bound it by 1e-12.
    """

    def __init__(self, freqs: np.ndarray, vacua: np.ndarray, set_pairs):
        m = freqs.size // 2
        pos = freqs[m:]
        step = 2.0 * pos[0] if m else 0.0
        if not (freqs.size == 2 * m and step > 0.0
                and np.array_equal(freqs[::-1], -freqs)
                and np.abs(pos - (np.arange(m) + 0.5) * step).max()
                <= 4.0 * np.spacing(pos[-1])):
            raise PreconditionError(
                "the phase sums need the symmetric uniform mode grid of "
                "discretize, midpoints +-(k + 1/2) step")
        a, b = np.array(set_pairs).T
        pairs, row = np.unique(np.conj(vacua[a]) * vacua[b], axis=0,
                               return_inverse=True)
        self.pairs = pairs
        self.row = row.reshape(-1)
        self.freqs = freqs
        self._step = step
        # per positive mode k, the coefficients of mode m + k stacked on the
        # conjugated coefficients of its mirror m - 1 - k, so that one
        # product with the powers of z gives both
        self._coef = np.ascontiguousarray(np.concatenate(
            [pairs[:, m:], np.conj(pairs[:, m - 1::-1])], axis=0
        ).transpose(1, 0, 2))

    def _evaluate(self, tau: np.ndarray) -> np.ndarray:
        n_sets = len(self.pairs)
        m, _, d = self._coef.shape
        F = np.ones((n_sets, tau.size), dtype=complex)
        # equal blocks, so that no block but a one-node tau has a single
        # column (numpy takes a matrix-vector product for those, which
        # rounds differently); then real coefficients give the same bits
        # under any blocking, complex ones not
        n_blocks = max(1, -(-tau.size // _PHASE_BLOCK))
        bounds = np.arange(n_blocks + 1) * tau.size // n_blocks
        width = -(-tau.size // n_blocks)
        powers = np.empty((d, width), dtype=complex)
        powers[0] = 1.0
        terms = np.empty((2 * n_sets, width), dtype=complex)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            t = tau[lo:hi]
            zs = powers[:, :hi - lo]
            both = terms[:, :hi - lo]
            w = np.exp((-1j * self._step) * t)
            Fb = F[:, lo:hi]
            for k in range(m):
                if k % _PHASE_ANCHOR:
                    zs[1] *= w
                else:
                    zs[1] = np.exp((-1j * self.freqs[m + k]) * t)
                for p in range(2, d):
                    np.multiply(zs[p - 1], zs[1], out=zs[p])
                np.matmul(self._coef[k], zs, out=both)
                Fb *= both[:n_sets]
                Fb *= np.conj(both[n_sets:], out=both[n_sets:])
        return F


def _rung_pairings(model: FiniteModel) -> list:
    """The 8 resolvent pairings of a rung, in the order l00, l11, l01, l10,
    at the eta of the model's truncation.

    Pairing k is <W(a)Omega, (dGamma - s - i eta)^{-1} W(b)Omega>, the time
    integral i int_0^inf exp(-(eta + i s) tau) F_k(tau) dtau over the phase
    sums F_k of _RungPhases.  One integrate_refining call takes all 8: its
    integrand evaluates the phase sums once per node set and the damping
    exp(-(eta + i s) tau) once per distinct rate, and returns one (re, im)
    group per pairing, so the stop rule holds for each pairing against its
    own size.  The panels come from the largest characteristic frequency
    of the pairings, which agree to rounding (every pairing has the same
    |s| and the same mirrored mode weights).  The node set is refined until
    every pairing meets the rule, so a pairing that alone would have
    stopped a pass earlier takes its value from a finer pass, within its
    own tolerance.
    """
    amps = _amplitude_sets(model.bath.amps)
    eps, eta = model.spec.eps, model.trunc.eta
    # (s, a, b) of the pairings over the sets c, -c, ct, -ct, two per entry
    # of the 2x2 matrix
    pairings = ((-eps, 1, 1), (eps, 3, 3), (eps, 0, 0), (-eps, 2, 2),
                (-eps, 1, 2), (eps, 3, 0), (eps, 0, 3), (-eps, 2, 1))
    phases = _RungPhases(model.bath.freqs, model.weyl[:4, :, :, 0],
                         [(a, b) for _, a, b in pairings])
    freqs = np.abs(model.bath.freqs)
    tau_max = _TAU_DECADES / eta
    w_char = max(abs(s) + eta + 0.5 * float(
        np.sum(freqs * (np.abs(amps[a]) ** 2 + np.abs(amps[b]) ** 2)))
        for s, a, b in pairings)
    n_pan = int(min(max(8, np.ceil(tau_max * w_char / 1.5)),
                    _TAU_NODE_CAP // (2 * _TAU_ORDER)))
    max_refine = max(1, int(np.log2(max(2.0, _TAU_NODE_CAP / (n_pan * _TAU_ORDER)))))
    rates = [eta + 1j * s for s, _, _ in pairings]

    def f(tau, w):
        F = phases._evaluate(tau)
        damping = {rate: np.exp(-rate * tau) for rate in dict.fromkeys(rates)}
        out = np.empty((len(pairings), 2))
        for k, rate in enumerate(rates):
            g = 1j * damping[rate] * F[phases.row[k]]
            out[k] = np.sum(g.real * w), np.sum(g.imag * w)
        return out

    edges = np.linspace(0.0, tau_max, n_pan + 1)
    res = integrate_refining(f, edges, order=_TAU_ORDER, rtol=1e-9,
                             max_refine=max_refine, floor=1e-3,
                             what="resolvent pairings at s=+-%g" % eps)
    return [complex(re, im) for re, im in res.values]


def _lso_virtual(model: FiniteModel) -> np.ndarray:
    r = _rung_pairings(model)
    l00 = 0.25 * (r[0] + r[1])
    l11 = 0.25 * (r[2] + r[3])
    l01 = -0.25 * (r[4] + r[5])
    l10 = -0.25 * (r[6] + r[7])
    return np.array([[l00, l01], [l10, l11]])


def lso_finite(model: FiniteModel, *, force_virtual: bool = False) -> np.ndarray:
    """Level-shift matrix Pi0 I (L0 - i eta)^{-1} I Pi0 of the finite model,
    at the eta of its truncation.

    Returns the 2x2 matrix in the (phi_++ Omega, phi_-- Omega) basis.
    Materialized models invert the diagonal free generator exactly on the
    two columns I Pi0; larger ones (or force_virtual) use the factorized
    time integral over the vacuum columns of the model's Weyl factors.
    """
    if model.materialized and not force_virtual:
        return _lso_dense(model)
    return _lso_virtual(model)


def kms_vector(model: FiniteModel) -> Tuple[np.ndarray, float]:
    """KMS vector of the dressed model and its kernel residual.

    Applies exp(-beta A / 2), A = L0 - (delta/2) cal_V, to the decoupled KMS
    vector (spin Gibbs tensor vacuum) with scipy's expm_multiply (Al-Mohy
    and Higham 2011) on the factored, Hermitian A; returns the normalized
    vector and || cal_L psi ||.
    """
    # scipy.sparse loads here, not at import: no other command needs it
    from scipy.sparse.linalg import LinearOperator, expm_multiply

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
        half_beta = 0.5 * spec.beta

        def matvec(x):
            x = np.ravel(x)
            return -half_beta * (model.L0 * x
                                 - 0.5 * spec.delta * model._apply("cal_V", x))

        op = LinearOperator((model.dim, model.dim), matvec=matvec,
                            rmatvec=matvec, dtype=complex)
        # expm_multiply estimates norms of op with numpy's global random
        # stream; a fixed seed keeps psi reproducible, and the caller's
        # stream is restored untouched
        state = np.random.get_state()
        try:
            np.random.seed(0)
            psi = expm_multiply(op, psi0,
                                traceA=-half_beta * float(np.sum(model.L0)))
        finally:
            np.random.set_state(state)
        psi /= np.linalg.norm(psi)
    residual = float(np.linalg.norm(model._apply("cal_L", psi)))
    return psi, residual


def weyl_sequence_check(model: FiniteModel, s: float, n_seq: int = 4) -> np.ndarray:
    """Residuals of the singular sequence a*(f_n) psi_KMS at spectral point s.

    f_n is the indicator of [s - 1/n, s + 1/n] over the discrete modes; a
    window containing no mode is a PreconditionError.
    """
    model._need("weyl_sequence_check")
    psi, _ = kms_vector(model)
    adag = _annihilator(model.trunc.n_max + 1).T
    out = []
    for n in range(1, n_seq + 1):
        sel = np.abs(model.bath.freqs - s) <= 1.0 / n
        if not sel.any():
            raise PreconditionError(
                "window [%g, %g] contains no discretized mode"
                % (s - 1.0 / n, s + 1.0 / n))
        phi_n = sum(_on_mode(adag, psi, j) for j in np.nonzero(sel)[0])
        nrm = np.linalg.norm(phi_n)
        out.append(np.linalg.norm(model._apply("cal_L", phi_n) - s * phi_n) / nrm)
    return np.asarray(out)


_ORACLE_SCHEDULE = ((8, 0.2), (16, 0.1), (32, 0.05))
_ENTRY_KEYS = ("x_plus", "x_minus", "z")
_HOLDER_FLOOR = 1.0 / 3.0


def _matrix_entries(lam: np.ndarray) -> Dict[str, complex]:
    return {"x_plus": complex(lam[0, 0]), "x_minus": complex(lam[1, 1]),
            "z": complex(0.5 * (lam[0, 1] + lam[1, 0]))}


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Level-shift matrices along the schedule with Richardson closure.

    u_max is the half-width of the frequency span every rung discretized.
    """

    schedule: tuple
    u_max: float
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
        trunc = TruncationSpec(m, span, n_max, eta)
        bath = discretize(f_beta, trunc)
        rungs.append(lso_finite(build_model(bath, spec, trunc)))
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
    return OracleReport(schedule=sched, u_max=span, rungs=tuple(rungs),
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
