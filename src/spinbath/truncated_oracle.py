"""Finite doubled-Fock models of the dressed Liouvillean.

The glued frequency line is discretized into 2 m_pos modes and each mode
keeps occupations up to n_max.  Every Weyl and polaron operator is the
exponential of a truncated per-mode generator, so identities that follow
from a shared generator (V^2 = 1, unitarity of the dressing, [V, JVJ] = 0)
hold to roundoff, while identities that need the canonical commutation
relations at the truncation edge acquire an error that has to vanish along
n_max refinement.  The exponentials come from one eigendecomposition of
the truncated field operator (a + a^T)/sqrt 2 per n_max, whose
eigenvalues are the Gauss-Hermite nodes: each factor is a phase-rotated
spectral sum, real for an imaginary amplitude and the identity at 0.

Every model, at every size, is its per-mode factors: the Weyl factors of
the interaction amplitudes and of the polaron dressing, all from that one
eigendecomposition, and the field factors of V and JVJ.  Every
operator is a short sum of Kronecker products of a 4x4 spin matrix with
per-mode factors, and the level-shift pairings read the vacuum columns of
the same Weyl factors.  A materialized model also holds each factor stack
as two blocks, the Kronecker product (or sum) over the low half of the
modes and over the high half, so that a term is applied to vectors as two
matrix products, not one small product per mode.  Its one operator table
is built over those blocks and has no adjoint mode: every operator but
the dressing U is Hermitian, and U* is U with its sector dressings
mirrored, W(-z) = W(z)*.

A model whose bath dimension is within the dense cap is materialized: it
also holds the free generator L0 as a vector-sized diagonal, so the KMS
vector (a Chebyshev series on the apply, over the spectral interval that
L0 and ||cal_V|| = 1 bound), the unitary-equivalence and Weyl checks and
the exact level-shift resolvent run on it; no path builds a dim x dim
matrix.  Past the cap the level-shift matrix comes from its eight
resolvent pairings, each an exact sum over the Laurent coefficients of a
per-mode phase product, with no quadrature: it agrees with the dense
resolvent to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigurationError, DomainError, PreconditionError,
                     ScalingError, TruncationError)
# not called (the pairings are exact sums); bound so that tracers count its 0 nodes
from .quadrature import integrate_refining  # noqa: F401
from .relaxation import _gibbs_vector
from .spectral_density import (ANGULAR_FACTOR, BathSpec, GluedFunction, _sign_residuals,
                               coupling_function, power_exp)

_DENSE_BATH_CAP = 1024
_WEYL_PHASE_TOL = 1e-6
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
    return DiscretizedBath(freqs=freqs, amps=phase * r)


def _annihilator(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _phi(z, a: np.ndarray) -> np.ndarray:
    """Truncated field generators of the amplitudes z (any shape), (..., d, d)."""
    z = np.asarray(z)[..., None, None]
    return (z * a.T + np.conj(z) * a) / np.sqrt(2.0)


def _wmode(z, a: np.ndarray) -> np.ndarray:
    """Weyl factors exp(i phi(z)) of the amplitudes z, from one eigh.

    With u = z / |z| and D = diag(u^k), phi(z) = D phi(|z|) D*, and
    phi(|z|) = |z| X with X = phi(1) = Q diag(lam) Q^T, whose eigenvalues
    are the Gauss-Hermite nodes (Golub and Welsch, Math. Comp. 23, 1969).
    So exp(i phi(z)) = D Q diag(exp(i |z| lam)) Q^T D*.  X flips the parity
    of the occupation number, so its eigenvalues pair as +-lam with
    eigenvectors v and P v, P = diag((-1)^k): the real part
    I + Q diag(cos(|z| lam) - 1) Q^T lives on the entries (j, k) of even
    j + k, the imaginary part Q diag(sin(|z| lam)) Q^T on the odd ones,
    and each is twice its sum over the positive lam.  Written as
    cos - 1 = -2 sin^2(/2), W(0) is the identity bitwise; D of an
    imaginary amplitude holds powers of +-i, so its factor is real bitwise.

    A scalar z gives one (d, d) factor.  The factor's error is about
    eps |z| max lam, the rounding of its largest phase (measured against
    extended precision for d = 2..8); a batch whose largest amplitude puts
    that bound above _WEYL_PHASE_TOL raises TruncationError.
    """
    z = np.asarray(z)
    d = a.shape[0]
    lam, q = np.linalg.eigh(_phi(1.0, a))
    # the d // 2 positive eigenvalues; the zero one of an odd d adds nothing
    lam, q = lam[d - d // 2:], q[:, d - d // 2:]
    r = np.abs(z)
    bound = float(r.max()) * lam[-1] * np.finfo(float).eps
    if bound > _WEYL_PHASE_TOL:
        raise TruncationError(
            "Weyl-mode phases lost accuracy: amplitude %g at n_max %d has the "
            "phase |z| max lambda = %g, rounded by about %g (above %g)"
            % (r.max(), d - 1, r.max() * lam[-1], bound, _WEYL_PHASE_TOL))
    k = np.arange(d)
    even = ((k[:, None] + k) % 2 == 0)[..., None]
    outer = 2.0 * q[:, None, :] * q[None, :, :]
    even_part, odd_part = np.where(even, outer, 0.0), np.where(even, 0.0, outer)
    phase = r[..., None] * lam
    half = np.sin(0.5 * phase)
    cos_m1 = -2.0 * half * half
    sin = np.sin(phase)
    re = np.zeros(z.shape + (d, d))
    im = np.zeros(z.shape + (d, d))
    for m in range(lam.size):
        re += cos_m1[..., m, None, None] * even_part[..., m]
        im += sin[..., m, None, None] * odd_part[..., m]
    re += np.eye(d)
    # u = z / |z| from z scaled to max(|Re z|, |Im z|) = 1, so that |u| = 1
    # to rounding for a subnormal z too; u = 1 at z = 0
    scale = np.maximum(np.abs(z.real), np.abs(z.imag))
    zs = np.ones(z.shape, dtype=complex)
    np.divide(z.real, scale, out=zs.real, where=scale > 0.0)
    np.divide(z.imag, scale, out=zs.imag, where=scale > 0.0)
    u = zs / np.abs(zs)
    powers = np.empty(z.shape + (d,), dtype=complex)
    powers[..., 0] = 1.0
    for j in range(1, d):
        powers[..., j] = powers[..., j - 1] * u
    return (re + 1j * im) * powers[..., :, None] * np.conj(powers[..., None, :])


def _amplitude_sets(c: np.ndarray) -> np.ndarray:
    """The 8 amplitude vectors of a model's Weyl factors, (8, n_modes).

    Sets 0..3 are c, -c, ct, -ct (ct = conj(c) mirrored), the amplitudes of
    cal_V and cal_JVJ; sets 4..7 are the four spin-sector dressings of U.
    """
    ct = np.conj(c[::-1])
    return np.array([c, -c, ct, -ct] + [0.5 * (s_left * c + s_right * ct)
                                        for s_left, s_right in _SECTOR_SIGNS])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron over the last two axes of stacks of square matrices."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = out.shape[-1] * out.shape[-2]
    return out.reshape(out.shape[:-4] + (n, n))


def _block(factors: np.ndarray, summed: bool) -> np.ndarray:
    """The Kronecker product (or Kronecker sum) of a run of mode factors
    (..., modes, d, d), first mode fastest: F_k-1 x ... x F_0, or
    sum_j I x F_j x I."""
    d = factors.shape[-1]
    acc = factors[..., 0, :, :]
    for j in range(1, factors.shape[-3]):
        w = factors[..., j, :, :]
        if summed:
            acc = _kron(np.eye(d), acc) + _kron(w, np.eye(d ** j))
        else:
            acc = _kron(w, acc)
    return acc


def _blocks(factors: np.ndarray, summed: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(low, high) blocks of stacks of n mode factors (..., n, d, d): modes
    0..k-1 and k..n-1, k = n // 2."""
    k = factors.shape[-3] // 2
    return (_block(factors[..., :k, :, :], summed),
            _block(factors[..., k:, :, :], summed))


def _blocked(blocks: Tuple[np.ndarray, np.ndarray], summed: bool,
             y: np.ndarray) -> np.ndarray:
    """The blocks applied to the last axis of y, viewed as (D_hi, D_lo):
    one GEMM for the low block, one batch of GEMMs for the high block."""
    lo, hi = blocks
    v = y.reshape(-1, hi.shape[0], lo.shape[0])
    z = (v.reshape(-1, lo.shape[0]) @ lo.T).reshape(v.shape)
    return (z + hi @ v if summed else hi @ z).reshape(y.shape)


def _term(spin: np.ndarray, blocks: Optional[Tuple[np.ndarray, np.ndarray]],
          summed: bool) -> tuple:
    """An operator term as _apply reads it: its nonzero spin columns, their
    indices, its bath blocks and `summed`."""
    cols = spin.any(axis=0).nonzero()[0]
    return spin[:, cols], cols, blocks, summed


def _scaled(terms: list, k: float) -> list:
    return [(k * spin, factors, summed) for spin, factors, summed in terms]


def _bath_diag(freqs: np.ndarray, d: int) -> np.ndarray:
    diag = np.zeros(1)
    for f in freqs:
        diag = ((f * np.arange(d))[:, None] + diag[None, :]).ravel()
    return diag


class FiniteModel:
    """Kronecker-factored truncated model, one representation at every size.

    The occupation basis is little-endian over modes (mode 0 fastest) with
    the four spin sectors outermost.  Every model stores per-mode
    (n_max+1)^2 factors: weyl[k, j] is the Weyl factor of mode j for the
    amplitude vectors c, -c, ct, -ct (k = 0..3) and for the four
    spin-sector dressings of U (k = 4..7), and field[k, j] is the field
    factor of mode j in V (k = 0) and JVJ (k = 1).  Every operator is a
    short sum of 4x4 spin matrices tensored with a product or a sum of
    per-mode factors.

    materialized (bath_dim within the dense cap) models also hold the
    diagonal L0 and the operator table over the blocks of the factor
    stacks; the vector operations raise ConfigurationError on the others,
    whose L0 is None.  With k = n_modes / 2, each factor stack has a low
    block over modes 0..k-1 and a high block over modes k..n-1, each
    d^k x d^k (32 x 32 at the cap, bath_dim 1024): the Kronecker product
    of the stack's factors within the block for a product term,
    sum_j I x F_j x I for a summed one.  _apply views
    the vectors of a spin sector as (D_hi, D_lo) matrices Y and applies a
    product term as hi Y lo^T and a summed one as Y lo^T + hi Y, the
    blocking of the shuffle algorithm (Fernandes, Plateau and Stewart,
    J. ACM 45, 1998).  The blocks take 2 bath_dim entries per factor
    stack, so memory grows with dim, not dim^2.  The sector vacua
    are the basis vectors s * bath_dim, s = 0..3; the level-shift columns
    and the KMS vector index the two of Pi0, 0 and 3 * bath_dim, directly.
    The operators cal_V, cal_JVJ, V, JVJ, U, U*, I, L (untransformed
    generator L0 + spin flip + (q0/2)(V - JVJ)) and cal_L (transformed
    generator L0 + delta I) are read only through _apply, on vectors.  All
    but U and U* are Hermitian; U* takes sector s's factors from set
    7 - s, whose dressing is -d_s, so it reuses U's blocks.
    """

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
        self._terms = {}
        if not self.materialized:
            return
        spin_diag = np.array([0.0, spec.eps, -spec.eps, 0.0])
        self.L0 = (spin_diag[:, None] + _bath_diag(bath.freqs, d)).ravel()
        # the operator table over the (low, high) blocks of each factor stack
        table = self._operators(list(zip(*_blocks(self.weyl, False))),
                                list(zip(*_blocks(self.field, True))))
        self._terms = {name: (diag, [_term(*t) for t in terms])
                       for name, (diag, terms) in table.items()}

    @property
    def materialized(self) -> bool:
        """Whether the model holds vector-sized state (bath_dim within the cap)."""
        return self.bath_dim <= _DENSE_BATH_CAP

    def _need(self, what: str):
        if not self.materialized:
            raise ConfigurationError(
                "%s needs a materialized model; bath dimension %d exceeds the "
                "dense cap %d" % (what, self.bath_dim, _DENSE_BATH_CAP))

    def _operators(self, W: Sequence, F: Sequence) -> dict:
        """name -> (diagonal or None, [(spin 4x4, factors or None, summed)]),
        over the Weyl and field factor stacks W and F."""
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
            "U": (None, [(np.diag(e), W[4 + s], False) for s, e in enumerate(np.eye(4))]),
            # set 7 - s holds -d_s bitwise (_SECTOR_SIGNS[3 - s] = -_SECTOR_SIGNS[s])
            # and W(-z) = W(z)*, bitwise for imaginary amplitudes: U* is U
            # with its sector dressings mirrored
            "U*": (None, [(np.diag(e), W[7 - s], False) for s, e in enumerate(np.eye(4))]),
            "I": (None, I),
            "L": (self.L0, flip + _scaled(V, 0.5 * spec.q0)
                  + _scaled(JVJ, -0.5 * spec.q0)),
            "cal_L": (self.L0, _scaled(I, spec.delta)),
        }

    def _apply(self, name: str, x: np.ndarray) -> np.ndarray:
        """Operator `name` applied to every vector x[..., :]."""
        self._need(name)
        diag, terms = self._terms[name]
        xs = x.reshape(-1, 4, self.bath_dim)
        out = np.zeros(xs.shape, dtype=complex)
        for spin, cols, blocks, summed in terms:
            y = xs[:, cols]
            if blocks is not None:
                y = _blocked(blocks, summed, y)
            out += spin @ y
        out = out.reshape(x.shape)
        if diag is not None:
            out += diag * x
        return out


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
    R = (model._apply("U", model._apply("L", model._apply("U*", B)))
         - model._apply("cal_L", B))
    den = float(np.linalg.norm(model.L0[cols]))
    return float(np.linalg.norm(R) / den)


def _lso_dense(model: FiniteModel) -> np.ndarray:
    e = np.zeros((2, model.dim))
    e[[0, 1], [0, 3 * model.bath_dim]] = 1.0
    v = model._apply("I", e)
    x = v / (model.L0 - 1j * model.trunc.eta)
    return np.array([[np.vdot(v[a], x[b]) for b in range(2)] for a in range(2)])


class _RungPhases:
    """Laurent coefficients of the mode phase sums of one rung's pairings.

    Pairing k needs F_k(tau) = prod_j sum_n p_kjn z_j^n, z_j = exp(-i f_j
    tau), where p_kj = conj(W_j(a_kj) Omega) * W_j(b_kj) Omega.  vacua[i, j]
    is the vacuum column W_j Omega of amplitude set i, taken from the
    model's Weyl factors, and set_pairs[k] = (a, b) names the sets of
    pairing k.  Pairings with equal coefficients share one sum: the
    truncated field is off-diagonal in the occupation basis, so W_j(-z)
    Omega = (-1)^N W_j(z) Omega, and the 8 pairings of a rung have at most
    4 distinct coefficient sets, the rows of coef; row[k] is the row of
    pairing k.

    The phases come from the mode grid of discretize, midpoints
    +-(k + 1/2) step with freqs[2m-1-j] == -freqs[j]; the constructor
    checks that structure.  On it z_{m+k} = zeta^(2k+1) and z_{m-1-k} =
    zeta^-(2k+1) with zeta = exp(-i step tau / 2), so each F is a Laurent
    polynomial in zeta of degree at most n_max m^2.  coef[r, top + N] is
    its coefficient of zeta^N, top = n_max m^2: starting from 1, each mode
    multiplies it by its (n_max+1)-term polynomial, one shifted axpy per
    occupation over the support reached so far.
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
        self.row = row.reshape(-1)
        self.step = step
        n_max = pairs.shape[-1] - 1
        self.top = top = n_max * m * m
        coef = np.zeros((len(pairs), 2 * top + 1), dtype=complex)
        out = np.empty_like(coef)
        coef[:, top] = 1.0
        lo = hi = top
        # from the outside in, each positive mode and then its mirror, whose
        # zeta exponents are the multiples of 2k+1 and of -(2k+1).  The
        # centre-out order rounds the coefficients about twice as much (on
        # the last default rung, 1.2e-15 of max |c| against 5e-16 to 7e-16,
        # medians over vacuum columns perturbed by up to 2 ulp); the support
        # widens sooner, which costs 1.5 times the work
        for k in range(m - 1, -1, -1):
            for j, stride in ((m + k, 2 * k + 1), (m - 1 - k, -2 * k - 1)):
                reach = n_max * stride
                new_lo, new_hi = lo + min(0, reach), hi + max(0, reach)
                out[:, new_lo:new_hi + 1] = 0.0
                for n in range(n_max + 1):
                    out[:, lo + n * stride:hi + 1 + n * stride] += (
                        pairs[:, j, n, None] * coef[:, lo:hi + 1])
                coef, out = out, coef
                lo, hi = new_lo, new_hi
        self.coef = coef


def _rung_pairings(model: FiniteModel) -> list:
    """The 8 resolvent pairings of a rung, in the order l00, l11, l01, l10,
    at the eta of the model's truncation.

    Pairing k is <W(a)Omega, (dGamma - s - i eta)^{-1} W(b)Omega>, the time
    integral i int_0^inf exp(-(eta + i s) tau) F_k(tau) dtau over the phase
    sums F_k of _RungPhases.  With F_k = sum_N c_N zeta^N, zeta = exp(-i
    step tau / 2), the integral is exact: sum_N c_N i / (eta + i (s + N
    step / 2)), one dot product per pairing over the Laurent coefficients
    of its row.
    """
    eps, eta = model.spec.eps, model.trunc.eta
    # (s, a, b) of the pairings over the sets c, -c, ct, -ct, two per entry
    # of the 2x2 matrix
    pairings = ((-eps, 1, 1), (eps, 3, 3), (eps, 0, 0), (-eps, 2, 2),
                (-eps, 1, 2), (eps, 3, 0), (eps, 0, 3), (-eps, 2, 1))
    phases = _RungPhases(model.bath.freqs, model.weyl[:4, :, :, 0],
                         [(a, b) for _, a, b in pairings])
    levels = np.arange(-phases.top, phases.top + 1) * (0.5 * phases.step)
    return [complex(phases.coef[phases.row[k]] @ (1j / (eta + 1j * (s + levels))))
            for k, (s, _, _) in enumerate(pairings)]


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
    two columns I Pi0; larger ones (or force_virtual) sum the resolvent
    exactly over the Laurent coefficients of the per-mode phase products of
    the vacuum columns of the model's Weyl factors (_rung_pairings).
    """
    if model.materialized and not force_virtual:
        return _lso_dense(model)
    return _lso_virtual(model)


def _exp_chebyshev(z: float) -> np.ndarray:
    """Chebyshev coefficients of exp(-z (x + 1)) on [-1, 1], for 0 < z <= 8.

    A DCT of the function at the 65 Chebyshev extreme points cos(pi j / 64)
    (Trefethen, Approximation Theory and Approximation Practice, 2013); the
    exact coefficients are 2 (-1)^k exp(-z) I_k(z), which past index 64 are
    far below rounding for z <= 8, so none alias.  The series is cut at the
    first coefficient past index z below 2^-53, where they fall
    monotonically to zero.
    """
    f = np.exp(-z * (np.cos(np.pi * np.arange(65) / 64) + 1.0))
    c = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / 64
    c[[0, -1]] *= 0.5
    k = np.arange(c.size)
    return c[:np.flatnonzero((k > z) & (np.abs(c) < 2.0 ** -53))[0]]


def kms_vector(model: FiniteModel) -> Tuple[np.ndarray, float]:
    """KMS vector of the dressed model and its kernel residual.

    Applies exp(-beta A / 2), A = L0 - (delta/2) cal_V, to the decoupled KMS
    vector (spin Gibbs tensor vacuum); returns the normalized vector and
    || cal_L psi ||.  A is Hermitian and ||cal_V|| = 1, so its spectrum lies
    in [lo - |delta|/2, hi + |delta|/2], lo, hi = min L0, max L0: with
    x = (A - (hi + lo)/2) / r, r = (hi - lo + |delta|)/2, the exponential
    is exp(-z (x + 1)) up to a constant, z = beta r / 2, taken in steps of
    z at most 8, each a Chebyshev series in x by the three-term recurrence
    (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984) and a
    normalization.
    """
    model._need("kms_vector")
    spec = model.spec
    psi = np.zeros(model.dim, dtype=complex)
    psi[[0, 3 * model.bath_dim]] = _gibbs_vector(spec)
    if spec.delta != 0.0:
        reach = spec.beta * (float(np.abs(model.L0).max()) + abs(spec.delta))
        if reach > _EXP_BUDGET:
            raise ScalingError(
                "beta (||L0|| + |delta|) = %g exceeds the exponential budget "
                "%g; use a smaller beta" % (reach, _EXP_BUDGET))
        lo, hi = float(model.L0.min()), float(model.L0.max())
        mid, r = 0.5 * (hi + lo), 0.5 * (hi - lo + abs(spec.delta))
        steps = int(np.ceil(spec.beta * r / 16.0))
        coef = _exp_chebyshev(spec.beta * r / (2 * steps))
        shifted = model.L0 - mid
        for _ in range(steps):
            out = coef[0] * psi
            prev, cur = 0.0, psi
            for k, c in enumerate(coef[1:]):
                x_cur = (shifted * cur
                         - 0.5 * spec.delta * model._apply("cal_V", cur)) / r
                # T_1 = x T_0, T_{k+1} = 2 x T_k - T_{k-1}
                prev, cur = cur, (2.0 if k else 1.0) * x_cur - prev
                out += c * cur
            psi = out / np.linalg.norm(out)
    residual = float(np.linalg.norm(model._apply("cal_L", psi)))
    return psi, residual


def weyl_sequence_check(model: FiniteModel, s: float, n_seq: int = 4) -> np.ndarray:
    """Residuals of the singular sequence a*(f_n) psi_KMS at spectral point s.

    f_n is the indicator of [s - 1/n, s + 1/n] over the discrete modes,
    n = 1..n_seq; n_seq < 1 is a DomainError and a window containing no
    mode a PreconditionError.
    """
    if n_seq < 1:
        raise DomainError("n_seq must be at least 1, got %r" % (n_seq,))
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
        # a*(f_n) is the summed stack of adag on the window's modes, 0 elsewhere
        stack = np.where(sel[:, None, None], adag, 0.0)
        phi_n = _blocked(_blocks(stack, True), True, psi)
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
