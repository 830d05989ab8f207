"""Tests for the finite truncated models and the level-shift oracle."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh, expm

import spinbath as sb
from spinbath import quadrature, truncated_oracle

SPEC, TRUNC = sb.standard_test_bath()


def _build(spec=SPEC, trunc=TRUNC, grid=None):
    bath = sb.discretize(sb.coupling_function(spec, grid=grid), trunc)
    return sb.build_model(bath, spec, trunc)


@pytest.fixture(scope="module")
def small_model():
    f_beta = sb.coupling_function(SPEC)
    bath = sb.discretize(f_beta, TRUNC)
    return f_beta, bath, sb.build_model(bath, SPEC, TRUNC)


# --- truncation spec ----------------------------------------------------------

def test_truncation_spec_validation():
    with pytest.raises(sb.ConfigurationError):
        sb.TruncationSpec(m_pos=0, u_max=3.0, n_max=3, eta=0.1)
    with pytest.raises(sb.ConfigurationError):
        sb.TruncationSpec(m_pos=2, u_max=3.0, n_max=0, eta=0.1)
    with pytest.raises(sb.ConfigurationError):
        sb.TruncationSpec(m_pos=2, u_max=0.0, n_max=3, eta=0.1)
    with pytest.raises(sb.ConfigurationError):
        sb.TruncationSpec(m_pos=2, u_max=3.0, n_max=3, eta=-0.1)
    with pytest.raises(sb.ConfigurationError):
        sb.TruncationSpec(m_pos=2, u_max=3.0, n_max=3, eta=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(sb.ConfigurationError, match="positive and finite"):
            sb.TruncationSpec(m_pos=2, u_max=bad, n_max=3, eta=0.1)
        with pytest.raises(sb.ConfigurationError, match="positive and finite"):
            sb.TruncationSpec(m_pos=2, u_max=3.0, n_max=3, eta=bad)


def test_bath_dim_matches_layout():
    assert TRUNC.bath_dim == (TRUNC.n_max + 1) ** (2 * TRUNC.m_pos)


# --- discretize ---------------------------------------------------------------

def test_discretize_mirror_layout(small_model):
    _, bath, _ = small_model
    assert bath.n_modes == 2 * TRUNC.m_pos
    assert np.all(np.diff(bath.freqs) > 0)
    assert np.array_equal(bath.freqs, -bath.freqs[::-1])
    edges = np.linspace(0.0, TRUNC.u_max, TRUNC.m_pos + 1)
    assert np.array_equal(bath.freqs[TRUNC.m_pos:], 0.5 * (edges[:-1] + edges[1:]))


def test_discretize_inherits_sign_relation(small_model):
    _, bath, _ = small_model
    assert bath.balance_residual(SPEC.beta) < 1e-5


def test_discretize_norm_identity_at_documented_resolution():
    spec = sb.standard_oracle_bath()
    f_beta = sb.coupling_function(spec)
    trunc = sb.TruncationSpec(m_pos=8, u_max=12.0 / spec.beta, n_max=3,
                              eta=0.1)
    bath = sb.discretize(f_beta, trunc)
    target = 4.0 * f_beta.norm_sq()
    assert np.sum(np.abs(bath.amps) ** 2) == pytest.approx(target, rel=0.02)


def test_discretize_norm_error_halves_with_m_pos():
    f_beta = sb.coupling_function(SPEC)
    target = 4.0 * f_beta.norm_sq()
    errs = []
    for m in (8, 16, 32):
        trunc = sb.TruncationSpec(m_pos=m, u_max=8.0, n_max=1, eta=0.1)
        bath = sb.discretize(f_beta, trunc)
        errs.append(abs(np.sum(np.abs(bath.amps) ** 2) - target) / target)
    assert errs[1] <= 0.5 * errs[0]
    assert errs[2] <= 0.5 * errs[1]


def test_discretize_zero_coupling_gives_silent_bath():
    spec = dataclasses.replace(SPEC, q0=0.0)
    bath = sb.discretize(sb.coupling_function(spec), TRUNC)
    assert np.all(bath.amps == 0.0)


def test_discretize_needs_covering_samples():
    f_beta = sb.coupling_function(SPEC, grid=sb.GridSpec(u_max=2.0))
    with pytest.raises(sb.PreconditionError):
        sb.discretize(f_beta, TRUNC)


@pytest.fixture(scope="module")
def wide_glue():
    return sb.coupling_function(SPEC)


@settings(max_examples=25, deadline=None)
@given(m_pos=st.integers(min_value=1, max_value=8),
       u_max=st.floats(min_value=1.0, max_value=20.0))
def test_discretize_layout_properties(wide_glue, m_pos, u_max):
    trunc = sb.TruncationSpec(m_pos=m_pos, u_max=u_max, n_max=1, eta=0.1)
    bath = sb.discretize(wide_glue, trunc)
    assert np.array_equal(bath.freqs, -bath.freqs[::-1])
    assert np.all(np.isfinite(bath.amps))
    assert bath.balance_residual(SPEC.beta) < 1e-4


# --- finite operator algebra --------------------------------------------------

def test_transformed_interaction_squares_to_one(small_model, operator_matrix):
    _, _, model = small_model
    eye = np.eye(model.dim)
    for name in ("cal_V", "cal_JVJ"):
        op = operator_matrix(model, name)
        assert np.abs(op @ op - eye).max() <= 1e-12


def test_left_right_interactions_commute(small_model, operator_matrix):
    _, _, model = small_model
    V, JVJ = operator_matrix(model, "V"), operator_matrix(model, "JVJ")
    comm = V @ JVJ - JVJ @ V
    vnorm = np.linalg.norm(V, 2)
    assert np.abs(comm).max() <= 1e-8 * vnorm ** 2


def test_interaction_is_a_contraction(small_model, operator_matrix):
    _, _, model = small_model
    assert np.linalg.norm(operator_matrix(model, "I"), 2) <= 1.0 + 1e-3


def test_generators_self_adjoint(small_model, operator_matrix):
    _, _, model = small_model
    assert np.isrealobj(model.L0)
    # every table operator but the dressing is Hermitian, so the table
    # needs no adjoint mode
    for name in ("cal_V", "cal_JVJ", "V", "JVJ", "I", "L", "cal_L"):
        op = operator_matrix(model, name)
        assert np.abs(op - op.conj().T).max() <= 1e-10


def test_polaron_dressing_is_unitary(small_model, operator_matrix):
    _, _, model = small_model
    eye = np.eye(model.dim)
    U = operator_matrix(model, "U")
    assert np.abs(U.conj().T @ U - eye).max() <= 1e-12


def test_vacuum_projections_sit_on_sector_vacua(small_model, monkeypatch):
    # the level-shift columns I Pi0 and the decoupled KMS vector both sit on
    # the two sector vacua of Pi0, basis vectors 0 and 3 * bath_dim
    _, bath, model = small_model
    bd = model.bath_dim
    seen = []
    apply = model._apply
    monkeypatch.setattr(model, "_apply", lambda name, x:
                        seen.append((name, x.copy())) or apply(name, x))
    sb.lso_finite(model)
    ((name, columns),) = seen
    assert name == "I"
    assert [np.flatnonzero(c).tolist() for c in columns] == [[0], [3 * bd]]
    assert np.array_equal(columns[:, [0, 3 * bd]], np.eye(2))
    free = sb.build_model(bath, dataclasses.replace(SPEC, delta=0.0), TRUNC)
    psi, _ = sb.kms_vector(free)
    assert np.flatnonzero(psi).tolist() == [0, 3 * bd]


def test_weyl_unitarity_monitor_trips():
    bath = sb.DiscretizedBath(freqs=np.array([-1.0, 1.0]),
                              amps=np.array([1e12 + 0j, 1e12 + 0j]))
    trunc = sb.TruncationSpec(m_pos=1, u_max=1.0, n_max=1, eta=0.1)
    with pytest.raises(sb.TruncationError, match="n_max"):
        sb.build_model(bath, SPEC, trunc)


# --- factored operators -------------------------------------------------------

FACTORED_OPS = ("cal_V", "cal_JVJ", "V", "JVJ", "U", "U*", "I", "L", "cal_L")


def _bath_dense(factors, summed, bath_dim):
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


def _kron_apply(model, name, x, adjoint=False):
    """Operator `name` (or its adjoint) applied to the rows of x, each term
    through the dense Kronecker matrix of its per-mode bath factors, from
    the operator table over the model's factor stacks, without _apply and
    without a dim x dim matrix."""
    diag, terms = model._operators(model.weyl, model.field)[name]
    xs = x.reshape(len(x), 4, model.bath_dim)
    out = np.zeros(xs.shape, dtype=complex)
    for spin, factors, summed in terms:
        bath = _bath_dense(factors, summed, model.bath_dim)
        if adjoint:
            spin, bath = spin.conj().T, bath.conj().T
        out += spin @ (xs @ bath.T)
    out = out.reshape(x.shape)
    if diag is not None:
        out += np.conj(diag) * x if adjoint else diag * x
    return out


@pytest.fixture(scope="module")
def factored_models():
    f_beta = sb.coupling_function(SPEC)

    @functools.lru_cache(maxsize=None)
    def model(m_pos, n_max):
        trunc = sb.TruncationSpec(m_pos=m_pos, u_max=3.0, n_max=n_max, eta=0.1)
        bath = sb.discretize(f_beta, trunc)
        # a generic phase makes every Weyl factor complex, not only real
        bath = dataclasses.replace(bath, amps=bath.amps * np.exp(0.3j))
        return sb.build_model(bath, SPEC, trunc)

    return model


def _random_vectors(model, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, model.dim)) + 1j * rng.standard_normal((2, model.dim))


def _check_factored_apply(model, seed, name):
    x = _random_vectors(model, seed)
    got = model._apply(name, x)
    want = _kron_apply(model, name, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _held_blocks(model):
    """The distinct bath blocks of the model's operator table."""
    return list({id(b): b for _, terms in model._terms.values()
                 for _, _, blocks, _ in terms if blocks is not None
                 for b in blocks}.values())


# (m_pos, n_max) of every materialized model with up to three modes per block
FACTORED_SHAPES = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)
                   if (n + 1) ** (2 * m) <= truncated_oracle._DENSE_BATH_CAP]


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(FACTORED_SHAPES),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       name=st.sampled_from(FACTORED_OPS))
def test_factored_apply_matches_dense_view(factored_models, shape, seed, name):
    _check_factored_apply(factored_models(*shape), seed, name)


@pytest.mark.parametrize("name", FACTORED_OPS)
def test_factored_apply_with_four_modes_per_block(factored_models, name):
    # the d = 2 shape of the Weyl workload model: two 16 x 16 blocks
    model = factored_models(4, 1)
    assert [b.shape for b in _held_blocks(model)] == [(16, 16)] * 2 * (8 + 2)
    _check_factored_apply(model, 0, name)


@pytest.mark.parametrize("m_pos", [1, 2, 3, 4])
@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
def test_mirrored_dressing_is_the_adjoint(m_pos, phase):
    # U* from the dressings of the mirrored sectors equals the conjugate
    # transpose of U's Kronecker terms, on physical (imaginary) amplitudes
    # and on phased (complex) ones
    trunc = sb.TruncationSpec(m_pos=m_pos, u_max=3.0, n_max=1, eta=0.1)
    bath = sb.discretize(sb.coupling_function(SPEC), trunc)
    bath = dataclasses.replace(bath, amps=bath.amps * phase)
    model = sb.build_model(bath, SPEC, trunc)
    x = _random_vectors(model, m_pos)
    want = _kron_apply(model, "U", x, adjoint=True)
    got = model._apply("U*", x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_operator_table_is_built_once(small_model, monkeypatch):
    _, _, model = small_model
    calls = []
    build = truncated_oracle.FiniteModel._operators
    monkeypatch.setattr(truncated_oracle.FiniteModel, "_operators",
                        lambda self, W, F: calls.append(1) or build(self, W, F))
    fresh = sb.build_model(model.bath, model.spec, model.trunc)
    assert fresh.materialized and calls == [1]


def test_model_stores_no_dense_matrix(small_model):
    _, _, model = small_model
    fresh = sb.build_model(model.bath, model.spec, model.trunc)
    stored = [v for v in vars(fresh).values() if isinstance(v, np.ndarray)]
    assert max(v.size for v in stored) == fresh.dim
    assert fresh.weyl.shape == (8, fresh.bath.n_modes, 4, 4)
    assert fresh.field.shape == (2, fresh.bath.n_modes, 4, 4)
    # the block table: a (low, high) pair of 16 x 16 blocks per factor
    # stack, eight Weyl and two field stacks, which U* shares with U
    assert fresh.bath_dim == 16 * 16
    assert [b.shape for b in _held_blocks(fresh)] == [(16, 16)] * 2 * (8 + 2)


def test_model_past_the_cap_stores_only_its_factors():
    trunc = sb.TruncationSpec(m_pos=6, u_max=3.0, n_max=2, eta=0.1)
    model = _build(trunc=trunc)
    assert not model.materialized
    assert model.weyl.shape == (8, 12, 3, 3)
    assert model.field.shape == (2, 12, 3, 3)
    stored = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert max(v.size for v in stored) == model.weyl.size
    assert model._terms == {}
    with pytest.raises(AttributeError):
        model.materialized = True


def test_last_default_rung_builds_no_blocks():
    model = _rung_model(-1)
    assert model.trunc.m_pos == 32 and not model.materialized
    assert model._terms == {}


def test_materialized_model_runs_below_one_dense_matrix(small_model):
    # one dense complex dim x dim matrix takes dim^2 * 16 bytes; every path
    # of a materialized model stays below an eighth of that
    trunc = dataclasses.replace(TRUNC, n_max=4)
    bath = sb.discretize(sb.coupling_function(SPEC), trunc)
    sb.kms_vector(small_model[2])  # loads numpy.fft before tracing
    tracemalloc.start()
    try:
        model = sb.build_model(bath, SPEC, trunc)
        sb.check_unitary_equivalence(model)
        sb.kms_vector(model)
        sb.lso_finite(model)
        sb.lso_finite(model, force_virtual=True)
        sb.weyl_sequence_check(model, s=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.dim == 2500
    assert peak < model.dim ** 2 * 16 / 8
    # one (low, high) block pair per factor stack, 25 x 25 each
    stacks = len(model.weyl) + len(model.field)
    held = sum(b.size for b in _held_blocks(model))
    assert held <= 2 * model.bath_dim * stacks


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=2, max_value=8),
       polar=st.lists(st.tuples(st.floats(min_value=0.0, max_value=4.0),
                                st.floats(min_value=0.0, max_value=2 * np.pi)),
                      min_size=1, max_size=6))
def test_batched_weyl_factors_match_expm(d, polar):
    # the eigh factors against scipy's expm, at amplitudes up to 4 (the
    # oracle's reach about 1.6) with any phase; a batch is its singles
    a = truncated_oracle._annihilator(d)
    row = np.array([r * np.exp(1j * t) for r, t in polar])
    z = np.array([row, -np.conj(row)])
    got = truncated_oracle._wmode(z, a)
    want = np.array([[expm(1j * truncated_oracle._phi(x, a)) for x in row]
                     for row in z])
    assert np.abs(got - want).max() <= 1e-14
    single = truncated_oracle._wmode(z[0, 0], a)
    assert single.shape == (d, d)
    assert np.array_equal(single, got[0, 0])


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_factors_keep_the_identity_and_real_factors_exact(d):
    a = truncated_oracle._annihilator(d)
    amps = np.array([0.0, -0.0, 0.0j, 0.7j, -1.3j, 2.9j, -4.0j, 1e-300j])
    w = truncated_oracle._wmode(amps, a)
    assert np.array_equal(w[:3], np.broadcast_to(np.eye(d), (3, d, d)))
    assert not np.any(w.imag)
    # and the factors of every discretize bath, whose amplitudes are imaginary
    bath = sb.discretize(sb.coupling_function(SPEC), TRUNC)
    assert not np.any(bath.amps.real)
    model = sb.build_model(bath, SPEC, dataclasses.replace(TRUNC, n_max=d - 1))
    assert not np.any(model.weyl.imag)


def test_weyl_phase_monitor_trips_where_the_phases_lose_accuracy():
    # the factor's error is about eps |z| max lambda; the largest eigenvalue
    # at n_max 1 is 1/sqrt(2), so the bound 1e-6 sits at |z| = 6.4e9
    a = truncated_oracle._annihilator(2)
    limit = 1e-6 / (np.finfo(float).eps / np.sqrt(2.0))
    truncated_oracle._wmode(np.array([0.5, 0.99 * limit * 1j]), a)
    with pytest.raises(sb.TruncationError, match="n_max 1"):
        truncated_oracle._wmode(np.array([0.5, 1.01 * limit * 1j]), a)


def test_virtual_level_shift_reuses_the_model_factors(small_model, monkeypatch):
    _, _, model = small_model

    def no_factors(*args, **kwargs):
        raise AssertionError("a Weyl factor was computed after build_model")

    monkeypatch.setattr(truncated_oracle, "_wmode", no_factors)
    virtual = sb.lso_finite(model, force_virtual=True)
    assert np.abs(virtual - sb.lso_finite(model)).max() <= 1e-7


# --- unitary equivalence ------------------------------------------------------

def test_equivalence_residual_refines_with_n_max():
    res = []
    for n_max in (2, 3, 4):
        trunc = sb.TruncationSpec(m_pos=2, u_max=3.0, n_max=n_max, eta=0.1)
        res.append(sb.check_unitary_equivalence(_build(trunc=trunc)))
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.03


def test_equivalence_exact_without_coupling(operator_matrix):
    spec = dataclasses.replace(SPEC, q0=0.0)
    model = _build(spec=spec)
    assert sb.check_unitary_equivalence(model) <= 1e-12
    assert np.array_equal(operator_matrix(model, "U"), np.eye(model.dim))


def test_equivalence_residual_ignores_delta():
    res = [sb.check_unitary_equivalence(_build(
        spec=dataclasses.replace(SPEC, delta=d))) for d in (0.0, 0.2, 0.7)]
    assert max(res) - min(res) <= 1e-10


# --- level-shift matrix -------------------------------------------------------

def test_exact_pairings_match_the_dense_resolvent(small_model, factored_models):
    # the exact resolvent sum agrees with the dense resolvent to rounding,
    # on real and on complex (phased) vacuum columns: pairings built from a
    # transposed or unconjugated factor would differ on the phased model
    _, _, model = small_model
    for m in (model, factored_models(2, 3)):
        dense = sb.lso_finite(m)
        virtual = sb.lso_finite(m, force_virtual=True)
        assert np.abs(virtual - dense).max() <= 1e-13 * np.abs(dense).max()


# the time quadrature of the reference pairings: tau up to 45 / eta, order-16
# panels, at most 400000 nodes
_TAU_DECADES, _TAU_ORDER, _TAU_NODE_CAP = 45.0, 16, 400000


def _direct_pairing(s, avec, bvec, bath, n_max, eta):
    """The pairing as a time quadrature, each mode's phase sum taken term
    by term."""
    a_op = truncated_oracle._annihilator(n_max + 1)
    occ = np.arange(n_max + 1)
    pair = [np.conj(truncated_oracle._wmode(avec[j], a_op)[:, 0])
            * truncated_oracle._wmode(bvec[j], a_op)[:, 0]
            for j in range(bath.n_modes)]
    tau_max = _TAU_DECADES / eta
    w_char = abs(s) + eta + 0.5 * float(
        np.sum(np.abs(bath.freqs) * (np.abs(avec) ** 2 + np.abs(bvec) ** 2)))
    order, cap = _TAU_ORDER, _TAU_NODE_CAP
    n_pan = int(min(max(8, np.ceil(tau_max * w_char / 1.5)), cap // (2 * order)))
    max_refine = max(1, int(np.log2(max(2.0, cap / (n_pan * order)))))

    def f(tau, w):
        F = np.ones(tau.shape, dtype=complex)
        for j in range(bath.n_modes):
            F *= pair[j] @ np.exp(-1j * bath.freqs[j] * np.outer(occ, tau))
        g = 1j * np.exp(-(eta + 1j * s) * tau) * F
        return np.sum(np.vstack([g.real, g.imag]) * w, axis=-1)

    res = quadrature.integrate_refining(f, np.linspace(0.0, tau_max, n_pan + 1),
                                        order=order, rtol=1e-9,
                                        max_refine=max_refine, floor=1e-3)
    return complex(res.values[0], res.values[1])


def test_shared_phase_pairings_match_direct_phase_sum():
    spec = sb.standard_oracle_bath()
    m_pos, eta = truncated_oracle._ORACLE_SCHEDULE[0]
    n_max = 3
    trunc = sb.TruncationSpec(m_pos, 12.0 / spec.beta, n_max, eta)
    model = sb.build_model(sb.discretize(sb.coupling_function(spec), trunc), spec, trunc)
    bath = model.bath
    c = bath.amps
    ct = np.conj(c[::-1])
    eps = spec.eps
    pairings = [(-eps, -c, -c), (eps, -ct, -ct), (eps, c, c), (-eps, ct, ct),
                (-eps, -c, ct), (eps, -ct, c), (eps, c, -ct), (-eps, ct, -c)]
    got = truncated_oracle._rung_pairings(model)
    want = [_direct_pairing(s, a, b, bath, n_max, eta) for s, a, b in pairings]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * abs(w)
    r = want
    lam = np.array([[0.25 * (r[0] + r[1]), -0.25 * (r[4] + r[5])],
                    [-0.25 * (r[6] + r[7]), 0.25 * (r[2] + r[3])]])
    got = sb.lso_finite(model)
    assert np.abs(got - lam).max() <= 1e-13 * np.abs(lam).max()


RUNG_SET_PAIRS = [(1, 1), (3, 3), (0, 0), (2, 2), (1, 2), (3, 0), (0, 3), (2, 1)]


def _rung_model(rung):
    spec = sb.standard_oracle_bath()
    m_pos, eta = truncated_oracle._ORACLE_SCHEDULE[rung]
    trunc = sb.TruncationSpec(m_pos, 12.0 / spec.beta, 3, eta)
    return sb.build_model(sb.discretize(sb.coupling_function(spec), trunc),
                          spec, trunc)


def _rung_phases(model):
    return truncated_oracle._RungPhases(model.bath.freqs, model.weyl[:4, :, :, 0],
                                        RUNG_SET_PAIRS)


def _rung_pairs(model):
    """The distinct per-mode coefficient sets of a rung's pairings, in the
    order of the rows of _RungPhases.coef."""
    vacua = model.weyl[:4, :, :, 0]
    a, b = np.array(RUNG_SET_PAIRS).T
    return np.unique(np.conj(vacua[a]) * vacua[b], axis=0)


def _extended_laurent(pairs, freqs):
    """Coefficients of prod_j sum_n p_jn zeta^(n N_j), N_j = 2 f_j / step, by
    direct convolution over the modes in ascending order, in extended
    precision."""
    step = freqs[-1] - freqs[-2]
    strides = np.rint(2.0 * freqs / step).astype(int)
    n_max = pairs.shape[-1] - 1
    top = n_max * int(np.sum(np.abs(strides))) // 2
    c = np.zeros((len(pairs), 2 * top + 1), dtype=np.clongdouble)
    c[:, top] = 1.0
    for j, stride in enumerate(strides):
        acc = np.zeros_like(c)
        for n in range(n_max + 1):
            acc += pairs[:, j, n, None].astype(np.clongdouble) * np.roll(c, n * stride, axis=1)
        c = acc
    return c


def test_laurent_coefficients_match_extended_precision():
    model = _rung_model(-1)
    phases = _rung_phases(model)
    pairs = _rung_pairs(model)
    assert pairs.shape[1:] == (64, 4)
    assert phases.top == 3 * 32 ** 2
    want = _extended_laurent(pairs, model.bath.freqs)
    assert phases.coef.shape == want.shape
    assert np.abs(phases.coef - want).max() <= 1e-15 * np.abs(want).max()


def test_laurent_coefficients_stay_within_their_buffers():
    model = _rung_model(-1)
    tracemalloc.start()
    try:
        phases = _rung_phases(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the coefficients, their second buffer and one axpy term (the slack is
    # numpy's and the grid check's scratch), nothing that grows with a time grid
    assert phases.coef.nbytes == len(_rung_pairs(model)) * (2 * 3 * 32 ** 2 + 1) * 16
    assert peak <= 4 * phases.coef.nbytes


def test_rung_phases_need_the_discretize_grid():
    freqs = _rung_model(0).bath.freqs
    vacua = np.ones((4, freqs.size, 2), dtype=complex)
    skewed = freqs.copy()
    skewed[-1] *= 1.0 + 1e-9
    for bad in (skewed, freqs[1:], np.sort(np.abs(freqs))):
        with pytest.raises(sb.PreconditionError, match="uniform mode grid"):
            truncated_oracle._RungPhases(bad, vacua, RUNG_SET_PAIRS)


def test_default_ladder_takes_no_quadrature(monkeypatch):
    calls = []
    for module in (quadrature, truncated_oracle):
        monkeypatch.setattr(module, "integrate_refining",
                            lambda *args, **kwargs: calls.append(1))
    report = sb.run_oracle_schedule()
    assert calls == []
    assert len(report.rungs) == len(truncated_oracle._ORACLE_SCHEDULE) == 3


def test_lso_entries_structure(small_model):
    _, _, model = small_model
    lam = sb.lso_finite(model)
    assert lam.shape == (2, 2)
    assert abs(lam[0, 1] - lam[1, 0]) <= 1e-12
    assert np.abs(lam.real).max() <= 1e-12


def test_lso_free_spin_closed_form():
    spec = dataclasses.replace(SPEC, q0=0.0)
    model = _build(spec=spec)
    eta = TRUNC.eta
    val = 0.5j * eta / (spec.eps ** 2 + eta ** 2)
    expected = val * np.array([[1.0, -1.0], [-1.0, 1.0]])
    lam = sb.lso_finite(model)
    assert np.allclose(lam, expected, rtol=1e-12, atol=1e-15)


def test_lso_rejects_bad_eta(small_model):
    # lso_finite reads model.trunc.eta; a non-positive eta cannot reach it,
    # since no truncation carrying one can be built
    _, _, model = small_model
    for bad in (0.0, -0.5):
        with pytest.raises(sb.ConfigurationError):
            dataclasses.replace(model.trunc, eta=bad)
    with pytest.raises(TypeError):
        sb.lso_finite(model, eta=0.5)


def test_virtual_model_supports_only_lso():
    trunc = sb.TruncationSpec(m_pos=6, u_max=3.0, n_max=2, eta=0.1)
    model = _build(trunc=trunc)
    assert not model.materialized
    with pytest.raises(sb.ConfigurationError):
        sb.check_unitary_equivalence(model)
    with pytest.raises(sb.ConfigurationError):
        sb.kms_vector(model)
    with pytest.raises(sb.ConfigurationError):
        sb.weyl_sequence_check(model, s=1.0)
    lam = sb.lso_finite(model)
    assert lam.shape == (2, 2)
    assert np.all(np.isfinite(lam))
    assert np.abs(lam.real).max() <= 1e-6 * np.abs(lam.imag).max()


# --- KMS vector ---------------------------------------------------------------

def test_kms_decoupled_is_exact_kernel_vector():
    spec = dataclasses.replace(SPEC, delta=0.0)
    model = _build(spec=spec)
    psi, res = sb.kms_vector(model)
    assert res <= 1e-12
    support = np.nonzero(psi)[0]
    assert np.array_equal(support, np.array([0, 3 * model.bath_dim]))
    ratio = (psi[3 * model.bath_dim] / psi[0]).real
    assert ratio == pytest.approx(np.exp(0.5 * spec.beta * spec.eps), rel=1e-12)


def test_free_generator_annihilates_sector_vacua(small_model):
    _, _, model = small_model
    assert model.L0[0] == 0.0
    assert model.L0[3 * model.bath_dim] == 0.0


def test_kms_residual_refines():
    spec = dataclasses.replace(SPEC, delta=0.05)
    res = []
    for m_pos, n_max in ((1, 2), (2, 3), (2, 4)):
        trunc = sb.TruncationSpec(m_pos=m_pos, u_max=3.0, n_max=n_max, eta=0.1)
        _, r = sb.kms_vector(_build(spec=spec, trunc=trunc))
        res.append(r)
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-3


def test_kms_normalized(small_model):
    _, _, model = small_model
    psi, _ = sb.kms_vector(model)
    assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)


# at beta 1.5 each model takes one series step, at beta 4 (n_max 2) two; at
# beta 4, n_max 3 the dense reference itself is 6e-9 off the residual
@pytest.mark.parametrize("n_max, beta", [(2, 1.5), (3, 1.5), (2, 4.0)],
                         ids=["2", "3", "2-beta4"])
def test_kms_matches_dense_eigh_reference(n_max, beta, operator_matrix):
    spec = dataclasses.replace(SPEC, beta=beta)
    trunc = dataclasses.replace(TRUNC, n_max=n_max)
    model = _build(spec=spec, trunc=trunc)
    psi, res = sb.kms_vector(model)

    g = 0.25 * spec.beta * spec.eps
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = np.exp(-g - abs(g))
    psi0[3 * model.bath_dim] = np.exp(g - abs(g))
    psi0 /= np.linalg.norm(psi0)
    cal_V = operator_matrix(model, "cal_V")
    w, Q = eigh(np.diag(model.L0).astype(complex) - 0.5 * spec.delta * cal_V)
    ref = Q @ (np.exp(-0.5 * spec.beta * (w - w.min())) * (Q.conj().T @ psi0))
    ref /= np.linalg.norm(ref)
    ref_res = np.linalg.norm(operator_matrix(model, "cal_L") @ ref)

    assert abs(np.vdot(ref, psi)) >= 1.0 - 1e-12
    assert res == pytest.approx(ref_res, rel=1e-9)


def test_kms_leaves_global_random_stream_alone(small_model):
    _, _, model = small_model
    np.random.seed(7)
    expected = np.random.random_sample(3)
    np.random.seed(7)
    first, _ = sb.kms_vector(model)
    assert np.array_equal(np.random.random_sample(3), expected)
    np.random.seed(8)
    second, _ = sb.kms_vector(model)
    assert np.array_equal(first, second)


def test_kms_overflow_guard():
    spec = dataclasses.replace(SPEC, beta=500.0)
    trunc = sb.TruncationSpec(m_pos=1, u_max=3.0, n_max=1, eta=0.1)
    grid = sb.GridSpec(u_max=3.5)
    with pytest.raises(sb.ScalingError, match="smaller beta"):
        sb.kms_vector(_build(spec=spec, trunc=trunc, grid=grid))
    decoupled = dataclasses.replace(spec, delta=0.0)
    _, res = sb.kms_vector(_build(spec=decoupled, trunc=trunc, grid=grid))
    assert res <= 1e-12


# --- singular Weyl sequences --------------------------------------------------

WEYL_TRUNC = sb.TruncationSpec(m_pos=5, u_max=3.0, n_max=1, eta=0.1)


def test_weyl_residuals_decrease_into_spectrum():
    spec = dataclasses.replace(SPEC, delta=0.02)
    res = sb.weyl_sequence_check(_build(spec=spec, trunc=WEYL_TRUNC), s=1.0)
    assert np.all(np.diff(res) <= 1e-12)
    assert res[-1] < res[0]


def test_weyl_empty_window_is_a_precondition():
    spec = dataclasses.replace(SPEC, delta=0.02)
    model = _build(spec=spec, trunc=WEYL_TRUNC)
    with pytest.raises(sb.PreconditionError):
        sb.weyl_sequence_check(model, s=10.0)


@pytest.mark.parametrize("n_seq", [0, -1, -5])
def test_weyl_sequence_needs_at_least_one_window(small_model, n_seq):
    _, _, model = small_model
    with pytest.raises(sb.DomainError, match="n_seq"):
        sb.weyl_sequence_check(model, s=1.0, n_seq=n_seq)
    assert sb.weyl_sequence_check(model, s=1.0, n_seq=1).shape == (1,)


def test_weyl_model_runs_in_small_memory():
    spec = dataclasses.replace(SPEC, delta=0.02)
    bath = sb.discretize(sb.coupling_function(spec), WEYL_TRUNC)
    tracemalloc.start()
    try:
        model = sb.build_model(bath, spec, WEYL_TRUNC)
        sb.kms_vector(model)
        sb.weyl_sequence_check(model, s=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.dim == 4096
    assert peak < 64 * 2 ** 20


def test_weyl_free_field_matches_window_rms():
    spec = dataclasses.replace(SPEC, delta=0.0, q0=0.0)
    model = _build(spec=spec, trunc=WEYL_TRUNC)
    res = sb.weyl_sequence_check(model, s=0.0, n_seq=3)
    for n, r in enumerate(res, start=1):
        sel = np.abs(model.bath.freqs) <= 1.0 / n
        expected = np.sqrt(np.mean(model.bath.freqs[sel] ** 2))
        assert r == pytest.approx(expected, rel=1e-9)


# --- oracle schedule ----------------------------------------------------------

SMOKE_SCHEDULE = ((1, 0.4), (2, 0.2), (3, 0.1))


def test_oracle_schedule_shape_and_determinism():
    spec = sb.standard_oracle_bath()
    first = sb.run_oracle_schedule(spec, SMOKE_SCHEDULE, n_max=2)
    second = sb.run_oracle_schedule(spec, SMOKE_SCHEDULE, n_max=2)
    assert first.schedule == SMOKE_SCHEDULE
    assert len(first.rungs) == 3
    for a, b in zip(first.rungs, second.rungs):
        assert np.array_equal(a, b)
    assert set(first.extrapolated) == {"x_plus", "x_minus", "z"}
    assert set(first.observed_order) == set(first.extrapolated)
    assert all(isinstance(v, bool) for v in first.monotone.values())
    top = first.entries(-1)
    lam = first.rungs[-1]
    assert top["x_plus"] == lam[0, 0]
    assert top["x_minus"] == lam[1, 1]
    assert top["z"] == 0.5 * (lam[0, 1] + lam[1, 0])


def test_oracle_schedule_needs_three_rungs():
    with pytest.raises(sb.ConfigurationError):
        sb.run_oracle_schedule(schedule=((4, 0.2), (8, 0.1)))


def test_standard_oracle_bath_pins_saturated_weight():
    spec = sb.standard_oracle_bath()
    a = spec.q0 ** 2 / np.pi
    assert a * sb.c2_saturation(spec) == pytest.approx(4.0, rel=1e-9)
