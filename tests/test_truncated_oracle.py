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
    assert np.array_equal(bath.bin_edges,
                          np.linspace(0.0, TRUNC.u_max, TRUNC.m_pos + 1))


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

def test_transformed_interaction_squares_to_one(small_model):
    _, _, model = small_model
    eye = np.eye(model.dim)
    assert np.abs(model.cal_V @ model.cal_V - eye).max() <= 1e-12
    assert np.abs(model.cal_JVJ @ model.cal_JVJ - eye).max() <= 1e-12


def test_left_right_interactions_commute(small_model):
    _, _, model = small_model
    comm = model.V @ model.JVJ - model.JVJ @ model.V
    vnorm = np.linalg.norm(model.V, 2)
    assert np.abs(comm).max() <= 1e-8 * vnorm ** 2


def test_interaction_is_a_contraction(small_model):
    _, _, model = small_model
    assert np.linalg.norm(model.I, 2) <= 1.0 + 1e-3


def test_generators_self_adjoint(small_model):
    _, _, model = small_model
    assert np.isrealobj(model.L0)
    for op in (model.I, model.L, model.cal_L):
        assert np.abs(op - op.conj().T).max() <= 1e-10


def test_polaron_dressing_is_unitary(small_model):
    _, _, model = small_model
    eye = np.eye(model.dim)
    assert np.abs(model.U.conj().T @ model.U - eye).max() <= 1e-12


def test_vacuum_projections_sit_on_sector_vacua(small_model, monkeypatch):
    # the level-shift columns I Pi0 and the decoupled KMS vector both sit on
    # the two sector vacua of Pi0, basis vectors 0 and 3 * bath_dim
    _, bath, model = small_model
    bd = model.bath_dim
    seen = []
    apply = model._apply
    monkeypatch.setattr(model, "_apply", lambda name, x, adjoint=False:
                        seen.append((name, x.copy())) or apply(name, x, adjoint))
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
                              amps=np.array([1e12 + 0j, 1e12 + 0j]),
                              bin_edges=np.linspace(0.0, 1.0, 2))
    trunc = sb.TruncationSpec(m_pos=1, u_max=1.0, n_max=1, eta=0.1)
    with pytest.raises(sb.TruncationError, match="n_max"):
        sb.build_model(bath, SPEC, trunc)


# --- factored operators -------------------------------------------------------

FACTORED_OPS = ("cal_V", "cal_JVJ", "V", "JVJ", "U", "I", "L", "cal_L")


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


@settings(max_examples=30, deadline=None)
@given(m_pos=st.integers(min_value=1, max_value=2),
       n_max=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       name=st.sampled_from(FACTORED_OPS))
def test_factored_apply_matches_dense_view(factored_models, m_pos, n_max, seed, name):
    model = factored_models(m_pos, n_max)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, model.dim)) + 1j * rng.standard_normal((2, model.dim))
    dense = getattr(model, name)
    for got, want in ((model._apply(name, x), x @ dense.T),
                      (model._apply(name, x, adjoint=True), x @ dense.conj())):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_model_stores_no_dense_matrix(small_model):
    _, _, model = small_model
    fresh = sb.build_model(model.bath, model.spec, model.trunc)
    stored = [v for v in vars(fresh).values() if isinstance(v, np.ndarray)]
    assert max(v.size for v in stored) == fresh.dim
    assert fresh.weyl.shape == (8, fresh.bath.n_modes, 4, 4)
    assert fresh.field.shape == (2, fresh.bath.n_modes, 4, 4)


def test_model_past_the_cap_stores_only_its_factors():
    trunc = sb.TruncationSpec(m_pos=6, u_max=3.0, n_max=2, eta=0.1)
    model = _build(trunc=trunc)
    assert not model.materialized
    assert model.weyl.shape == (8, 12, 3, 3)
    assert model.field.shape == (2, 12, 3, 3)
    stored = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert max(v.size for v in stored) == model.weyl.size
    with pytest.raises(AttributeError):
        model.materialized = True


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=2, max_value=6),
       polar=st.lists(st.tuples(st.floats(min_value=0.0, max_value=30.0),
                                st.floats(min_value=0.0, max_value=2 * np.pi)),
                      min_size=1, max_size=6))
def test_batched_weyl_factors_equal_single_expm(d, polar):
    a = truncated_oracle._annihilator(d)
    row = np.array([r * np.exp(1j * t) for r, t in polar])
    z = np.array([row, -np.conj(row)])
    got = truncated_oracle._wmode(z, a)
    want = np.array([[expm(1j * truncated_oracle._phi(x, a)) for x in row]
                     for row in z])
    assert np.array_equal(got, want)
    single = truncated_oracle._wmode(z[0, 0], a)
    assert single.shape == (d, d)
    assert np.array_equal(single, want[0, 0])


def test_virtual_level_shift_reuses_the_model_factors(small_model, monkeypatch):
    _, _, model = small_model

    def no_expm(*args, **kwargs):
        raise AssertionError("expm ran after build_model")

    monkeypatch.setattr(truncated_oracle, "expm", no_expm)
    virtual = sb.lso_finite(model, force_virtual=True)
    assert np.abs(virtual - sb.lso_finite(model)).max() <= 1e-7


def test_dense_views_are_cached_and_read_only(small_model):
    _, _, model = small_model
    assert model.cal_V is model.cal_V
    with pytest.raises(ValueError):
        model.cal_V[0, 0] = 1.0


# --- unitary equivalence ------------------------------------------------------

def test_equivalence_residual_refines_with_n_max():
    res = []
    for n_max in (2, 3, 4):
        trunc = sb.TruncationSpec(m_pos=2, u_max=3.0, n_max=n_max, eta=0.1)
        res.append(sb.check_unitary_equivalence(_build(trunc=trunc)))
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.03


def test_equivalence_exact_without_coupling():
    spec = dataclasses.replace(SPEC, q0=0.0)
    model = _build(spec=spec)
    assert sb.check_unitary_equivalence(model) <= 1e-12
    assert np.array_equal(model.U, np.eye(model.dim))


def test_equivalence_residual_ignores_delta():
    res = [sb.check_unitary_equivalence(_build(
        spec=dataclasses.replace(SPEC, delta=d))) for d in (0.0, 0.2, 0.7)]
    assert max(res) - min(res) <= 1e-10


# --- level-shift matrix -------------------------------------------------------

def test_lso_dense_matches_virtual(small_model, factored_models):
    _, _, model = small_model
    # the phased model has complex vacuum columns, so pairings built from a
    # transposed or unconjugated factor differ from the dense resolvent
    for m in (model, factored_models(2, 3)):
        dense = sb.lso_finite(m)
        virtual = sb.lso_finite(m, force_virtual=True)
        assert np.abs(dense - virtual).max() <= 1e-7


def _direct_pairing(s, avec, bvec, bath, n_max, eta):
    """The pairing with each mode's phase sum taken term by term."""
    a_op = truncated_oracle._annihilator(n_max + 1)
    occ = np.arange(n_max + 1)
    pair = [np.conj(truncated_oracle._wmode(avec[j], a_op)[:, 0])
            * truncated_oracle._wmode(bvec[j], a_op)[:, 0]
            for j in range(bath.n_modes)]
    tau_max = truncated_oracle._TAU_DECADES / eta
    w_char = abs(s) + eta + 0.5 * float(
        np.sum(np.abs(bath.freqs) * (np.abs(avec) ** 2 + np.abs(bvec) ** 2)))
    order, cap = truncated_oracle._TAU_ORDER, truncated_oracle._TAU_NODE_CAP
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


class _PairingEdges(Exception):
    pass


@pytest.fixture(scope="module")
def last_rung():
    """Phase sums of the last default rung and the nodes of its pairings'
    first doubling, the largest node set the rung evaluates."""
    model = _rung_model(-1)

    def stop(f, edges, order, **kwargs):
        raise _PairingEdges(edges, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(truncated_oracle, "integrate_refining", stop)
        with pytest.raises(_PairingEdges) as info:
            sb.lso_finite(model)
    edges, order = info.value.args
    tau, _ = quadrature.panel_nodes(quadrature.refine_edges(edges), order)
    return _rung_phases(model), tau


def _extended_phase_sum(phases, tau):
    """prod_j sum_n p_jn exp(-i f_j n tau) in extended precision."""
    pairs = phases.pairs.astype(np.clongdouble)
    t = tau.astype(np.longdouble)
    F = np.ones((len(pairs), tau.size), dtype=np.clongdouble)
    for j, f in enumerate(phases.freqs.astype(np.longdouble)):
        z = np.exp(np.clongdouble(-1j) * (f * t))
        zn = np.ones_like(z)
        acc = np.zeros_like(F)
        for n in range(pairs.shape[-1]):
            acc += pairs[:, j, n, None] * zn
            zn *= z
        F *= acc
    return F


def test_rung_phase_sums_match_extended_precision(last_rung):
    phases, tau = last_rung
    assert phases.freqs.size == 64 and phases.pairs.shape[-1] == 4
    assert tau.size == 79584
    sub = tau[::9]
    assert sub.size > 2 * truncated_oracle._PHASE_BLOCK
    want = _extended_phase_sum(phases, sub)
    got = phases._evaluate(sub)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("rung", range(len(truncated_oracle._ORACLE_SCHEDULE)))
def test_mirrored_mode_phases_are_conjugates(rung):
    m_pos, eta = truncated_oracle._ORACLE_SCHEDULE[rung]
    freqs = _rung_model(rung).bath.freqs
    tau = np.linspace(0.0, truncated_oracle._TAU_DECADES / eta, 4001)
    for k in range(m_pos):
        z = np.exp((-1j * freqs[m_pos + k]) * tau)
        assert np.array_equal(np.exp((-1j * freqs[m_pos - 1 - k]) * tau), np.conj(z))


def test_rung_phase_sums_stay_within_block_memory(last_rung):
    phases, tau = last_rung
    tracemalloc.start()
    try:
        F = phases._evaluate(tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= F.nbytes + 2 * 2 ** 20


@pytest.fixture(scope="module")
def first_rung_phases():
    return _rung_phases(_rung_model(0))


@pytest.fixture(scope="module")
def phased_first_rung_phases():
    # the first rung with its amplitudes turned by exp(0.3 i): complex vacuum
    # columns, so complex phase-sum coefficients
    model = _rung_model(0)
    bath = dataclasses.replace(model.bath, amps=model.bath.amps * np.exp(0.3j))
    return _rung_phases(sb.build_model(bath, model.spec, model.trunc))


@settings(max_examples=30, deadline=None)
@given(length=st.integers(truncated_oracle._PHASE_BLOCK - 3,
                          2 * truncated_oracle._PHASE_BLOCK + 3),
       data=st.data())
def test_rung_phase_sums_do_not_depend_on_blocking(first_rung_phases,
                                                   phased_first_rung_phases,
                                                   length, data):
    # pieces of at least two nodes: numpy takes a matrix-vector product for a
    # one-column block, which rounds differently.  A discretize bath has
    # real vacuum columns, and its sums are bitwise blocking-free; complex
    # coefficients round by block width, within 1e-15 of max |F|
    cut = data.draw(st.integers(2, length - 2))
    tau = np.linspace(0.0, 225.0, length)

    def whole_and_pieces(phases):
        return phases._evaluate(tau), np.concatenate(
            [phases._evaluate(tau[:cut]), phases._evaluate(tau[cut:])], axis=1)

    whole, pieces = whole_and_pieces(first_rung_phases)
    assert np.array_equal(whole, pieces)
    whole, pieces = whole_and_pieces(phased_first_rung_phases)
    assert np.abs(whole - pieces).max() <= 1e-15 * np.abs(whole).max()


def test_rung_phases_need_the_discretize_grid(first_rung_phases):
    freqs = first_rung_phases.freqs
    vacua = np.ones((4, freqs.size, 2), dtype=complex)
    skewed = freqs.copy()
    skewed[-1] *= 1.0 + 1e-9
    for bad in (skewed, freqs[1:], np.sort(np.abs(freqs))):
        with pytest.raises(sb.PreconditionError, match="uniform mode grid"):
            truncated_oracle._RungPhases(bad, vacua, RUNG_SET_PAIRS)


def test_default_ladder_takes_one_quadrature_per_rung(monkeypatch):
    calls, node_sets, phase_sums = [], [], []
    integrate = truncated_oracle.integrate_refining
    panel_nodes = quadrature.panel_nodes
    evaluate = truncated_oracle._RungPhases._evaluate
    monkeypatch.setattr(truncated_oracle._RungPhases, "_evaluate",
                        lambda self, tau: phase_sums.append(tau.size)
                        or evaluate(self, tau))
    monkeypatch.setattr(truncated_oracle, "integrate_refining",
                        lambda *args, **kwargs: calls.append(1)
                        or integrate(*args, **kwargs))
    monkeypatch.setattr(quadrature, "panel_nodes",
                        lambda *args, **kwargs: node_sets.append(1)
                        or panel_nodes(*args, **kwargs))
    sb.run_oracle_schedule()
    # three rungs, each an initial pass and one doubling
    assert len(calls) == len(truncated_oracle._ORACLE_SCHEDULE) == 3
    assert len(node_sets) == 6
    # the phase sums once per node set, for all 8 pairings
    assert len(phase_sums) == len(set(phase_sums)) == 6


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
        model.L
    with pytest.raises(sb.ConfigurationError):
        sb.kms_vector(model)
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


@pytest.mark.parametrize("n_max", [2, 3])
def test_kms_matches_dense_eigh_reference(n_max):
    trunc = dataclasses.replace(TRUNC, n_max=n_max)
    model = _build(trunc=trunc)
    psi, res = sb.kms_vector(model)

    g = 0.25 * SPEC.beta * SPEC.eps
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = np.exp(-g - abs(g))
    psi0[3 * model.bath_dim] = np.exp(g - abs(g))
    psi0 /= np.linalg.norm(psi0)
    w, Q = eigh(np.diag(model.L0).astype(complex) - 0.5 * SPEC.delta * model.cal_V)
    ref = Q @ (np.exp(-0.5 * SPEC.beta * (w - w.min())) * (Q.conj().T @ psi0))
    ref /= np.linalg.norm(ref)
    ref_res = np.linalg.norm(model.cal_L @ ref)

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
