"""Tests for form factors, J(omega), glueing, and the regularity check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import spinbath as sb
from spinbath.spectral_density import GridSpec, default_grid, thermal_factor

TWO_PI_SQ = 2.0 * np.pi ** 2


# --- eval_J -----------------------------------------------------------------

def test_eval_j_zero_frequency():
    assert sb.eval_J(sb.power_exp(0.5, "gaussian"), 0.0) == 0.0
    assert sb.eval_J(sb.power_exp(-0.5, "exponential"), 0.0) == 0.0


@pytest.mark.parametrize("omega", [0.1, 0.5, 1.0, 2.0])
def test_eval_j_gaussian_closed_form(omega):
    h = sb.power_exp(0.5, "gaussian")
    expected = TWO_PI_SQ * omega ** 3 * np.exp(-2.0 * omega ** 2)
    assert sb.eval_J(h, omega) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("omega", [0.1, 0.5, 1.0, 2.0])
def test_eval_j_exponential_closed_form(omega):
    h = sb.power_exp(1.0, "exponential")
    expected = TWO_PI_SQ * omega ** 4 * np.exp(-2.0 * omega)
    assert sb.eval_J(h, omega) == pytest.approx(expected, rel=1e-14)


def test_eval_j_matches_direct_form_factor_square():
    h = sb.power_exp(3.5, "exponential")
    omega = np.linspace(0.05, 5.0, 40)
    assert np.allclose(sb.eval_J(h, omega), TWO_PI_SQ * omega ** 2 * h(omega) ** 2)


def test_eval_j_rejects_negative_omega():
    with pytest.raises(sb.DomainError):
        sb.eval_J(sb.power_exp(1.0), -0.1)


def test_eval_j_tabulated():
    grid = np.linspace(0.0, 3.0, 31)
    h = sb.tabulated(grid, np.exp(-grid))
    assert sb.eval_J(h, 1.0) == pytest.approx(TWO_PI_SQ * np.exp(-2.0), rel=1e-12)
    assert sb.eval_J(h, 10.0) == 0.0


def test_form_factor_validation():
    with pytest.raises(sb.DomainError):
        sb.power_exp(-0.6)
    with pytest.raises(sb.DomainError):
        sb.power_exp(1.0, "lorentzian")
    with pytest.raises(sb.DomainError):
        sb.tabulated([0.0, 0.5, 0.4], [1.0, 1.0, 1.0])


# --- glueing ----------------------------------------------------------------

FORM_FACTORS = [
    sb.power_exp(1.0, "exponential"),
    sb.power_exp(0.5, "gaussian"),
    sb.power_exp(3.5, "exponential"),
]


@pytest.mark.parametrize("h", FORM_FACTORS)
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_glue_sign_relation(h, beta):
    g = sb.glue(h, beta, default_grid(h, beta))
    assert g.sign_relation_residual() < 1e-12


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(min_value=0.05, max_value=50.0))
def test_glue_sign_relation_random_beta(beta):
    g = sb.glue(sb.power_exp(1.0), beta, GridSpec(u_max=20.0, n=512))
    assert g.sign_relation_residual() < 1e-12


def test_glue_zero_function():
    g = sb.glue(lambda u: np.zeros_like(u), 1.0, GridSpec(u_max=5.0, n=64))
    assert np.all(g.values == 0.0)
    assert g.norm_sq() == 0.0


@pytest.mark.parametrize("h", FORM_FACTORS)
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_glue_norm_identity(h, beta):
    g = sb.glue(h, beta, default_grid(h, beta))
    oracle = quad(
        lambda u: 4.0 * np.pi * u ** 2 * h(u) ** 2 / np.tanh(beta * u / 2.0),
        0.0, np.inf, limit=500)[0]
    assert g.norm_sq() == pytest.approx(oracle, rel=1e-6)


def test_glue_symplectic_form_preserved():
    h1 = sb.power_exp(1.0, "exponential")
    h2 = sb.power_exp(0.5, "gaussian")
    beta = 1.3

    def f1(u):
        return 1j * h1(u)

    g1 = sb.glue(f1, beta, default_grid(h1, beta))
    g2 = sb.glue(h2, beta, g1.grid_spec)
    oracle = quad(lambda u: 4.0 * np.pi * u ** 2
                  * np.imag(np.conj(f1(u)) * h2(u)), 0.0, np.inf, limit=500)[0]
    assert np.imag(g1.inner(g2)) == pytest.approx(oracle, rel=1e-6)


def test_glue_rejects_bad_beta():
    with pytest.raises(sb.DomainError):
        sb.glue(sb.power_exp(1.0), 0.0, GridSpec(u_max=1.0, n=16))
    with pytest.raises(sb.DomainError):
        sb.glue(sb.power_exp(1.0), -1.0, GridSpec(u_max=1.0, n=16))


def test_glue_reports_divergent_samples():
    with pytest.raises(sb.EvaluationError):
        sb.glue(lambda u: np.full_like(u, np.inf), 1.0, GridSpec(u_max=1.0, n=16))


def test_thermal_factor_series_matches_direct():
    beta = 2.0
    u = np.array([1e-6, 1e-5, 5e-5, 1e-3, 0.1, -1e-6, -1e-3, -0.1])
    direct = u / (1.0 - np.exp(-beta * u))
    assert np.allclose(thermal_factor(u, beta), direct, rtol=1e-12)


def test_thermal_factor_extreme_beta_no_overflow():
    out = thermal_factor(np.array([-5.0, 5.0]), 1e6)
    assert np.isfinite(out).all()
    assert out[1] == pytest.approx(5.0)
    assert out[0] == pytest.approx(0.0, abs=1e-300)


# --- coupling function ------------------------------------------------------

def test_coupling_function_zero_q0():
    spec = sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=0.0, h=sb.power_exp(3.5))
    g = sb.coupling_function(spec)
    assert np.all(g.values == 0.0)


@pytest.mark.parametrize("q0", [1.0, 0.0])
def test_coupling_glues_on_the_form_factors_default_grid(q0):
    # cutoff scale 4 at beta 2: u_max = 40 / beta * 4 = 80, whatever q0
    h = sb.power_exp(0.5, "exponential", scale=4.0)
    spec = sb.BathSpec(beta=2.0, eps=0.5, delta=0.1, q0=q0, h=h)
    g = sb.coupling_function(spec)
    assert g.grid_spec == default_grid(h, spec.beta)
    assert g.grid_spec.u_max == 80.0


def test_coupling_function_frozen_value():
    # grid chosen so u = 1 is an exact sample: step 0.4, u = (j + 1/2) 0.4
    spec = sb.BathSpec(beta=1.0, eps=0.0, delta=0.0, q0=1.0, h=sb.power_exp(3.5))
    g = sb.coupling_function(spec, GridSpec(u_max=10.0, n=50))
    idx = int(np.argmin(np.abs(g.grid - 1.0)))
    assert g.grid[idx] == pytest.approx(1.0, abs=1e-12)
    expected = -0.5j * np.sqrt(1.0 / (1.0 - np.exp(-1.0))) * np.exp(-1.0)
    assert g.values[idx] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(q0=st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False))
def test_coupling_function_linear_in_q0(q0):
    h = sb.power_exp(3.5)
    grid = GridSpec(u_max=8.0, n=128)
    base = sb.coupling_function(
        sb.BathSpec(beta=1.0, eps=0.0, delta=0.0, q0=q0, h=h), grid)
    doubled = sb.coupling_function(
        sb.BathSpec(beta=1.0, eps=0.0, delta=0.0, q0=2.0 * q0, h=h), grid)
    assert np.allclose(doubled.values, 2.0 * base.values, rtol=0.0, atol=1e-14)


def test_coupling_function_infrared_rejection():
    spec = sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=1.0,
                       h=sb.power_exp(-0.5, "exponential"))
    with pytest.raises(sb.InfraredError) as exc:
        sb.coupling_function(spec)
    assert exc.value.exponent == pytest.approx(1.0, abs=0.05)


# --- infrared exponent ------------------------------------------------------

def test_infrared_exponents():
    assert sb.infrared_exponent(sb.power_exp(1.0, "exponential")) == pytest.approx(4.0, abs=1e-2)
    assert sb.infrared_exponent(sb.power_exp(0.5, "gaussian")) == pytest.approx(3.0, abs=1e-2)
    grid = np.linspace(0.0, 2.0, 21)
    assert sb.infrared_exponent(sb.tabulated(grid, np.ones_like(grid))) == pytest.approx(2.0, abs=1e-2)


def test_a_tabulated_form_factor_keeps_its_own_read_only_arrays():
    # the form factor derives its key, infrared exponent and support bound
    # from copies: mutating the caller's arrays afterwards moves none of them
    grid = np.linspace(0.0, 3.0, 31)
    values = grid * np.exp(-grid)
    h = sb.tabulated(grid, values)
    key, exponent, bound = h.content_key(), h.ir_exponent, h.omega_max
    grid *= 2.0
    values[1:4] = 5.0
    assert (h.content_key(), h.ir_exponent, h.omega_max) == (key, exponent, bound)
    assert h.ir_exponent == sb.infrared_exponent(sb.tabulated(h.grid, h.values))
    for array in (h.grid, h.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_infrared_exponent_vanishing_sentinel():
    grid = np.linspace(0.0, 2.0, 21)
    values = np.where(grid > 1.0, 1.0, 0.0)
    assert sb.infrared_exponent(sb.tabulated(grid, values)) == np.inf


# --- regularity norm and Condition A ----------------------------------------

def test_regularity_norm_zero():
    g = sb.glue(lambda u: np.zeros_like(u), 1.0, GridSpec(u_max=5.0, n=256))
    value, converged = sb.regularity_norm(g, 2.2)
    assert value == 0.0
    assert converged


def _glued_ih_over_u(p, beta=1.0, cutoff="exponential"):
    h = sb.power_exp(p, cutoff)
    return sb.glue(lambda u: 1j * h(u) / u, beta, default_grid(h, beta))


def test_regularity_norm_admissible_converges():
    g = _glued_ih_over_u(3.5)
    value, converged = sb.regularity_norm(g, 2.2)
    assert np.isfinite(value) and value > 0
    assert converged


def test_regularity_norm_detects_divergence_at_high_alpha():
    g = _glued_ih_over_u(3.5)
    value, converged = sb.regularity_norm(g, 5.0)
    assert not converged


def test_regularity_norm_monotone_in_alpha():
    g = _glued_ih_over_u(3.5)
    values = [sb.regularity_norm(g, a)[0] for a in (0.0, 0.5, 1.0, 2.2, 3.0)]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-9 * np.abs(values[:-1]))


@pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
def test_regularity_refuses_bad_alpha(alpha):
    with pytest.raises(sb.DomainError, match="alpha"):
        sb.regularity_norm(_glued_ih_over_u(3.5), alpha)
    with pytest.raises(sb.DomainError, match="alpha"):
        sb.check_condition_A(_spec_with(sb.power_exp(3.5, "exponential")), alpha)


def _spec_with(h):
    return sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=1.0, h=h)


def test_condition_a_admissible_examples_pass():
    verdict, report = sb.check_condition_A(_spec_with(sb.power_exp(3.5, "exponential")), 2.2)
    assert verdict == "pass"
    verdict, report = sb.check_condition_A(_spec_with(sb.power_exp(0.5, "gaussian")), 2.2)
    assert verdict == "pass"


def test_condition_a_zero_form_factor_passes():
    grid = np.linspace(0.0, 2.0, 11)
    h = sb.tabulated(grid, np.zeros_like(grid))
    verdict, _ = sb.check_condition_A(_spec_with(h), 2.2)
    assert verdict == "pass"


def test_condition_a_rough_form_factor_fails():
    # p = 0.7 leaves a |u|^0.2 kink at u = 0, far below alpha = 2.2
    verdict, report = sb.check_condition_A(_spec_with(sb.power_exp(0.7, "exponential")), 2.2)
    assert verdict == "fail"
    assert report["values"][-1] > report["values"][0]


@pytest.mark.parametrize("h, alpha", [(sb.power_exp(3.5, "exponential"), 2.2),
                                      (sb.power_exp(0.5, "gaussian"), 3.0)])
def test_condition_a_coarse_value_is_the_regularity_norm(h, alpha):
    spec = _spec_with(h)
    _, report = sb.check_condition_A(spec, alpha)
    g = sb.glue(lambda u: 1j * h(u) / u, spec.beta, default_grid(h, spec.beta))
    assert report["values"][0] == sb.regularity_norm(g, alpha)[0]


def test_condition_a_boundary_near_p_for_u35():
    """Bisect the pass/fail boundary for h = u^3.5 e^-u; it sits near alpha = p."""
    spec = _spec_with(sb.power_exp(3.5, "exponential"))
    lo, hi = 2.2, 5.0
    for _ in range(4):
        mid = 0.5 * (lo + hi)
        verdict, _ = sb.check_condition_A(spec, mid)
        if verdict == "pass":
            lo = mid
        else:
            hi = mid
    assert 3.0 <= hi and lo <= 4.1


def test_default_grid_scales():
    g = default_grid(sb.power_exp(1.0, "gaussian", scale=3.0), 2.0)
    assert g.u_max == pytest.approx(60.0)
    g = default_grid(sb.power_exp(1.0), 4.0)
    assert g.u_max == pytest.approx(10.0)


def test_condition_a_rungs_agree_where_the_step_is_no_binary_fraction():
    # at beta 1.5 the step 80 / (1.5 n) is no binary fraction; the rungs of
    # this converged bath agree to rounding only if each reads its exact step
    # (a step differenced from grid points puts up to 4.6e-12 between them)
    spec = sb.BathSpec(beta=1.5, eps=0.5, delta=0.1, q0=1.0,
                       h=sb.power_exp(0.5, "gaussian"))
    verdict, report = sb.check_condition_A(spec, 2.2)
    values = np.asarray(report["values"])
    assert verdict == "pass"
    assert np.max(np.abs(values - values[0])) <= 1e-15 * values[0]
