import numpy as np
import pytest

from spinbath import (
    BathSpec,
    ConfigurationError,
    DomainError,
    PreconditionError,
    RateReport,
    constants_c1_c2,
    constants_report,
    coupling_function,
    default_eps_hat,
    delta0_threshold,
    eigenvector_bounds,
    power_exp,
)

SPEC = BathSpec(beta=1.0, eps=0.5, delta=0.2, q0=1.0, h=power_exp(0.5, "gaussian"))
ALPHA = 2.2


@pytest.fixture(scope="module")
def f_beta():
    return coupling_function(SPEC)


def test_zero_coupling_gives_zero_constants():
    spec = BathSpec(beta=1.0, eps=0.5, delta=0.2, q0=0.0, h=SPEC.h)
    c1, c2 = constants_c1_c2(coupling_function(spec), ALPHA)
    assert c1 == 0.0 and c2 == 0.0


def test_c2_ratio_is_exact(f_beta):
    c1, c2 = constants_c1_c2(f_beta, ALPHA)
    assert c1 > 0.0
    assert c2 == c1 * (1.0 + f_beta.norm()) / np.sqrt(2.0)


def test_c1_scales_linearly_with_q0():
    base = constants_c1_c2(coupling_function(SPEC), ALPHA)[0]
    doubled = BathSpec(beta=SPEC.beta, eps=SPEC.eps, delta=SPEC.delta,
                       q0=2.0 * SPEC.q0, h=SPEC.h)
    assert constants_c1_c2(coupling_function(doubled), ALPHA)[0] == pytest.approx(
        2.0 * base, rel=1e-12)


@pytest.mark.parametrize("eps_hat", [0.0, -0.1, 0.75, 1.0])
def test_eps_hat_outside_open_interval_rejected(f_beta, eps_hat):
    with pytest.raises(DomainError):
        constants_c1_c2(f_beta, ALPHA, eps_hat)


def test_default_eps_hat_is_interval_midpoint():
    assert default_eps_hat(2.5) == 0.5


def test_unconverged_norm_raises():
    # exponential cutoff leaves a |u| kink at zero, so order 1.85 diverges
    spec = BathSpec(beta=1.0, eps=0.5, delta=0.2, q0=1.0,
                    h=power_exp(1.0, "exponential"))
    with pytest.raises(PreconditionError):
        constants_c1_c2(coupling_function(spec), ALPHA)


def test_eigenvector_bounds_formulas(f_beta):
    consts = constants_c1_c2(f_beta, ALPHA)
    b = eigenvector_bounds(SPEC, consts, xi=0.25)
    c1, c2 = consts
    d = SPEC.delta
    assert b.n_bound == pytest.approx((d**2 * c1**2 / (4 * 0.25) + d * c2) / 0.75)
    assert b.pbar_bound == pytest.approx(10.0 * c2 * d)
    assert b.q_bound == pytest.approx(2.0 * d / SPEC.eps)
    if b.pbar_bound < 1.0:
        assert b.dist_bound == pytest.approx(
            (2.0 / np.sqrt(3.0)) * d / np.sqrt(1.0 - b.pbar_bound**2))


def test_bounds_vanish_at_zero_delta(f_beta):
    consts = constants_c1_c2(f_beta, ALPHA)
    spec = BathSpec(beta=1.0, eps=0.5, delta=0.0, q0=1.0, h=SPEC.h)
    b = eigenvector_bounds(spec, consts)
    assert (b.n_bound, b.pbar_bound, b.dist_bound, b.q_bound) == (0, 0, 0, 0)


def test_sentinels_for_large_pbar_and_zero_eps():
    spec = BathSpec(beta=1.0, eps=0.0, delta=1.0, q0=1.0, h=SPEC.h)
    b = eigenvector_bounds(spec, (1.0, 2.0), xi=0.5)
    assert b.pbar_bound >= 1.0
    assert np.isinf(b.dist_bound)
    assert np.isinf(b.q_bound)


def test_xi_minimizer_matches_dense_scan(f_beta):
    consts = constants_c1_c2(f_beta, ALPHA)
    b = eigenvector_bounds(SPEC, consts)
    xs = np.linspace(1e-4, 1.0 - 1e-4, 20001)
    c1, c2 = consts
    d = SPEC.delta
    scan = (d**2 * c1**2 / (4 * xs) + d * c2) / (1.0 - xs)
    assert b.n_bound <= scan.min() * (1.0 + 1e-8)
    assert abs(b.xi_star - xs[scan.argmin()]) < 1e-3


# a >= 1e-3 b keeps golden's bracket valid: f(0.5) < f(1e-9)
@pytest.mark.parametrize("a_term", [1e-3, 0.1, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("b_term", [0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3])
def test_closed_form_xi_matches_golden_section(a_term, b_term):
    from scipy.optimize import minimize_scalar

    # delta 1, c1 = 2 sqrt(a), c2 = b give the terms a and b of the bound
    spec = BathSpec(beta=1.0, eps=0.5, delta=1.0, q0=1.0, h=SPEC.h)
    c1, c2 = 2.0 * np.sqrt(a_term), b_term
    b = eigenvector_bounds(spec, (c1, c2))
    a, bb = c1 ** 2 / 4.0, c2

    def n_bound(xi):
        return (a / xi + bb) / (1.0 - xi)

    res = minimize_scalar(n_bound, bracket=(1e-9, 0.5, 1.0 - 1e-9),
                          method="golden", options={"xtol": 1e-12})
    assert b.n_bound == pytest.approx(n_bound(res.x), rel=1e-12, abs=0.0)
    assert b.n_bound == n_bound(b.xi_star)
    assert bb * b.xi_star ** 2 + 2.0 * a * b.xi_star - a == pytest.approx(
        0.0, abs=1e-15 * max(a, bb))
    if b_term == 0.0:
        assert b.xi_star == 0.5


def test_particle_bound_without_a_term_is_its_infimum():
    # a = 0: (a/xi + b)/(1 - xi) = b/(1 - xi) decreases to b as xi -> 0
    spec = BathSpec(beta=1.0, eps=0.5, delta=0.2, q0=1.0, h=SPEC.h)
    b = eigenvector_bounds(spec, (0.0, 3.0))
    assert (b.xi_star, b.n_bound) == (0.0, 0.2 * 3.0)
    assert np.isfinite(b.pbar_bound)


def test_bounds_monotone_in_delta(f_beta):
    consts = constants_c1_c2(f_beta, ALPHA)
    rows = []
    for d in (0.0, 0.1, 0.5, 1.0, 2.0):
        spec = BathSpec(beta=1.0, eps=0.5, delta=d, q0=1.0, h=SPEC.h)
        b = eigenvector_bounds(spec, consts)
        rows.append((b.n_bound, b.pbar_bound, b.dist_bound, b.q_bound))
    arr = np.array(rows)
    for a, b in zip(arr[:-1].ravel(), arr[1:].ravel()):
        assert b >= a or (np.isinf(a) and np.isinf(b))


DELTA0_SPEC = BathSpec(beta=1.0, eps=2.0, delta=0.1, q0=1.0, h=SPEC.h)
DELTA0_INPUTS = {"c_kms": 1.0, "c3": 0.5, "c5": 3.0, "tau0": 0.25}


def test_delta0_bracket_four_gives_sixteenth():
    # bracket = 1 + 0.25 + 1 + 2*(1/4)*(1 + 1 + 1.5) = 4, all dyadic
    assert delta0_threshold(DELTA0_SPEC, (1.0, 1.0), DELTA0_INPUTS) == 1.0 / 16.0


def test_delta0_capped_at_one():
    spec = BathSpec(beta=1.0, eps=100.0, delta=0.1, q0=1.0, h=SPEC.h)
    inputs = {"c_kms": 0.1, "c3": 0.01, "c5": 0.01, "tau0": 0.01}
    assert delta0_threshold(spec, (1.0, 1.0), inputs) == 1.0


@pytest.mark.parametrize("key", ["c_kms", "c3", "c5", "tau0"])
def test_delta0_decreasing_in_each_input(key):
    base = delta0_threshold(DELTA0_SPEC, (1.0, 1.0), DELTA0_INPUTS)
    bumped = dict(DELTA0_INPUTS)
    bumped[key] = 1.5 * bumped[key]
    assert delta0_threshold(DELTA0_SPEC, (1.0, 1.0), bumped) < base


@pytest.mark.parametrize("key", ["c_kms", "c3", "c5", "tau0"])
def test_delta0_missing_input_rejected(key):
    inputs = dict(DELTA0_INPUTS)
    inputs[key] = None
    with pytest.raises(ConfigurationError):
        delta0_threshold(DELTA0_SPEC, (1.0, 1.0), inputs)


def test_delta0_rejects_nonpositive_input_and_zero_eps():
    bad = dict(DELTA0_INPUTS, c5=-1.0)
    with pytest.raises(DomainError):
        delta0_threshold(DELTA0_SPEC, (1.0, 1.0), bad)
    spec = BathSpec(beta=1.0, eps=0.0, delta=0.1, q0=1.0, h=SPEC.h)
    with pytest.raises(DomainError):
        delta0_threshold(spec, (1.0, 1.0), DELTA0_INPUTS)


def test_report_flags_heuristic_c3():
    report = constants_report(SPEC, ALPHA, c_kms=1.0, c5=1.0, tau0=2.0,
                              allow_heuristics=True)
    assert report.inputs_used["c3"]["provenance"] == "heuristic_default"
    assert report.inputs_used["c3"]["value"] == pytest.approx(10.0 * report.c2)
    assert report.inputs_used["c_kms"]["provenance"] == "user"
    assert 0.0 < report.delta0 <= 1.0


def test_report_requires_optin_for_heuristic():
    with pytest.raises(ConfigurationError):
        constants_report(SPEC, ALPHA, c_kms=1.0, c5=1.0, tau0=2.0)


def test_report_requires_user_only_inputs():
    with pytest.raises(ConfigurationError):
        constants_report(SPEC, ALPHA, c5=1.0, tau0=2.0, allow_heuristics=True)


def test_report_computes_tau0_when_absent():
    rate = RateReport(tau_inv=0.012, tau0_inv=0.3, p_inf=-0.24, err=1e-9,
                      damping_ok=True)
    report = constants_report(SPEC, ALPHA, c_kms=1.0, c3=0.5, c5=1.0,
                              rate=rate)
    assert report.inputs_used["tau0"] == {"value": 1.0 / 0.3,
                                          "provenance": "computed"}
    given = constants_report(SPEC, ALPHA, c_kms=1.0, c3=0.5, c5=1.0,
                             tau0=1.0 / 0.3)
    assert report.delta0 == given.delta0


def test_report_without_tau0_or_rate_rejected():
    with pytest.raises(ConfigurationError, match="tau0"):
        constants_report(SPEC, ALPHA, c_kms=1.0, c3=0.5, c5=1.0)


def test_report_deterministic():
    kwargs = dict(c_kms=1.0, c3=0.5, c5=1.0, tau0=2.0, xi=0.3)
    a = constants_report(SPEC, ALPHA, **kwargs)
    b = constants_report(SPEC, ALPHA, **kwargs)
    for field in ("c1", "c2", "eps_hat", "n_bound", "pbar_bound",
                  "dist_bound", "q_bound", "delta0"):
        assert getattr(a, field) == getattr(b, field)
    assert a.inputs_used == b.inputs_used
