"""Tests for rates, P(t), and the level-shift matrix diagnostics."""

import json

import numpy as np
import pytest
import yaml
from hypothesis import given, reject, settings, strategies as st
from scipy.interpolate import CubicSpline

import spinbath as sb
from spinbath import bath_correlations, relaxation
from spinbath.cli import main
from spinbath.quadrature import integrate_refining

OHMIC = sb.power_exp(-0.5, "exponential")
GAUSS_OHMIC = sb.power_exp(-0.5, "gaussian")
SUPEROHMIC = sb.power_exp(0.5, "gaussian")


def _spec(beta=1.0, eps=0.5, delta=0.2, q0=1.0, h=OHMIC):
    return sb.BathSpec(beta=beta, eps=eps, delta=delta, q0=q0, h=h)


@pytest.fixture(scope="module")
def ohmic_setup():
    spec = _spec()
    T = sb.default_time_horizon(spec)
    return spec, sb.tabulate_kernels(spec, T, 400, tol=1e-9)


@pytest.fixture(scope="module")
def saturated_setup():
    spec = _spec(beta=2.0, h=SUPEROHMIC)
    T = sb.default_time_horizon(spec)
    return spec, sb.tabulate_kernels(spec, T, 400, tol=1e-9)


# --- p_infinity and p_of_t ----------------------------------------------------

def test_p_infinity_closed_form():
    assert sb.p_infinity(_spec(eps=0.0)) == 0.0
    assert sb.p_infinity(_spec(beta=2.0, eps=1.0)) == pytest.approx(-np.tanh(1.0))
    assert sb.p_infinity(_spec(eps=1e6)) == pytest.approx(-1.0)


def test_p_of_t_law(ohmic_setup):
    spec, table = ohmic_setup
    rate = sb.gamma_rate(spec, table)
    assert sb.p_of_t(rate, 0.0) == 1.0
    assert sb.p_of_t(rate, 1e9) == pytest.approx(rate.p_inf)
    tau = 1.0 / rate.tau_inv
    expected = rate.p_inf + (1.0 - rate.p_inf) / np.e
    assert sb.p_of_t(rate, tau) == pytest.approx(expected, rel=1e-12)
    ts = np.linspace(0.0, 5.0 * tau, 40)
    ps = np.array([sb.p_of_t(rate, float(t)) for t in ts])
    assert np.all(np.diff(ps) <= 0.0)
    assert np.all(ps >= min(1.0, rate.p_inf) - 1e-12)
    assert np.all(ps <= max(1.0, rate.p_inf) + 1e-12)


def test_p_of_t_delta_zero_is_constant(ohmic_setup):
    _, table = ohmic_setup
    spec = _spec(delta=0.0)
    rate = sb.gamma_rate(spec, table)
    assert rate.tau_inv == 0.0
    assert rate.tau0_inv > 0.0
    assert sb.p_of_t(rate, 57.0) == 1.0


def test_p_of_t_rejects_negative_time(ohmic_setup):
    spec, table = ohmic_setup
    rate = sb.gamma_rate(spec, table)
    with pytest.raises(sb.DomainError):
        sb.p_of_t(rate, -1.0)


# --- gamma_rate -----------------------------------------------------------------

def test_rate_delta_squared_exact(ohmic_setup):
    spec, table = ohmic_setup
    rate = sb.gamma_rate(spec, table)
    assert rate.tau_inv == spec.delta ** 2 * rate.tau0_inv
    assert rate.damping_ok


def test_rate_positive_at_zero_eps():
    spec = _spec(eps=0.0, q0=1.0, beta=1.0)
    T = sb.default_time_horizon(spec)
    table = sb.tabulate_kernels(spec, T, 300, tol=1e-9)
    reference = sb.tabulate_kernels(spec, T, 900, tol=1e-10)
    r = sb.gamma_rate(spec, table)
    r_ref = sb.gamma_rate(spec, reference, tol=1e-10)
    assert r.tau0_inv > 0.0
    assert r.tau0_inv == pytest.approx(r_ref.tau0_inv, rel=1e-5)


def test_rate_divergence_without_coupling(ohmic_setup):
    _, table = ohmic_setup
    with pytest.raises(sb.DivergentIntegralError):
        sb.gamma_rate(_spec(q0=0.0), table)


def test_rate_divergence_saturated_at_zero_eps():
    spec = _spec(beta=2.0, eps=0.0, h=SUPEROHMIC)
    table = sb.tabulate_kernels(spec, 16.0, 300, tol=1e-9)
    with pytest.raises(sb.DivergentIntegralError):
        sb.gamma_rate(spec, table)


def test_saturated_envelope_flags_truncation(saturated_setup):
    spec, table = saturated_setup
    rate = sb.gamma_rate(spec, table)
    assert not rate.damping_ok
    assert np.isfinite(rate.tau0_inv)


# --- level-shift matrix ---------------------------------------------------------

def test_entries_purely_imaginary(ohmic_setup):
    spec, table = ohmic_setup
    x_plus, x_minus, z, err = sb.lso_entries(spec, table)
    for w in (x_plus, x_minus, z):
        assert abs(w.real) <= 1e-10 * abs(w)
    assert err < 1e-6


def test_eps_reflection_symmetry(ohmic_setup):
    spec, table = ohmic_setup
    flipped = _spec(eps=-spec.eps)
    a = sb.lso_entries(spec, table)
    b = sb.lso_entries(flipped, table)
    assert b[0] == pytest.approx(a[1], rel=1e-9)
    assert b[1] == pytest.approx(a[0], rel=1e-9)
    assert b[2] == pytest.approx(a[2], rel=1e-9)


def test_stronger_coupling_damps_entries():
    mags = []
    for q0 in (0.5, 1.0, 2.0):
        spec = _spec(q0=q0)
        T = sb.default_time_horizon(spec)
        table = sb.tabulate_kernels(spec, T, 300, tol=1e-9)
        x_plus, _, z, _ = sb.lso_entries(spec, table)
        mags.append((abs(x_plus), abs(z)))
    assert mags[0][0] > mags[1][0] > mags[2][0]
    assert mags[0][1] > mags[1][1] > mags[2][1]


@pytest.mark.parametrize("beta,eps,q0,h", [
    (0.5, 0.25, 1.0, OHMIC),
    (1.0, 1.0, 0.5, GAUSS_OHMIC),
    (2.0, 0.5, 2.0, OHMIC),
    (2.0, 0.5, 1.0, SUPEROHMIC),
])
def test_matrix_diagnostics_spot_checks(beta, eps, q0, h):
    spec = _spec(beta=beta, eps=eps, q0=q0, h=h)
    T = sb.default_time_horizon(spec)
    table = sb.tabulate_kernels(spec, T, 400, tol=1e-9)
    lso = sb.lso_matrix(spec, table)
    assert lso.db_residual < 1e-5
    assert lso.trace_gap < 1e-5
    norm = np.linalg.norm(lso.matrix, 2)
    assert lso.kernel_residual < 1e-5 * norm
    ev = np.linalg.eigvals(lso.matrix)
    small = min(abs(ev))
    big = ev[np.argmax(np.abs(ev))]
    tau0_inv = sb.gamma_rate(spec, table).tau0_inv
    assert small < 1e-5 * norm
    assert big == pytest.approx(1j * tau0_inv, abs=1e-5 * max(norm, 1e-30))


def test_matrix_shape_and_symmetry(ohmic_setup):
    spec, table = ohmic_setup
    lso = sb.lso_matrix(spec, table)
    assert lso.matrix.shape == (2, 2)
    assert lso.matrix[0, 1] == lso.matrix[1, 0] == lso.z
    assert lso.matrix[0, 0] == lso.x_plus
    assert lso.matrix[1, 1] == lso.x_minus


def test_abel_tail_against_eta_regularization(saturated_setup):
    # reference: eta-damped integral with closed-form tail beyond t_max,
    # Richardson-extrapolated in eta; must agree with the Abel-tail route
    spec, table = saturated_setup
    a = spec.q0 ** 2 / np.pi
    e_inf = np.exp(-a * table.c2_inf)
    eps = spec.eps
    from scipy.interpolate import CubicSpline
    T = float(table.t_grid[-1])
    s1 = CubicSpline(table.t_grid, table.q1)
    s2 = CubicSpline(table.t_grid, table.q2)
    tt = np.linspace(0.0, T, 200001)
    f = np.cos(eps * tt - a * s1(tt)) * np.exp(-a * s2(tt))

    def reference(eta):
        head = np.trapezoid(f * np.exp(-eta * tt), tt)
        tail = (np.exp((1j * eps - eta) * T) / (eta - 1j * eps)).real * e_inf
        return head + tail

    ref = 2.0 * reference(0.005) - reference(0.01)
    x_plus = sb.lso_entries(spec, table)[0]
    assert 2.0 * x_plus.imag == pytest.approx(ref, abs=2e-4)


# --- Fermi-Golden-Rule rate and report ------------------------------------------

def test_gamma_rate_resolvable_on_ohmic_bath():
    spec = _spec(beta=1.0, eps=1.0, q0=1.0)
    T = sb.default_time_horizon(spec)
    table = sb.tabulate_kernels(spec, T, 300, tol=1e-9)
    rate = sb.gamma_rate(spec, table)
    assert rate.tau0_inv > 10.0 * rate.err
    assert rate.tau0_inv > 0.0


def test_gamma_rate_tau0_independent_of_delta_and_q0_sign(ohmic_setup):
    _, table = ohmic_setup
    a = sb.gamma_rate(_spec(delta=0.1), table)
    b = sb.gamma_rate(_spec(delta=0.5), table)
    assert (a.tau0_inv, a.err) == (b.tau0_inv, b.err)
    c = sb.gamma_rate(_spec(q0=-1.0), table)
    assert c.tau0_inv == a.tau0_inv


def test_report_schema(ohmic_setup):
    spec, table = ohmic_setup
    rate = sb.gamma_rate(spec, table)
    lso = sb.lso_matrix(spec, table)
    report = sb.report_dict(spec, rate, lso)
    assert set(report) == {"params", "tau_inv", "tau0_inv", "p_inf", "lso",
                           "db_residual", "trace_gap", "kernel_residual",
                           "err", "damping_ok"}
    assert set(report["lso"]) == {"x_plus", "x_minus", "z"}
    assert report["lso"]["z"] == [lso.z.real, lso.z.imag]
    json.dumps(report)


def test_default_time_horizon_decays(ohmic_setup):
    spec, table = ohmic_setup
    a = spec.q0 ** 2 / np.pi
    assert a * table.q2[-1] >= -np.log(1e-12)


# Horizons of the benchmark's baths, as the 64-point probe tables chose them.
# Ohmic p -0.5 grid, (cutoff, beta) -> rows eps 0.25, 0.5, 1 by q0 0.5, 1, 2:
GRID_HORIZONS = {
    ("exponential", 0.5): ((32, 32, 32), (16, 16, 16), (8, 8, 8)),
    ("exponential", 1.0): ((32, 32, 32), (16, 16, 16), (16, 8, 8)),
    ("exponential", 2.0): ((32, 32, 32), (16, 16, 16), (16, 16, 16)),
    ("gaussian", 0.5): ((32, 32, 32), (16, 16, 16), (8, 8, 8)),
    ("gaussian", 1.0): ((32, 32, 32), (16, 16, 16), (8, 8, 8)),
    ("gaussian", 2.0): ((32, 32, 32), (16, 16, 16), (16, 16, 16)),
}


def _pinned_horizons():
    for (cutoff, beta), rows in GRID_HORIZONS.items():
        for eps, row in zip((0.25, 0.5, 1.0), rows):
            for q0, T in zip((0.5, 1.0, 2.0), row):
                yield _spec(beta, eps, 0.2, q0, sb.power_exp(-0.5, cutoff)), T
    for q0 in (0.5, 1.0, 1.5, 2.0):
        yield _spec(1.0, 1.0, 0.1, q0, SUPEROHMIC), 8.0
    oracle = sb.standard_oracle_bath()
    yield oracle, 32.0
    for beta, T in ((1.0, 8.0), (2.0, 16.0)):
        yield sb.BathSpec(beta=beta, eps=1.0, delta=oracle.delta, q0=oracle.q0,
                          h=oracle.h), T


def test_default_time_horizon_is_pinned():
    pinned = list(_pinned_horizons())
    assert len(pinned) == 61
    for spec, T in pinned:
        assert sb.default_time_horizon(spec) == T, spec


def test_default_time_horizon_tabulates_nothing(monkeypatch):
    def tabulated(*args, **kwargs):
        raise AssertionError("the horizon built a kernel table")

    monkeypatch.setattr(bath_correlations, "_time_grid", tabulated)
    assert sb.default_time_horizon(_spec(beta=1.0, eps=1.0, q0=0.5)) == 16.0


def test_default_time_horizon_refuses_what_tabulate_refuses():
    grid = np.linspace(0.0, 3.0, 301)
    values = np.zeros_like(grid)
    values[1:] = grid[1:] ** -0.75 * np.exp(-grid[1:])
    spec = _spec(h=sb.tabulated(grid, values))
    with pytest.raises(sb.InfraredError):
        sb.tabulate_kernels(spec, 5.0, 16)
    with pytest.raises(sb.InfraredError):
        sb.default_time_horizon(spec)
    with pytest.raises(sb.DivergentIntegralError):
        sb.default_time_horizon(_spec(q0=0.0))


def test_rate_and_lso_refuses_an_overflowing_balance_factor(monkeypatch):
    # beta eps / 2 = 1000: exp(1000) of the detailed-balance residual is inf
    spec = _spec(beta=4.0e3)
    table = sb.tabulate_kernels(spec, 10.0, 16, tol=1e-8)
    x_plus, _, z, _ = sb.lso_entries(spec, table)
    assert np.isfinite([x_plus, z]).all()
    assert sb.gamma_rate(spec, table).tau0_inv > 0.0

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the refused command ran its quadrature")

    monkeypatch.setattr(relaxation, "integrate_refining", no_quadrature)
    for call in (sb.rate_and_lso, sb.lso_matrix):
        with pytest.raises(sb.ScalingError,
                           match=r"beta eps / 2 = 1000 exceeds the float "
                                 r"exponent limit 709\.78"):
            call(spec, table)


# --- the not-a-knot spline against scipy's CubicSpline ---------------------------

def _assert_spline_is_scipys(x, y):
    """Coefficients, values and derivative coefficients of every row of y
    bitwise CubicSpline(x, y, axis=1)'s."""
    ref = CubicSpline(x, y, axis=1)
    c = relaxation._not_a_knot(x, y)
    assert c.shape == (len(y), 4, len(x) - 1)
    for k in range(len(y)):
        assert np.array_equal(c[k], ref.c[..., k])
    span = x[-1] - x[0]
    mid = 0.5 * (x[:-1] + x[1:])
    inner = x[0] + span * np.random.default_rng(len(x)).random(257)
    outside = [x[0] - 0.01 * span, np.nextafter(x[0], -np.inf),
               np.nextafter(x[-1], np.inf), x[-1] + 0.01 * span]
    t = np.concatenate([x, mid, inner, outside])
    assert np.array_equal(relaxation._spline_values(x, c, t), ref(t))
    assert np.array_equal(c[:, :-1] * relaxation._DERIVATIVE,
                          np.moveaxis(ref.derivative().c, -1, 0))


@st.composite
def _spline_data(draw):
    # a kernel table has at least 4 rows, and the spline refuses fewer;
    # three splines, as for the three kernel columns
    n = draw(st.integers(4, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        x = bath_correlations._time_grid(draw(st.floats(1e-2, 1e4)), n)
    else:
        x = np.cumsum(rng.uniform(1e-3, 1.0, n)) * draw(st.floats(1e-2, 1e2))
    rows = []
    for _ in range(3):
        if draw(st.booleans()):
            rows.append(np.sin(x / x[-1] * draw(st.floats(0.1, 20.0))) + 0.1 * x)
        else:
            rows.append(rng.standard_normal(n) * draw(st.floats(1e-6, 1e6)))
    return x, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(data=_spline_data())
def test_not_a_knot_spline_is_scipys_bitwise(data):
    _assert_spline_is_scipys(*data)


@pytest.mark.parametrize("n", [4])
def test_not_a_knot_spline_is_scipys_on_short_grids(n):
    x = np.array([0.0, 0.3, 1.1, 2.0])[:n]
    _assert_spline_is_scipys(x, np.array([[1.0, -0.5, 2.0, 0.25]])[:, :n])
    _assert_spline_is_scipys(x * 7.0, np.array([np.exp(-x), np.cos(x), x]))


def test_stacked_kernel_splines_are_the_single_column_splines(ohmic_setup):
    # on a 400-row ohmic table the one system gives each kernel column
    # bitwise the spline of its own one-column system
    _, table = ohmic_setup
    t, columns = table.t_grid, (table.q1, table.q2, table.qz)
    c = relaxation._not_a_knot(t, np.array(columns))
    for k, q in enumerate(columns):
        assert np.array_equal(c[k], CubicSpline(t, q).c)


def test_one_banded_solve_per_level_shift_quadrature(ohmic_setup, monkeypatch):
    spec, table = ohmic_setup
    calls = []
    original = relaxation.solve_banded

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(relaxation, "solve_banded", counting)
    sb.rate_and_lso(spec, table)
    assert calls == [(len(table.t_grid), 3)]


@pytest.mark.parametrize("n", [2, 3])
def test_not_a_knot_spline_refuses_fewer_than_four_knots(n):
    x = np.array([0.0, 0.3, 1.1])[:n]
    with pytest.raises(ValueError, match="at least 4"):
        relaxation._not_a_knot(x, np.exp(-x)[None])


def _raised(build, x, y):
    try:
        build(x, y)
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("x,y", [
    ([], []), ([0.0], [1.0]), ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
    ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]), ([0.0, 1.0], [0.0]),
    ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0]), ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0]),
    ([[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0]),
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, np.nan, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 2.0, 3.0]),
], ids=["empty", "one_point", "repeated_knot", "decreasing", "short_y",
        "nan_x", "inf_y", "two_dim_x", "repeated_knot_4", "nan_x_4",
        "inf_y_4"])
def test_not_a_knot_spline_rejects_what_scipy_rejects(x, y):
    # y is one spline row, in the stacked form
    x, y = np.asarray(x), np.asarray(y, dtype=float)[None]
    expected = _raised(lambda x, y: CubicSpline(x, y, axis=1), x, y)
    assert expected is not None
    assert _raised(relaxation._not_a_knot, x, y) is expected


# --- one quadrature per command -------------------------------------------------

def _scalar_walk_edges(spec, table, a, s1, s2):
    """Reference: the edge walk through scalar PPoly calls of the derivatives."""
    T = float(table.t_grid[-1])
    d1, d2 = s1.derivative(), s2.derivative()
    lo, hi = T / 4000.0, T / 8.0
    edges = [0.0]
    t = 0.0
    while t < T:
        rate = abs(spec.eps) + a * (abs(float(d1(t))) + abs(float(d2(t))))
        width = min(hi, max(lo, 0.25 * np.pi / max(rate, 1.0 / T)))
        t = min(t + width, T)
        edges.append(t)
    return np.asarray(edges)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([-0.5, 0.5]),
       cutoff=st.sampled_from(["exponential", "gaussian"]),
       beta=st.floats(0.5, 4.0), eps=st.floats(0.25, 1.0),
       q0=st.floats(0.5, 2.0), n=st.sampled_from([16, 40, 64]))
def test_oscillation_edges_match_scalar_walk(p, cutoff, beta, eps, q0, n):
    spec = _spec(beta=beta, eps=eps, q0=q0, h=sb.power_exp(p, cutoff))
    table = sb.tabulate_kernels(spec, 8.0 * max(beta, 1.0, 1.0 / eps), n,
                                tol=1e-6)
    a = q0 ** 2 / np.pi
    s1 = CubicSpline(table.t_grid, table.q1)
    s2 = CubicSpline(table.t_grid, table.q2)
    fast = relaxation._oscillation_edges(spec, table, a, np.stack([s1.c, s2.c]))
    assert np.array_equal(fast, _scalar_walk_edges(spec, table, a, s1, s2))


@pytest.mark.parametrize("command", ["rate", "lso"])
def test_command_runs_one_level_shift_quadrature(command, tmp_path, monkeypatch):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "bath": {"beta": 1.0, "eps": 0.5, "delta": 0.2, "q0": 1.0,
                 "h": {"family": "power_exp", "p": -0.5,
                       "cutoff": "exponential"}},
        "kernels": {"n": 200, "tol": 1.0e-8}}))
    calls = []
    original = relaxation.integrate_refining

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(relaxation, "integrate_refining", counting)
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("setup", ["ohmic_setup", "saturated_setup"])
def test_rate_and_lso_share_one_quadrature(setup, request):
    spec, table = request.getfixturevalue(setup)
    rate, lso = sb.rate_and_lso(spec, table)
    assert rate == sb.gamma_rate(spec, table)
    x_plus, x_minus, z, _ = sb.lso_entries(spec, table)
    assert (lso.x_plus, lso.x_minus, lso.z) == (x_plus, x_minus, z)
    tau0_inv = sb.gamma_rate(spec, table).tau0_inv
    gap = float(abs((x_plus + x_minus).imag - tau0_inv) / abs(tau0_inv))
    assert sb.lso_matrix(spec, table).trace_gap == gap


# --- the level-shift rows against the Abel-tail phase -----------------------------

def _phased_integrate_lso(spec, table, tol):
    """Reference: the level-shift quadrature with the Abel-tail phase phi.

    phi = a Q1(inf), with Q1(inf) estimated as (pi/2) mean(J/omega) on the
    lowest frequencies of an ohmic bath (|s - 1| <= 0.05) and 0 otherwise;
    the x(+-eps) rows subtract E_inf cos(eps t -+ phi), the rate row
    E_inf cos(phi) cos(eps t), and x(+-eps) get the tail +-E_inf sin(phi)/eps.
    phi and E_inf are never both nonzero, so the library drops phi.
    Returns (values, err, phi).
    """
    env = relaxation._envelope(spec, table)
    a, e_inf, eps = env.a, env.e_inf, spec.eps
    source = bath_correlations.j_source_from_spec(spec)
    if abs(source.ir_exponent - 1.0) <= 0.05:
        lo = np.geomspace(1e-7, 1e-6, 8) * source.omega_max
        q1_limit = 0.5 * np.pi * float(np.mean(source.j(lo) / lo))
    else:
        q1_limit = 0.0
    phi = a * q1_limit
    t = table.t_grid
    s1 = CubicSpline(t, table.q1)
    s2 = CubicSpline(t, table.q2)
    sz = CubicSpline(t, table.qz)
    edges = relaxation._oscillation_edges(spec, table, a, np.stack([s1.c, s2.c]))

    def rows(tt, w):
        q1v, q2v, qzv = s1(tt), s2(tt), sz(tt)
        e2 = np.exp(-a * q2v)
        ez = np.exp(-a * qzv)
        ph = eps * tt
        xp = np.cos(ph - a * q1v) * e2 - e_inf * np.cos(ph - phi)
        xm = np.cos(ph + a * q1v) * e2 - e_inf * np.cos(ph + phi)
        zz = np.cos(ph) * ez - e_inf * np.cos(ph)
        rr = np.cos(ph) * np.cos(a * q1v) * e2 - e_inf * np.cos(phi) * np.cos(ph)
        return np.sum(np.vstack([xp, xm, zz, rr]) * w, axis=-1)

    res = integrate_refining(rows, edges, rtol=tol)
    values = res.values
    if e_inf > 0.0:
        tail = e_inf * np.sin(phi) / eps
        values = values + np.array([tail, -tail, 0.0, 0.0])
    env_len = float(np.trapezoid(np.exp(-a * table.q2), t))
    err_table = a * float(np.max(table.err_est[:, :2])) * env_len
    if env.mismatch > 0.0:
        err_table += env.mismatch / abs(eps)
    elif not env.damping_ok:
        sel = t >= 0.999 * (t[-1] / 10.0)
        slope = max(float(np.polyfit(t[sel], table.q2[sel], 1)[0]), 0.0)
        end = float(np.exp(-a * table.q2[-1]))
        err_table += end / max(abs(eps), a * slope, 1.0 / t[-1])
    return values, float(np.max(res.errors)) + err_table, phi


def _assert_rows_match_phased(spec, table, tol=1e-8):
    values, err, env = relaxation._integrate_lso(spec, table, tol)
    ref_values, ref_err, phi = _phased_integrate_lso(spec, table, tol)
    assert np.array_equal(values, ref_values)
    assert err == ref_err
    return phi, env.e_inf


@settings(max_examples=40, deadline=None)
@given(p=st.floats(-0.5, 2.0),
       cutoff=st.sampled_from(["exponential", "gaussian"]),
       beta=st.floats(0.5, 3.0), q0=st.floats(0.3, 1.5),
       eps=st.floats(0.25, 1.0), sign=st.sampled_from([1.0, -1.0]))
def test_rows_match_phased_reference_bitwise(p, cutoff, beta, q0, eps, sign):
    spec = _spec(beta=beta, eps=sign * eps, q0=q0, h=sb.power_exp(p, cutoff))
    try:
        table = sb.tabulate_kernels(spec, 8.0 * max(beta, 1.0, 1.0 / eps), 64,
                                    tol=1e-6)
    except sb.AccuracyError as exc:
        # an infrared exponent just above 2.05 has no Q2 plateau and so no
        # table (test_c2_saturation_declines_an_underflowing_head)
        assert "too close to 2" in str(exc)
        reject()
    phi, e_inf = _assert_rows_match_phased(spec, table)
    assert phi == 0.0 or e_inf == 0.0


@pytest.mark.parametrize("setup,eps", [
    ("ohmic_setup", 0.5), ("ohmic_setup", -0.7),
    ("saturated_setup", 0.5), ("saturated_setup", -0.7)])
def test_rows_match_phased_reference_on_both_branches(setup, eps, request):
    spec, table = request.getfixturevalue(setup)
    spec = _spec(beta=spec.beta, eps=eps, q0=spec.q0, h=spec.h)
    phi, e_inf = _assert_rows_match_phased(spec, table)
    if setup == "ohmic_setup":
        assert phi != 0.0 and e_inf == 0.0
    else:
        assert phi == 0.0 and e_inf > 0.0
