"""Tests for rates, P(t), and the level-shift matrix diagnostics."""

import dataclasses
import json
import multiprocessing
import re
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, reject, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

import spinbath as sb
from spinbath import bath_correlations, relaxation
from spinbath.cli import main
from spinbath.fileio import save_record
from spinbath.quadrature import integrate_refining, refine_edges

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


@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_p_of_t_rejects_a_nonfinite_time(ohmic_setup, t):
    spec, table = ohmic_setup
    rate = sb.gamma_rate(spec, table)
    with pytest.raises(sb.DomainError, match="t must be finite and nonnegative"):
        sb.p_of_t(rate, t)


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
    # beta eps / 2 = 1000: exp(1000) of the detailed-balance residual is inf;
    # at -1000 it is 0, and the residual would read 1 whatever the entries
    cases = [(_spec(beta=4.0e3, eps=eps), "%g" % (2.0e3 * eps), word)
             for eps, word in ((0.5, "overflows"), (-0.5, "underflows"))]
    table = sb.tabulate_kernels(cases[0][0], 10.0, 16, tol=1e-8)
    for spec, _, _ in cases:
        x_plus, _, z, _ = sb.lso_entries(spec, table)
        assert np.isfinite([x_plus, z]).all()
        assert sb.gamma_rate(spec, table).tau0_inv > 0.0

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the refused command ran its quadrature")

    monkeypatch.setattr(relaxation, "integrate_refining", no_quadrature)
    for spec, c, word in cases:
        for call in (sb.rate_and_lso, sb.lso_matrix):
            with pytest.raises(sb.ScalingError,
                               match=r"beta eps / 2 = %s exceeds the float "
                                     r"exponent limit 709\.78 in magnitude: .* %s"
                                     % (c, word)):
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


def _interchanges(x):
    """Rows where the not-a-knot system on knots x takes dgtsv's row
    interchange: its entries are positive, so such a row leaves a nonzero
    second superdiagonal in dl."""
    dx = np.diff(x)
    dl = dx[1:].tolist() + [float(x[-1] - x[-3])]
    d = [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])]
    du = [float(x[2] - x[0])] + dx[:-1].tolist()
    relaxation._solve_tridiagonal(dl, d, du, [[0.0] * len(x), [0.0] * len(x)])
    return int(np.count_nonzero(dl[:-1]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 40), ratio=st.floats(3.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_not_a_knot_spline_is_scipys_through_row_interchanges(n, ratio, seed):
    # knot gaps that grow threefold or more make all rows but two interchange
    x = np.concatenate([[0.0], np.cumsum(ratio ** np.arange(n - 1))])
    assert _interchanges(x) >= n - 3
    y = np.random.default_rng(seed).standard_normal((3, n))
    _assert_spline_is_scipys(x, y)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 60), cols=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tridiagonal_solve_is_lapacks_bitwise(n, cols, seed):
    # general tridiagonal systems of either sign, against solve_banded's
    # dgtsv with as many right-hand sides
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-3, 3, (3, n))
    ab[0, 0] = ab[2, -1] = 0.0
    b = rng.standard_normal((n, cols))
    want = solve_banded((1, 1), ab, b)
    got = relaxation._solve_tridiagonal(ab[2, :-1].tolist(), ab[1].tolist(),
                                        ab[0, 1:].tolist(), b.T.tolist())
    assert np.array_equal(np.array(got).T, want)


@pytest.mark.parametrize("setup", ["ohmic_setup", "saturated_setup"])
def test_kernel_table_splines_are_scipys(setup, request):
    _, table = request.getfixturevalue(setup)
    _assert_spline_is_scipys(table.t_grid,
                             np.stack([table.q1, table.q2, table.qz]))


def test_one_banded_solve_per_level_shift_quadrature(ohmic_setup, monkeypatch):
    spec, table = ohmic_setup
    calls = []
    original = relaxation._solve_tridiagonal

    def counting(dl, d, du, cols):
        calls.append((len(d), len(cols)))
        return original(dl, d, du, cols)

    monkeypatch.setattr(relaxation, "_solve_tridiagonal", counting)
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

@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([-0.5, 0.5]),
       cutoff=st.sampled_from(["exponential", "gaussian"]),
       beta=st.floats(0.5, 4.0), eps=st.floats(0.25, 1.0),
       q0=st.floats(0.5, 2.0), n=st.sampled_from([16, 40, 64]))
def test_oscillation_edges_spend_at_most_one_unit_of_phase_budget(
        p, cutoff, beta, eps, q0, n):
    spec = _spec(beta=beta, eps=eps, q0=q0, h=sb.power_exp(p, cutoff))
    table = sb.tabulate_kernels(spec, 8.0 * max(beta, 1.0, 1.0 / eps), n,
                                tol=1e-6)
    a = q0 ** 2 / np.pi
    x = table.t_grid
    T = x[-1]
    s1 = CubicSpline(x, table.q1)
    s2 = CubicSpline(x, table.q2)
    c = np.stack([s1.c, s2.c])
    edges = relaxation._oscillation_edges(spec, table, a, c)
    assert edges[0] == 0.0 and edges[-1] == T
    assert np.all(np.diff(edges) > 0.0)
    assert 8 <= len(edges) - 1 <= 4000
    # the bound of each knot interval holds at 64 points of it
    rate = relaxation._phase_rate_bound(spec.eps, a, x, c)
    d1, d2 = s1.derivative(), s2.derivative()
    tt = np.linspace(x[:-1], x[1:], 64)
    sampled = abs(eps) + a * (np.abs(d1(tt)) + np.abs(d2(tt)))
    assert np.all(sampled <= rate * (1.0 + 1e-12))
    # the budget of a panel: its overlap with each interval over that
    # interval's width
    width = np.clip(0.25 * np.pi / np.maximum(rate, 1.0 / T),
                    T / 4000.0, T / 8.0)
    overlap = np.clip(np.minimum(edges[1:, None], x[None, 1:])
                      - np.maximum(edges[:-1, None], x[None, :-1]), 0.0, None)
    assert np.max(overlap @ (1.0 / width)) <= 1.0 + 1e-12


# corners of the acceptance grid (ohmic p = -0.5) as (cutoff, beta, eps, q0)
_GRID_CORNERS = [(cutoff, beta, eps, q0)
                 for cutoff in ("exponential", "gaussian")
                 for beta in (0.5, 2.0)
                 for eps, q0 in ((0.25, 0.5), (1.0, 2.0))]


@pytest.mark.parametrize("case", _GRID_CORNERS + ["oracle_bath"],
                         ids=lambda case: "_".join(map(str, case))
                         if isinstance(case, tuple) else case)
def test_level_shift_rows_match_four_times_the_panels(case, monkeypatch):
    """On the cli's tables (400 rows at tol 1e-9, the default horizon) the
    level shift at tol 1e-8 stops after one doubling and is within 1e-9 of
    its largest row of the same quadrature on edges refined twice."""
    if case == "oracle_bath":
        spec = sb.standard_oracle_bath()
    else:
        cutoff, beta, eps, q0 = case
        spec = _spec(beta=beta, eps=eps, q0=q0, h=sb.power_exp(-0.5, cutoff))
    table = sb.tabulate_kernels(spec, sb.default_time_horizon(spec), 400,
                                tol=1e-9)
    passes = []
    original = relaxation.integrate_refining

    def recording(*args, **kwargs):
        res = original(*args, **kwargs)
        passes.append(res.passes)
        return res

    monkeypatch.setattr(relaxation, "integrate_refining", recording)
    values = relaxation._integrate_lso(spec, table, 1e-8)[0]
    assert passes == [1]
    edges = relaxation._oscillation_edges
    monkeypatch.setattr(relaxation, "_oscillation_edges",
                        lambda *args: refine_edges(refine_edges(edges(*args))))
    reference = relaxation._integrate_lso(spec, table, 1e-8)[0]
    assert np.max(np.abs(values - reference)) <= 1e-9 * np.max(np.abs(reference))


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


@pytest.mark.parametrize("setup", ["ohmic_setup", "saturated_setup"])
def test_level_shift_err_counts_the_qz_column(setup, request):
    # the z row reads exp(-a Qz), so a table whose Qz errors alone grow
    # past the other columns' gives the level shift a larger err
    spec, table = request.getfixturevalue(setup)
    worse = dataclasses.replace(table, err_est=table.err_est * [1.0, 1.0, 1e3])
    assert np.max(worse.err_est[:, 2]) > np.max(table.err_est)
    _, err, _ = relaxation._integrate_lso(spec, table, 1e-8)
    _, worse_err, _ = relaxation._integrate_lso(spec, worse, 1e-8)
    assert worse_err > err


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
    err_table = a * float(np.max(table.err_est)) * env_len
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


# --- the level-shift record -------------------------------------------------------

def _plant(cache, spec, t_max, n=16, tol=1e-8, lso_tol=1e-8):
    """A valid level-shift record of the request, whatever its numbers."""
    request = (spec.beta, spec.q0, spec.eps, 0.0 if t_max is None else t_max,
               n, tol, lso_tol)
    key = relaxation._level_shift_key(spec, t_max, n, tol, lso_tol)
    path = cache / (key + ".npy")
    save_record(str(path), np.array(([0.5, 0.25, 0.5, 0.4], 1e-9, True, request),
                                    dtype=relaxation._LEVEL_SHIFT_RECORD))
    return path


def _cached(spec, t_max, cache, balance=False):
    return relaxation.cached_level_shift(spec, t_max, 16, tol=1e-8, lso_tol=1e-8,
                                         cache_dir=str(cache), balance=balance)


def test_a_planted_record_is_served_without_any_quadrature(tmp_path,
                                                           monkeypatch):
    # the control of the refusal tests below: a planted record of an
    # admitted request is what a hit serves; without balance, a beta eps
    # past the float exponent limit is admitted, and its db_residual is inf
    monkeypatch.setattr(relaxation, "integrate_refining", _no_record_work)
    monkeypatch.setattr(bath_correlations, "integrate_refining", _no_record_work)
    for spec in (_spec(), _spec(beta=4.0e3)):
        _plant(tmp_path, spec, 5.0)
        rate, lso = _cached(spec, 5.0, tmp_path)
        assert (rate.tau0_inv, rate.err, rate.damping_ok) == (0.4, 1e-9, True)
        assert (lso.x_plus, lso.x_minus, lso.z) == (0.25j, 0.125j, -0.25j)
    assert lso.db_residual == np.inf


def _no_record_work(*args, **kwargs):
    raise AssertionError("a refused or cached level-shift request did work")


_IR_GRID = np.linspace(0.0, 3.0, 301)
_IR_VALUES = np.concatenate([[0.0], _IR_GRID[1:] ** -0.75 * np.exp(-_IR_GRID[1:])])


@pytest.mark.parametrize("spec, t_max, balance, error, message", [
    (_spec(q0=0.0), None, False, sb.DivergentIntegralError,
     "q0 = 0: no damping, no finite horizon"),
    (_spec(q0=0.0), 5.0, False, sb.DivergentIntegralError,
     "q0 = 0: undamped integrand"),
    (_spec(beta=4.0e3), 5.0, True, sb.ScalingError,
     "beta eps / 2 = 1000 exceeds the float exponent limit"),
    (_spec(beta=1e157), 5.0, True, sb.DomainError, "beta = 1e+157 puts"),
    (_spec(h=sb.tabulated(_IR_GRID, _IR_VALUES)), None, False,
     sb.InfraredError, "tabulate_kernels needs infrared exponent > 0.95"),
], ids=["q0-horizon", "q0-rows", "balance", "thermal-head", "infrared"])
def test_a_planted_record_does_not_pass_a_refusal(tmp_path, monkeypatch, caplog,
                                                  spec, t_max, balance, error,
                                                  message):
    # every refusal the request alone decides comes before the lookup, so
    # a record of a refused request, however it got there, is never served
    path = _plant(tmp_path, spec, t_max)
    planted = path.read_bytes()
    with caplog.at_level("DEBUG", logger="spinbath"):
        with pytest.raises(error, match=re.escape(message)):
            _cached(spec, t_max, tmp_path, balance)
    assert not caplog.records
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == planted
    monkeypatch.setattr(relaxation, "load_record", _no_record_work)
    with pytest.raises(error, match=re.escape(message)):
        _cached(spec, t_max, tmp_path, balance)


def _level_shift_after(barrier, cache):
    barrier.wait(timeout=60)
    _cached(_spec(), 5.0, cache)


def test_two_processes_writing_one_record_key_leave_one_valid_record(
        tmp_path, monkeypatch, caplog):
    shared, cold_dir = tmp_path / "shared", tmp_path / "cold"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_level_shift_after, args=(barrier, str(shared)))
             for _ in range(2)]
    try:
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join()
    cold = _cached(_spec(), 5.0, cold_dir)
    names = sorted(p.name for p in cold_dir.iterdir())
    assert len(names) == 2
    assert sorted(p.name for p in shared.iterdir()) == names
    assert [(shared / n).read_bytes() for n in names] == \
        [(cold_dir / n).read_bytes() for n in names]
    monkeypatch.setattr(relaxation, "integrate_refining", _no_record_work)
    monkeypatch.setattr(relaxation, "default_time_horizon", _no_record_work)
    monkeypatch.setattr(bath_correlations, "_load_table", _no_record_work)
    with caplog.at_level("DEBUG", logger="spinbath"), warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = _cached(_spec(), 5.0, shared)
    assert not caplog.records
    assert warm[0] == cold[0]
    assert (warm[1].x_plus, warm[1].z) == (cold[1].x_plus, cold[1].z)


def test_a_level_shift_miss_builds_one_jsource(tmp_path, monkeypatch):
    # the horizon's source serves the table: one infrared fit and one
    # support probe per miss, whether the table misses too (the first
    # request) or hits (the second, whose horizon is the first's)
    fits, probes = [], []
    fit, probe = relaxation.infrared_exponent, bath_correlations._support_bound
    monkeypatch.setattr(relaxation, "infrared_exponent",
                        lambda h: fits.append(h) or fit(h))
    monkeypatch.setattr(bath_correlations, "infrared_exponent", _no_record_work)
    monkeypatch.setattr(bath_correlations, "_support_bound",
                        lambda h: probes.append(h) or probe(h))
    _cached(_spec(), None, tmp_path)
    assert (len(fits), len(probes)) == (1, 1)
    _cached(_spec(q0=1.5), None, tmp_path)
    assert (len(fits), len(probes)) == (2, 2)
    assert len(list(tmp_path.iterdir())) == 3
    # a hit fits the exponent for its refusal, and probes nothing
    _cached(_spec(), None, tmp_path)
    assert (len(fits), len(probes)) == (3, 2)


# The level-shift numerics, pinned bitwise on a table of rational columns
# (Q2 = t^2 / (1 + t)): a change to the rows, err or damping_ok that one
# table gives, or to the record layout, fails here until
# relaxation._LEVEL_SHIFT_VERSION is bumped (and this pin renewed), so that
# no cached record of the old numerics is served.
_LEVEL_SHIFT_PIN = (
    "lso-v1",
    ["0x1.2a69d8b7dc6bap-1", "0x1.10525972be3f2p-2", "0x1.e1f055c61853bp-2",
     "0x1.b29305713b8b4p-2"],
    "0x1.d65ab835be19ep-29", True,
    [("values", "<f8", (4,)), ("err", "<f8"), ("damping_ok", "|b1"),
     ("request", [("beta", "<f8"), ("q0", "<f8"), ("eps", "<f8"),
                  ("t_max", "<f8"), ("n", "<i8"), ("tol", "<f8"),
                  ("lso_tol", "<f8")])])
_TABLE_PIN = (
    "quad-v5-moments",
    [("table", "<f8", (16, 7)),
     ("request", [("t_max", "<f8"), ("n", "<i8"), ("tol", "<f8")]),
     ("c2_inf", "<f8")])


def test_the_level_shift_salt_pins_its_numerics():
    t = bath_correlations._time_grid(16.0, 64)
    q2 = t * t / (1.0 + t)
    table = sb.KernelTable(t_grid=t, q1=t / (1.0 + t), q2=q2,
                           qz=q2 + 0.5 * t / (1.0 + t),
                           err_est=np.full((64, 3), 1e-12), c2_inf=np.inf)
    values, err, env = relaxation._integrate_lso(_spec(q0=3.0), table, 1e-8)
    pinned = (relaxation._LEVEL_SHIFT_VERSION, [v.hex() for v in values],
              err.hex(), env.damping_ok, relaxation._LEVEL_SHIFT_RECORD.descr)
    assert pinned == _LEVEL_SHIFT_PIN, (
        "the level-shift rows, err or record layout changed: bump "
        "relaxation._LEVEL_SHIFT_VERSION, then renew _LEVEL_SHIFT_PIN")


def test_the_table_salt_pins_its_record_layout():
    pinned = (bath_correlations._NUMERICS_VERSION,
              bath_correlations._record_dtype(16).descr)
    assert pinned == _TABLE_PIN, (
        "the kernel table record layout changed: bump "
        "bath_correlations._NUMERICS_VERSION, then renew _TABLE_PIN")
