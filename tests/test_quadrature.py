"""Tests for the refining quadrature engine, its stop rule and its callers."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import spinbath as sb
from spinbath import bath_correlations, quadrature
from spinbath.bath_correlations import _SUPPORT_DROP, _support_bound
from spinbath.quadrature import integrate_refining

EDGES = np.linspace(0.0, 40.0, 17)


def _summed(f):
    # the engine calls an integrand with (nodes, weights) for its row integrals
    return lambda x, w: np.sum(f(x) * w, axis=-1)


def _crossing_row(omega):
    # int_0^inf sin(t w) (w - 1) e^-w dw = t (1 - t^2) / (1 + t^2)^2; zero at t = 1
    return np.sin(omega) * (omega - 1.0) * np.exp(-omega)


def test_zero_crossing_row_converges_beside_a_large_row():
    res = integrate_refining(
        _summed(lambda w: np.vstack([_crossing_row(w), 100.0 * np.exp(-w)])),
        EDGES)
    assert res.converged
    assert res.passes < 8
    assert abs(res.values[0]) <= 1e-9 * 100.0
    assert res.values[1] == pytest.approx(100.0, rel=1e-12)
    assert np.all(res.errors <= 1e-9 * 100.0)


def test_lone_zero_crossing_row_has_no_relative_accuracy():
    # alone, the row sets its own scale (~1e-17 of roundoff) and cannot meet it
    res = integrate_refining(_summed(_crossing_row), EDGES, max_refine=4)
    assert not res.converged
    assert res.passes == 4
    assert abs(res.values[0]) < 1e-12


def test_grouped_rows_meet_the_stop_rule_per_group():
    # (groups, rows): each group is held to its own largest value, so the
    # crossing row, which passes beside the large row in one flat call,
    # cannot pass in a group of its own
    def rows(w):
        return np.vstack([_crossing_row(w), 100.0 * np.exp(-w)])

    flat = integrate_refining(_summed(rows), EDGES, max_refine=4)
    grouped = integrate_refining(
        lambda x, w: np.sum(rows(x) * w, axis=-1)[:, None], EDGES, max_refine=4)
    assert flat.converged and not grouped.converged
    assert grouped.values.shape == grouped.errors.shape == (2, 1)
    assert grouped.passes == 4

    # two well-scaled groups: each converges as it would alone, and the
    # shared set is refined until the slower one does
    def pair(x, w):
        groups = [[np.exp(-x), np.cos(x) * np.exp(-x)],
                  [np.cos(8.0 * x) * np.exp(-x), np.exp(-2.0 * x)]]
        return np.sum(np.array(groups) * w, axis=-1)

    both = integrate_refining(pair, EDGES)
    alone = [integrate_refining(lambda x, w, g=g: pair(x, w)[g], EDGES)
             for g in (0, 1)]
    assert both.converged and all(a.converged for a in alone)
    assert both.passes == max(a.passes for a in alone)
    slow = int(np.argmax([a.passes for a in alone]))
    assert np.array_equal(both.values[slow], alone[slow].values)


def test_node_and_pass_counts():
    res = integrate_refining(_summed(lambda w: np.exp(-w)), EDGES, order=6,
                             max_refine=3)
    assert res.converged
    panels = 16 * 2 ** np.arange(res.passes + 1)
    assert res.nodes == 6 * int(np.sum(panels))


def test_capped_refinement_reports_no_convergence():
    res = integrate_refining(_summed(lambda w: np.cos(50.0 * w)),
                             np.linspace(0.0, 10.0, 3), max_refine=1)
    assert not res.converged
    assert res.passes == 1
    assert res.nodes == 6 * (2 + 4)


def test_q1_raises_on_capped_refinement(monkeypatch):
    wiggly = sb.JSource(j=lambda w: w * np.exp(-w) * (1.0 + 0.5 * np.cos(40.0 * w)),
                        omega_max=45.0, ir_exponent=1.0)
    monkeypatch.setattr(bath_correlations, "integrate_refining",
                        functools.partial(quadrature.integrate_refining, max_refine=1))
    with pytest.raises(sb.AccuracyError) as info:
        sb.q1(wiggly, 0.5)
    assert info.value.err > 0.0
    assert np.isfinite(info.value.partial)


def test_q1_converges_at_its_sign_change():
    # J w^-2 = 2 pi^2 w^2 e^-2w: Q1(t) = 2 pi^2 Im 2/(2 - i t)^3, zero at t = 2 sqrt(3)
    spec = sb.BathSpec(beta=2.0, eps=0.5, delta=0.2, q0=1.0,
                       h=sb.power_exp(1.0, "exponential"))
    t0 = 2.0 * np.sqrt(3.0)
    value, err = sb.q1(spec, t0)
    assert abs(value) < 1e-12
    assert err < 1e-9


def test_support_bound_of_oracle_bath_is_tight():
    h = sb.standard_oracle_bath().h
    omega_max = _support_bound(h)
    assert omega_max == 8.0
    peak = float(np.max(sb.eval_J(h, np.geomspace(1e-4, 32.0, 4000))))
    assert sb.eval_J(h, omega_max) < _SUPPORT_DROP * peak
    assert not sb.eval_J(h, 0.5 * omega_max) < _SUPPORT_DROP * peak


@settings(max_examples=20, deadline=None)
@given(p=st.floats(min_value=0.5, max_value=3.0),
       cutoff=st.sampled_from(["exponential", "gaussian"]),
       beta=st.floats(min_value=0.5, max_value=4.0))
def test_tabulation_converges_and_q2_matches_scipy(p, cutoff, beta):
    tol = 1e-9
    spec = sb.BathSpec(beta=beta, eps=0.5, delta=0.2, q0=1.0,
                       h=sb.power_exp(p, cutoff))
    # an unconverged tabulation raises AccuracyError
    table = sb.tabulate_kernels(spec, 6.0, 12, tol=tol)
    scale = max(np.max(np.abs(k)) for k in (table.q1, table.q2, table.qz))
    for i in (3, 7, 11):
        t = float(table.t_grid[i])
        oracle = quad(
            lambda w: sb.eval_J(spec.h, w) / w ** 2 * (1.0 - np.cos(w * t))
            / np.tanh(0.5 * beta * w),
            0.0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(table.q2[i] - oracle) <= tol * scale
