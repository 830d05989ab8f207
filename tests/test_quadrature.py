"""Tests for the refining quadrature engine, its stop rule and its callers.

Run as a script after a deliberate change of the kernel numerics, and a
bump of _NUMERICS_VERSION, to renew the table record:

    PYTHONPATH=src python tests/test_quadrature.py
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import spinbath as sb
from spinbath import bath_correlations, relaxation
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
    assert res.passes < 8
    assert abs(res.values[0]) <= 1e-9 * 100.0
    assert res.values[1] == pytest.approx(100.0, rel=1e-12)
    assert np.all(res.errors <= 1e-9 * 100.0)


def test_lone_zero_crossing_row_has_no_relative_accuracy():
    # alone, the row sets its own scale (~1e-17 of roundoff) and cannot meet it
    with pytest.raises(sb.AccuracyError,
                       match="^quadrature did not converge after 4 doublings$") as info:
        integrate_refining(_summed(_crossing_row), EDGES, max_refine=4)
    assert abs(info.value.partial[0]) < 1e-12
    assert 0.0 < info.value.err < 1e-12


def test_grouped_rows_meet_the_stop_rule_per_group():
    # (groups, rows): each group is held to its own largest value, so the
    # crossing row, which passes beside the large row in one flat call,
    # cannot pass in a group of its own
    def rows(w):
        return np.vstack([_crossing_row(w), 100.0 * np.exp(-w)])

    integrate_refining(_summed(rows), EDGES, max_refine=4)
    with pytest.raises(sb.AccuracyError, match="after 4 doublings") as info:
        integrate_refining(lambda x, w: np.sum(rows(x) * w, axis=-1)[:, None],
                           EDGES, max_refine=4, what="grouped rows")
    assert info.value.partial.shape == (2, 1)
    assert str(info.value).startswith("grouped rows did not converge")

    # two well-scaled groups: each converges as it would alone, and the
    # shared set is refined until the slower one does
    def pair(x, w):
        groups = [[np.exp(-x), np.cos(x) * np.exp(-x)],
                  [np.cos(8.0 * x) * np.exp(-x), np.exp(-2.0 * x)]]
        return np.sum(np.array(groups) * w, axis=-1)

    both = integrate_refining(pair, EDGES)
    alone = [integrate_refining(lambda x, w, g=g: pair(x, w)[g], EDGES)
             for g in (0, 1)]
    assert both.passes == max(a.passes for a in alone)
    slow = int(np.argmax([a.passes for a in alone]))
    assert np.array_equal(both.values[slow], alone[slow].values)


def test_node_and_pass_counts():
    res = integrate_refining(_summed(lambda w: np.exp(-w)), EDGES, order=6,
                             max_refine=3)
    panels = 16 * 2 ** np.arange(res.passes + 1)
    assert res.nodes == 6 * int(np.sum(panels))


def test_capped_refinement_reports_no_convergence():
    nodes = []

    def f(x, w):
        nodes.append(len(x))
        return np.sum(np.cos(50.0 * x) * w)

    with pytest.raises(sb.AccuracyError, match="after 1 doublings") as info:
        integrate_refining(f, np.linspace(0.0, 10.0, 3), max_refine=1)
    assert nodes == [6 * 2, 6 * 4]
    assert info.value.partial.shape == (1,) and info.value.err > 0.0


def _bath():
    # superohmic, so its plateau C2 is finite and has a quadrature
    return sb.BathSpec(beta=2.0, eps=0.5, delta=0.2, q0=1.0,
                       h=sb.power_exp(1.0, "exponential"))


# call site: (its module, the label of the capped call, the call given an
# empty cache directory); rows [0, 8) of the 16-point table are a direct
# chunk, [8, 16) the shared chirp-z set; rows [0, 24) of the 64-point table
# are three direct chunks, the groups of one call
ENGINE_SITES = {
    "q1": (bath_correlations, "q1 at t=0.5", lambda cache: sb.q1(_bath(), 0.5)),
    "q2": (bath_correlations, "q2 at t=0.5", lambda cache: sb.q2(_bath(), 0.5)),
    "qz": (bath_correlations, "qz at t=0.5", lambda cache: sb.qz(_bath(), 0.5)),
    "c2_saturation": (bath_correlations, "c2_saturation",
                      lambda cache: sb.c2_saturation(_bath())),
    "table-direct-chunk": (
        bath_correlations, "kernel table on t in [0, 1.4]",
        lambda cache: sb.tabulate_kernels(_bath(), 5.0, 16, cache_dir=cache)),
    "table-shared-set": (
        bath_correlations, "kernel table on t in [1.85, 5]",
        lambda cache: sb.tabulate_kernels(_bath(), 5.0, 16, cache_dir=cache)),
    "table-direct-groups": (
        bath_correlations, "kernel table on t in [0, 2.28571]",
        lambda cache: sb.tabulate_kernels(_bath(), 16.0, 64, cache_dir=cache)),
    "rate_and_lso": (
        relaxation, "level-shift quadrature",
        lambda cache: sb.rate_and_lso(_bath(), sb.tabulate_kernels(_bath(), 16.0, 64))),
}


@pytest.mark.parametrize("site", list(ENGINE_SITES))
def test_engine_contract_at_every_call_site(site, tmp_path, monkeypatch):
    # the engine, capped for the one call of this label, raises for it:
    # no call site turns an unmet stop rule into a value or a cache entry
    module, label, call = ENGINE_SITES[site]

    def capped(*args, **kwargs):
        if kwargs.get("what") == label:
            kwargs.update(rtol=1e-30, max_refine=1)
        return integrate_refining(*args, **kwargs)

    monkeypatch.setattr(module, "integrate_refining", capped)
    with pytest.raises(sb.AccuracyError) as info:
        call(str(tmp_path))
    assert str(info.value) == label + " did not converge after 1 doublings"
    assert info.value.partial is not None and np.isfinite(info.value.err)
    assert not any(tmp_path.iterdir())


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


# --- the numerics version guard -------------------------------------------------

RECORD = pathlib.Path(__file__).with_name("kernel_table_record.json")


def _broken_bath():
    # a tabulated form factor: its 50 knots are breaks of J
    u = np.linspace(0.01, 10.0, 50)
    return sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=1.0,
                       h=sb.tabulated(u, u * np.exp(-u)))


def _ohmic_bath():
    return sb.BathSpec(beta=1.0, eps=0.25, delta=0.2, q0=1.0,
                       h=sb.power_exp(-0.5, "exponential"))


# name: (bath, t_max, n); the superohmic table has 20 whole chunks, the
# 404-row ohmic one a ragged last chunk
RECORDED = {
    "superohmic-160": (_bath, 16.0, 160),
    "breaks-400": (_broken_bath, 32.0, 400),
    "ohmic-404": (_ohmic_bath, 40.0, 404),
}


def _record_tables():
    """The recorded tables at tol 1e-9, under the numerics version they are
    computed with."""
    tables = {}
    for name, (bath, t_max, n) in RECORDED.items():
        table = sb.tabulate_kernels(bath(), t_max, n, tol=1e-9)
        tables[name] = {"t_max": t_max, "n": n, "tol": 1e-9,
                        "q1": table.q1.tolist(), "q2": table.q2.tolist(),
                        "qz": table.qz.tolist()}
    return {"numerics_version": bath_correlations._NUMERICS_VERSION,
            "tables": tables}


def test_kernel_tables_move_only_with_the_numerics_version():
    # a cache entry is keyed by _NUMERICS_VERSION, so tables that move must
    # bump it, and a bump must renew the record (see the module docstring)
    record = json.loads(RECORD.read_text())
    now = _record_tables()
    assert record["numerics_version"] == now["numerics_version"], (
        "_NUMERICS_VERSION changed but %s was not renewed" % RECORD.name)
    assert list(record["tables"]) == list(now["tables"])
    for name, table in now["tables"].items():
        for column in ("q1", "q2", "qz"):
            ref, got = np.array(record["tables"][name][column]), np.array(table[column])
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (
                "the %s column of %s moved under an unchanged _NUMERICS_VERSION"
                % (column, name))


if __name__ == "__main__":
    RECORD.write_text(json.dumps(_record_tables(), indent=1) + "\n")
