"""Tests for the bath kernels against closed-form and quadrature oracles."""

import dataclasses
import json
import multiprocessing
import os
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

import spinbath as sb
from spinbath import bath_correlations, quadrature
from spinbath.bath_correlations import (_by_kernel, _edges, _evaluate,
                                        _first_linear_chunk, _kernel_rows,
                                        _moment_sums, _thermal_factors,
                                        _time_grid)
from spinbath.fileio import atomic_write

OHMIC = sb.JSource(j=lambda w: w * np.exp(-w), omega_max=45.0, ir_exponent=1.0,
                   beta=2.0)


def _spec(p=1.0, cutoff="exponential", beta=2.0, q0=1.0):
    return sb.BathSpec(beta=beta, eps=0.5, delta=0.2, q0=q0,
                       h=sb.power_exp(p, cutoff))


# --- thermal factors -----------------------------------------------------------

def _coth_branches(x):
    # the series-or-direct form the expm1 factors replaced, kept as reference
    return np.where(x < 1e-4, 1.0 / x + x / 3.0 - x ** 3 / 45.0, 1.0 / np.tanh(x))


def _inv_sinh_branches(x):
    e = np.exp(-x)
    with np.errstate(over="ignore"):
        mid = 1.0 / np.sinh(x)
    return np.where(x < 1e-4, (1.0 - x ** 2 / 6.0) / x,
                    np.where(x < 30.0, mid, 2.0 * e / (1.0 - e * e)))


def test_coth_stable_series_joins_direct():
    x = np.array([1e-300, 1e-7, 5e-5, 9.9e-5, 1.01e-4, 1e-3, 0.1, 1.0, 50.0, 1e9])
    coth = _thermal_factors(x)[0]
    assert np.allclose(coth, _coth_branches(x), rtol=1e-12, atol=0.0)
    direct = np.cosh(x[1:-1]) / np.sinh(x[1:-1])
    assert np.allclose(coth[1:-1], direct, rtol=1e-12, atol=0.0)


def test_inv_sinh_branches():
    x = np.array([1e-7, 1e-5, 1e-3, 0.5, 10.0, 29.0, 31.0, 700.0, 800.0])
    out = _thermal_factors(x)[1]
    assert np.allclose(out, _inv_sinh_branches(x), rtol=1e-12, atol=0.0)
    safe = x < 700
    assert np.allclose(out[safe], 1.0 / np.sinh(x[safe]), rtol=1e-12, atol=0.0)
    assert np.isfinite(out).all()
    assert out[-1] == pytest.approx(2.0 * np.exp(-800.0), rel=1e-12)


def test_half_angle_tanh_from_the_same_expm1():
    x = np.array([1e-300, 1e-7, 1e-4, 0.1, 1.0, 10.0, 40.0, 800.0])
    assert np.allclose(_thermal_factors(x)[2], np.tanh(0.5 * x), rtol=1e-12,
                       atol=0.0)


# --- q1 ----------------------------------------------------------------------

def test_q1_zero_time():
    assert sb.q1(_spec(), 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_q1_arctan_closed_form(t):
    # J = w e^-w gives Q1(t) = arctan(t)
    value, err = sb.q1(OHMIC, t)
    assert value == pytest.approx(np.arctan(t), abs=1e-8)


def test_q1_linearity_in_j():
    j_a = sb.JSource(j=lambda w: w * np.exp(-w), omega_max=45.0, ir_exponent=1.0,
                     beta=2.0)
    j_b = sb.JSource(j=lambda w: w ** 3 * np.exp(-2 * w), omega_max=45.0,
                     ir_exponent=3.0, beta=2.0)
    j_sum = sb.JSource(j=lambda w: w * np.exp(-w) + w ** 3 * np.exp(-2 * w),
                       omega_max=45.0, ir_exponent=1.0, beta=2.0)
    t = 0.7
    total = sb.q1(j_sum, t)[0]
    assert total == pytest.approx(sb.q1(j_a, t)[0] + sb.q1(j_b, t)[0], abs=1e-9)


def test_q1_infrared_precondition():
    grid = np.linspace(0.0, 3.0, 301)
    values = np.zeros_like(grid)
    values[1:] = grid[1:] ** -0.75 * np.exp(-grid[1:])
    h = sb.tabulated(grid, values)
    with pytest.raises(sb.InfraredError):
        sb.q1(sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=1.0, h=h), 1.0)
    # the same bath is fine for q2: it only needs exponent > 0
    sb.q2(sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=1.0, h=h), 1.0)


def test_kernels_reject_negative_time():
    with pytest.raises(sb.DomainError):
        sb.q1(_spec(), -0.5)


@pytest.mark.parametrize("t", [np.inf, np.nan])
@pytest.mark.parametrize("kernel", [sb.q1, sb.q2, sb.qz])
def test_kernels_reject_a_nonfinite_time_before_any_quadrature(kernel, t,
                                                               monkeypatch):
    monkeypatch.setattr(bath_correlations, "integrate_refining", _no_quadrature)
    with pytest.raises(sb.DomainError, match="t must be finite and nonnegative"):
        kernel(_spec(), t)


# --- q2 ----------------------------------------------------------------------

def test_q2_zero_time():
    assert sb.q2(_spec(), 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_q2_zero_temperature_log_form(t):
    # at beta = 1e6 the coth is 1 over the support: Q2 -> (1/2) ln(1 + t^2)
    value, err = sb.q2(dataclasses.replace(OHMIC, beta=1e6), t)
    assert value == pytest.approx(0.5 * np.log1p(t * t), abs=1e-6)


def test_q2_requires_beta_for_injected_source():
    # the source carries the temperature: a JSource without beta is not made
    with pytest.raises(TypeError, match="beta"):
        sb.JSource(j=OHMIC.j, omega_max=45.0, ir_exponent=1.0)


def test_q1_is_temperature_independent():
    # bitwise: Q1's node set and rows read no beta
    cold = _spec(p=0.5, cutoff="gaussian", beta=4.0)
    hot = dataclasses.replace(cold, beta=0.5)
    for t in (0.3, 2.0, 9.0):
        assert sb.q1(cold, t) == sb.q1(hot, t)


def test_q2_reads_the_beta_of_its_source():
    for t in (0.5, 3.0):
        same = sb.q2(dataclasses.replace(OHMIC, beta=2.0), t)
        assert same == sb.q2(OHMIC, t)
        for beta in (0.5, 4.0):
            assert sb.q2(dataclasses.replace(OHMIC, beta=beta), t) != same


def test_q2_monotone_before_first_extremum():
    spec = _spec()
    ts = np.linspace(0.0, 0.5, 8)
    vals = [sb.q2(spec, t)[0] for t in ts]
    assert np.all(np.diff(vals) >= 0.0)


def test_q2_extreme_beta_finite():
    value, err = sb.q2(_spec(beta=1e8), 1.0)
    assert np.isfinite(value) and value >= 0.0


def test_a_beta_whose_thermal_head_underflows_is_refused():
    # the head reaches 1/(8 beta); omega^2 keeps half its bits down to
    # beta = 2^521, about 6.86e156
    bath_correlations.j_source_from_spec(_spec(beta=1e156))
    for beta in (1e157, 1e160, 1e300):
        spec = _spec(beta=beta)
        for kernel in (bath_correlations.j_source_from_spec,
                       lambda s: sb.q2(s, 1.0),
                       lambda s: sb.tabulate_kernels(s, 10.0, 16),
                       sb.default_time_horizon):
            with pytest.raises(sb.DomainError, match=re.escape("beta = %g puts" % beta)):
                kernel(spec)


def test_a_cached_table_does_not_pass_the_beta_refusal(tmp_path, monkeypatch):
    # an entry written where beta was still admitted is refused on its hit
    spec = _spec(beta=1e157)
    monkeypatch.setattr(bath_correlations, "_OMEGA_SQ_MIN", 0.0)
    sb.tabulate_kernels(spec, 10.0, 16, tol=1e-8, cache_dir=str(tmp_path))
    monkeypatch.undo()
    assert len(list(tmp_path.iterdir())) == 1
    with pytest.raises(sb.DomainError, match=re.escape("beta = 1e+157 puts")):
        sb.tabulate_kernels(spec, 10.0, 16, tol=1e-8, cache_dir=str(tmp_path))


# --- qz ----------------------------------------------------------------------

def test_qz_zero_time_against_independent_quadrature():
    spec = _spec(beta=2.0)
    value, err = sb.qz(spec, 0.0)
    oracle = quad(
        lambda w: sb.eval_J(spec.h, w) / w ** 2 * np.tanh(spec.beta * w / 4.0),
        0.0, np.inf, limit=400)[0]
    assert value == pytest.approx(oracle, rel=1e-8)
    assert value > 0.0


def test_qz_minus_q2_is_damped_cosine_transform():
    # Qz - Q2 = int J w^-2 tanh(beta w/4) cos(w t) dw, which decays to 0
    spec = _spec(beta=2.0)
    for t in (0.5, 3.0):
        diff = sb.qz(spec, t)[0] - sb.q2(spec, t)[0]
        oracle = quad(
            lambda w: sb.eval_J(spec.h, w) / w ** 2
            * np.tanh(spec.beta * w / 4.0) * np.cos(w * t),
            0.0, np.inf, limit=400)[0]
        assert diff == pytest.approx(oracle, abs=1e-8)
    far = abs(sb.qz(spec, 40.0)[0] - sb.q2(spec, 40.0)[0])
    near = abs(sb.qz(spec, 0.5)[0] - sb.q2(spec, 0.5)[0])
    assert far < 0.05 * near


def test_qz_nonnegative_on_grid():
    spec = _spec()
    for t in np.linspace(0.0, 20.0, 9):
        assert sb.qz(spec, float(t))[0] >= 0.0


# --- c2 saturation ------------------------------------------------------------

def test_c2_saturation_matches_quadrature():
    spec = _spec(p=1.0, beta=2.0)
    oracle = quad(
        lambda w: sb.eval_J(spec.h, w) / (w ** 2 * np.tanh(spec.beta * w / 2.0)),
        0.0, np.inf, limit=400)[0]
    assert sb.c2_saturation(spec) == pytest.approx(oracle, rel=1e-8)


def test_c2_saturation_infinite_for_ohmic():
    assert sb.c2_saturation(OHMIC) == np.inf


def test_c2_saturation_declines_an_underflowing_head():
    # infrared exponent 2.06: the geometric head spans 1000 octaves below the
    # first panel, where omega^2 underflows and J / omega^2 would be 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sb.AccuracyError, match="too close to 2"):
            sb.c2_saturation(_spec(p=0.03125, beta=1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [0.06, 0.07, 0.08, 0.09, 0.1, 0.11, 0.12, 0.13, 0.2])
def test_pointwise_kernels_refuse_an_underflowing_head(s, monkeypatch):
    # J = omega^s e^-omega, admitted by q2 and qz (s > 0.05): up to s = 0.11
    # the head's ceil(60 / s) octaves reach frequencies whose square
    # underflows, which is refused by name before any quadrature
    source = sb.JSource(j=lambda w: w ** s * np.exp(-w), omega_max=60.0,
                        ir_exponent=s, beta=1.0)
    for kernel in (sb.q2, sb.qz):
        if s <= 0.11:
            with monkeypatch.context() as mp:
                mp.setattr(bath_correlations, "integrate_refining", _no_quadrature)
                with pytest.raises(sb.AccuracyError,
                                   match="%s at t=1: infrared exponent %g is too "
                                         "close to 0" % (kernel.__name__, s)):
                    kernel(source, 1.0)
        else:
            value, err = kernel(source, 1.0)
            assert value > 0.0 and err <= 1e-9 * value


# --- tabulation ---------------------------------------------------------------

@pytest.mark.parametrize("t_max,n", [(5.0, 1), (5.0, 2), (5.0, 3), (0.0, 16),
                                     (-1.0, 16), (np.inf, 16)])
def test_tabulate_refuses_a_grid_below_four_rows_or_a_bad_t_max(
        t_max, n, tmp_path, monkeypatch):
    # refused before the cache is read or a quadrature runs
    monkeypatch.setattr(bath_correlations, "integrate_refining", _no_quadrature)
    monkeypatch.setattr(bath_correlations, "_load_table", _no_quadrature)
    for cache_dir in (None, str(tmp_path)):
        with pytest.raises(sb.DomainError, match="n >= 4 and 0 < t_max < inf"):
            sb.tabulate_kernels(_spec(), t_max, n, cache_dir=cache_dir)
    assert list(tmp_path.iterdir()) == []


def test_tabulate_refuses_a_cache_dir_beside_a_jsource(tmp_path, monkeypatch):
    # a JSource has no content key: refused before any quadrature, and
    # nothing is written
    monkeypatch.setattr(bath_correlations, "integrate_refining", _no_quadrature)
    with pytest.raises(sb.UsageError, match="cached by its BathSpec"):
        sb.tabulate_kernels(OHMIC, 5.0, 16, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def _q2_slope(table):
    """The growth rate of Q2 fitted on t >= t_max / 10, as the level-shift
    error bound fits it."""
    t = table.t_grid
    sel = t >= 0.999 * (t[-1] / 10.0)
    return float(np.polyfit(t[sel], table.q2[sel], 1)[0])


def test_tabulate_invariants_and_tail():
    spec = _spec(p=1.0, beta=2.0)
    table = sb.tabulate_kernels(spec, 30.0, 60)
    assert table.q1[0] == 0.0 and table.q2[0] == 0.0
    assert np.all(np.diff(table.t_grid) > 0.0)
    assert np.all(table.q2 >= 0.0)
    assert np.all(table.qz >= 0.0)
    # p = 1 is superohmic: Q1 tends to 0 and Q2 saturates, so the slope is tiny
    assert _q2_slope(table) <= 1e-3
    assert table.c2_inf == sb.c2_saturation(spec)
    assert np.isfinite(table.c2_inf)
    assert table.q2[-1] == pytest.approx(table.c2_inf, rel=0.05)


def test_tabulate_ohmic_tail_q1_plateau_and_slope():
    spec = _spec(p=-0.5, beta=1.0)
    table = sb.tabulate_kernels(spec, 80.0, 50)
    # J = 2 pi^2 w e^{-2w}: J'(0) = 2 pi^2, so Q1(inf) = pi/2 * 2 pi^2
    assert table.q1[-1] == pytest.approx(np.pi ** 3, rel=0.03)
    assert table.c2_inf == np.inf
    # ohmic Q2 grows linearly with slope pi J'(0)/beta
    assert _q2_slope(table) == pytest.approx(2.0 * np.pi ** 3, rel=0.05)


def test_kernel_table_is_one_converged_record():
    fields = [f.name for f in dataclasses.fields(sb.KernelTable)]
    assert fields == ["t_grid", "q1", "q2", "qz", "err_est", "c2_inf"]
    assert not hasattr(sb, "TailFit")


def test_tabulate_matches_pointwise_ops():
    spec = _spec(p=0.5, cutoff="gaussian", beta=1.5)
    table = sb.tabulate_kernels(spec, 8.0, 24)
    i = 12
    t = float(table.t_grid[i])
    assert table.q1[i] == pytest.approx(sb.q1(spec, t)[0], abs=1e-9)
    assert table.q2[i] == pytest.approx(sb.q2(spec, t)[0], abs=1e-9)
    assert table.qz[i] == pytest.approx(sb.qz(spec, t)[0], abs=1e-9)


def test_tabulate_cache_round_trip(tmp_path):
    spec = _spec(p=1.0, beta=2.0)
    cache = str(tmp_path)
    first = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=cache)
    key = bath_correlations._cache_key(spec, 5.0, 16, 1e-9)
    assert [p.name for p in tmp_path.iterdir()] == [key + ".npy"]
    second = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=cache)
    assert np.array_equal(first.t_grid, second.t_grid)
    assert np.array_equal(first.q1, second.q1)
    assert np.array_equal(first.q2, second.q2)
    assert np.array_equal(first.qz, second.qz)
    assert np.array_equal(first.err_est, second.err_est)
    assert first.c2_inf == second.c2_inf


def test_tabulate_cache_miss_returns_its_table_unread(tmp_path, monkeypatch):
    spec = _spec(p=1.0, beta=2.0)
    reads = []
    read_entry = bath_correlations._read_entry
    monkeypatch.setattr(bath_correlations, "_read_entry",
                        lambda *args: reads.append(args) or read_entry(*args))
    cold = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert reads == []
    warm = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert len(reads) == 1
    for name in ("t_grid", "q1", "q2", "qz", "err_est"):
        assert np.array_equal(getattr(cold, name), getattr(warm, name))
    assert cold.c2_inf == warm.c2_inf
    assert type(cold.c2_inf) is float and type(warm.c2_inf) is float


@pytest.mark.parametrize("call", [
    lambda spec: sb.q1(spec, 1.0, beta=3.0),
    lambda spec: sb.q2(spec, 1.0, beta=3.0),
    lambda spec: sb.qz(spec, 1.0, beta=3.0),
    lambda spec: sb.c2_saturation(spec, beta=3.0),
    lambda spec: sb.tabulate_kernels(spec, 5.0, 16, beta=3.0),
], ids=["q1", "q2", "qz", "c2_saturation", "tabulate_kernels"])
def test_beta_beside_a_bath_spec_is_refused(call, monkeypatch):
    # beta is no parameter of a kernel call: the BathSpec or JSource
    # carries it; refused before any quadrature runs
    monkeypatch.setattr(bath_correlations, "integrate_refining", _no_quadrature)
    with pytest.raises(TypeError, match="beta"):
        call(_spec(p=3.0, beta=1.0))


def test_tabulate_cache_distinguishes_specs(tmp_path):
    cache = str(tmp_path)
    sb.tabulate_kernels(_spec(p=1.0), 5.0, 8, cache_dir=cache)
    sb.tabulate_kernels(_spec(p=0.5, cutoff="gaussian"), 5.0, 8, cache_dir=cache)
    assert len(list(tmp_path.iterdir())) == 2


def test_tabulate_cache_never_serves_other_numerics(tmp_path, monkeypatch):
    spec = _spec(p=1.0, beta=2.0)
    cache = str(tmp_path)
    sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache)
    sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache)
    assert len(list(tmp_path.iterdir())) == 1
    monkeypatch.setattr(bath_correlations, "_NUMERICS_VERSION", "quad-v1")
    sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache)
    assert len(list(tmp_path.iterdir())) == 2


def test_tabulate_cache_recomputes_quad_v2_entries(tmp_path, monkeypatch):
    # entries written before the half-angle integrand are never served
    spec = _spec(p=1.0, beta=2.0)
    cache = str(tmp_path)
    with monkeypatch.context() as mp:
        mp.setattr(bath_correlations, "_NUMERICS_VERSION", "quad-v2")
        sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache)
    calls = []
    original = bath_correlations.integrate_refining
    monkeypatch.setattr(bath_correlations, "integrate_refining",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache)
    assert calls
    assert len(list(tmp_path.iterdir())) == 2


def test_tabulate_cache_recomputes_quad_v3_entries(tmp_path, monkeypatch):
    # a quad-v3 entry, CSV plus sidecar as that version wrote it under its
    # own key, is never served: the table is recomputed and stored as .npy
    spec = _spec(p=1.0, beta=2.0)
    table = sb.tabulate_kernels(spec, 5.0, 8)
    with monkeypatch.context() as mp:
        mp.setattr(bath_correlations, "_NUMERICS_VERSION", "quad-v3")
        key = bath_correlations._cache_key(spec, 5.0, 8, 1e-9)
    rows = np.column_stack([table.t_grid, table.q1, table.q2, table.qz,
                            table.err_est])
    np.savetxt(tmp_path / (key + ".csv"), rows, delimiter=",", fmt="%.17g",
               header="t,q1,q2,qz,err1,err2,errz", comments="")
    (tmp_path / (key + ".json")).write_text(json.dumps({
        "key": key, "beta": 2.0, "h": spec.h.content_key(), "t_max": 5.0,
        "n": 8, "tol": 1e-9, "converged": True,
        "tail": {"q2_slope": 0.0, "c2_inf": table.c2_inf}}))
    calls = []
    original = bath_correlations.integrate_refining
    monkeypatch.setattr(bath_correlations, "integrate_refining",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    sb.tabulate_kernels(spec, 5.0, 8, cache_dir=str(tmp_path))
    assert calls
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 3 and sum(n.endswith(".npy") for n in names) == 1
    assert key + ".csv" in names


def test_tabulate_cache_misses_two_file_entries(tmp_path, monkeypatch, caplog):
    # a quad-v4 entry, an (n, 7) .npy table beside a JSON sidecar, is a
    # miss under the record layout's key: recomputed without a warning
    spec = _spec(p=1.0, beta=2.0)
    table = sb.tabulate_kernels(spec, 5.0, 16)
    with monkeypatch.context() as mp:
        mp.setattr(bath_correlations, "_NUMERICS_VERSION", "quad-v4")
        key = bath_correlations._cache_key(spec, 5.0, 16, 1e-9)
    np.save(tmp_path / (key + ".npy"), np.column_stack(
        [table.t_grid, table.q1, table.q2, table.qz, table.err_est]))
    (tmp_path / (key + ".json")).write_text(json.dumps({
        "key": key, "beta": 2.0, "h": spec.h.content_key(), "t_max": 5.0,
        "n": 16, "tol": 1e-9, "converged": True,
        "tail": {"q2_slope": 0.0, "c2_inf": table.c2_inf}}))
    with caplog.at_level("DEBUG", logger="spinbath"), warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert not caplog.records
    assert len(list(tmp_path.iterdir())) == 3
    assert np.array_equal(warm.q2, table.q2) and warm.c2_inf == table.c2_inf


def _rewrite(field=None, value=None, dtype=None):
    """A corrupter that rewrites the record's field, or casts it to dtype."""
    def corrupt(npy):
        record = np.load(npy)
        if field is not None:
            record[field] = value
        np.save(npy, record if dtype is None else record.astype(dtype))
    return corrupt


def _retable(transform):
    """A corrupter that stores transform(table) in a record of its shape."""
    def corrupt(npy):
        record = np.load(npy)
        table = transform(record["table"].copy())
        layout = [("table", table.dtype, table.shape)] + [
            (name, record.dtype[name]) for name in ("request", "c2_inf")]
        np.save(npy, np.array((table, record["request"], record["c2_inf"]),
                              dtype=layout))
    return corrupt


def _truncate_npy(npy):
    data = npy.read_bytes()
    npy.write_bytes(data[:len(data) // 2])


def _nan_entry(table):
    table[3, 2] = np.nan
    return table


def _stretched_times(table):
    table[:, 0] *= 1.5
    return table


def _header_only(npy):
    # the .npy header of the record, and none of its data
    data = npy.read_bytes()
    npy.write_bytes(data[:len(data) - 16 * 7 * 8 - 4 * 8])


def _other_n(npy):
    # a whole record of the same request at n = 15
    spec = _spec(p=1.0, beta=2.0)
    table = sb.tabulate_kernels(spec, 5.0, 15)
    bath_correlations._save_table(str(npy), 5.0, 15, 1e-9, table)


def _object_array(npy):
    np.save(npy, np.load(npy).astype(object), allow_pickle=True)


def _empty_npy(npy):
    npy.write_bytes(b"")


def _not_npy(npy):
    npy.write_text('{"n": 16, "tol": 1e-09}')


def _zip_npy(npy):
    # the signature np.load takes for an .npz archive
    npy.write_bytes(b"PK\x03\x04" + npy.read_bytes())


def _bare_table(npy):
    # the (n, 7) float64 table alone, without request and plateau
    np.save(npy, np.load(npy)["table"])


@pytest.mark.parametrize("corrupt", [
    _truncate_npy, _not_npy, _rewrite("request", (7.0, 16, 1e-9)),
    _retable(lambda a: a[:-1]), _retable(_nan_entry), _other_n,
    _rewrite("request", (5.0, 16, 1e-8)), _header_only,
    _retable(lambda a: a[:, :6]), _rewrite("c2_inf", np.nan),
    _rewrite("c2_inf", 0.0), _retable(lambda a: a.T),
    _retable(lambda a: a.astype(np.float32)), _object_array, _empty_npy,
    _zip_npy, _bare_table,
    _rewrite(dtype=[("table", "<f8", (16, 7)),
                    ("request", [("t_max", "<f8"), ("n", "<f8"), ("tol", "<f8")]),
                    ("c2_inf", "<f8")]),
    _retable(_stretched_times),
], ids=["truncated_npy", "not_npy", "other_t_max", "wrong_row_count",
        "nan_row", "other_n", "other_tol", "header_only", "six_columns",
        "nan_c2_inf", "zero_c2_inf", "transposed", "float32", "object_array",
        "empty_npy", "zip_signature", "bare_table", "float_request_n",
        "stretched_time_column"])
def test_tabulate_cache_recomputes_bad_entries(tmp_path, caplog, corrupt):
    spec = _spec(p=1.0, beta=2.0)
    cache = str(tmp_path)
    cold = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=cache)
    (npy,) = tmp_path.iterdir()
    cold_bytes = npy.read_bytes()
    corrupt(npy)
    assert npy.read_bytes() != cold_bytes
    with caplog.at_level("WARNING", logger="spinbath"), warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=cache)
    assert npy.read_bytes() == cold_bytes
    assert list(tmp_path.iterdir()) == [npy]
    assert np.array_equal(warm.q2, cold.q2) and warm.c2_inf == cold.c2_inf
    (record,) = caplog.records
    assert record.name.startswith("spinbath") and str(npy) in record.getMessage()


def test_tabulate_cache_hit_logs_nothing(tmp_path, caplog):
    spec = _spec(p=1.0, beta=2.0)
    sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    with caplog.at_level("DEBUG", logger="spinbath"):
        sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert not caplog.records


def _no_quadrature(*args, **kwargs):
    raise AssertionError("kernel quadrature ran on a cache hit")


def _assert_cache_hit(cache, cold, monkeypatch, caplog):
    """Reload the _spec(p=1.0, beta=2.0) table from cache: a hit that runs no
    quadrature, logs and warns nothing, and leaves every file as it was."""
    files = sorted(cache.iterdir())
    before = [p.read_bytes() for p in files]
    with monkeypatch.context() as mp, warnings.catch_warnings(), \
            caplog.at_level("DEBUG", logger="spinbath"):
        mp.setattr(bath_correlations, "integrate_refining", _no_quadrature)
        warnings.simplefilter("error")
        warm = sb.tabulate_kernels(_spec(p=1.0, beta=2.0), 5.0, 16,
                                   cache_dir=str(cache))
    assert not caplog.records
    assert sorted(cache.iterdir()) == files
    assert [p.read_bytes() for p in files] == before
    assert np.array_equal(warm.q2, cold.q2) and warm.c2_inf == cold.c2_inf


def test_tabulate_cache_hit_skips_the_support_probe(tmp_path, monkeypatch):
    spec = _spec(p=1.0, beta=2.0)
    cold = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    calls = []
    original = bath_correlations._support_bound

    def counting(h):
        calls.append(h)
        return original(h)

    monkeypatch.setattr(bath_correlations, "_support_bound", counting)
    warm = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert calls == []
    for name in ("t_grid", "q1", "q2", "qz", "err_est"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name))
    assert warm.c2_inf == cold.c2_inf


def test_tabulate_cache_miss_fits_the_infrared_exponent_once(tmp_path,
                                                             monkeypatch):
    calls = []
    original = bath_correlations.infrared_exponent

    def counting(h):
        calls.append(h)
        return original(h)

    monkeypatch.setattr(bath_correlations, "infrared_exponent", counting)
    spec = _spec(p=1.0, beta=2.0)
    sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert len(calls) == 1
    sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert len(calls) == 2


def test_tabulate_cache_checks_the_infrared_exponent_first(tmp_path):
    grid = np.linspace(0.0, 3.0, 301)
    values = np.zeros_like(grid)
    values[1:] = grid[1:] ** -0.75 * np.exp(-grid[1:])
    spec = sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=1.0,
                       h=sb.tabulated(grid, values))
    with pytest.raises(sb.InfraredError):
        sb.tabulate_kernels(spec, 5.0, 16, cache_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


def _tabulate_after(barrier, cache):
    barrier.wait(timeout=60)
    sb.tabulate_kernels(_spec(p=1.0, beta=2.0), 5.0, 16, cache_dir=cache)


def test_two_processes_writing_one_key_leave_one_valid_entry(tmp_path,
                                                            monkeypatch,
                                                            caplog):
    shared, cold_dir = tmp_path / "shared", tmp_path / "cold"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_tabulate_after, args=(barrier, str(shared)))
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
    cold = sb.tabulate_kernels(_spec(p=1.0, beta=2.0), 5.0, 16,
                               cache_dir=str(cold_dir))
    names = sorted(p.name for p in cold_dir.iterdir())
    assert sorted(p.name for p in shared.iterdir()) == names
    assert [(shared / n).read_bytes() for n in names] == \
        [(cold_dir / n).read_bytes() for n in names]
    _assert_cache_hit(shared, cold, monkeypatch, caplog)


def test_atomic_write_takes_bytes(tmp_path):
    path = tmp_path / "entry.npy"
    atomic_write(str(path), b"\x93NUMPY\x00\n")
    assert path.read_bytes() == b"\x93NUMPY\x00\n"
    assert os.listdir(tmp_path) == ["entry.npy"]


def test_atomic_write_survives_concurrent_writers(tmp_path):
    path = str(tmp_path / "key.csv")
    texts = [("%d\n" % i) * 4000 for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(atomic_write, path, texts[i % 8])
                       for i in range(64)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    with open(path) as fh:
        assert fh.read() in texts
    assert os.listdir(tmp_path) == ["key.csv"]


def test_error_estimates_honest():
    spec = _spec(p=1.0, beta=2.0)
    loose = sb.tabulate_kernels(spec, 10.0, 20, tol=1e-5)
    tight = sb.tabulate_kernels(spec, 10.0, 20, tol=1e-11)
    for col, loose_v, tight_v in ((0, loose.q1, tight.q1),
                                  (1, loose.q2, tight.q2),
                                  (2, loose.qz, tight.qz)):
        true_err = np.abs(loose_v - tight_v)
        assert np.all(true_err <= 5.0 * loose.err_est[:, col] + 1e-13)


def test_refinement_convergence_within_err():
    spec = _spec(p=0.5, cutoff="gaussian", beta=1.0)
    base = sb.tabulate_kernels(spec, 6.0, 12, tol=1e-6)
    finer = sb.tabulate_kernels(spec, 6.0, 12, tol=5e-7)
    assert np.all(np.abs(base.q2 - finer.q2) <= base.err_est[:, 1] + 1e-13)


# --- direct and chirp-z integrands ----------------------------------------------

OHMIC_SPEC = sb.BathSpec(beta=1.0, eps=0.25, delta=0.2, q0=1.0,
                         h=sb.power_exp(-0.5, "exponential"))


def _direct_rows(source, beta, ts, omega, w):
    """The three kernel rows at (omega, w) in long double, trig evaluated
    directly at every (t, omega) pair."""
    L = np.longdouble
    om = omega.astype(L)
    g = w.astype(L) * np.asarray(source.j(omega), dtype=float).astype(L) / om ** 2
    theta = np.multiply.outer(ts.astype(L), om)
    s2 = 2 * np.sin(theta / 2) ** 2
    x = L(0.5) * L(beta) * om
    q1 = np.sum(np.sin(theta) * g, axis=1)
    q2 = np.sum(s2 * (g / np.tanh(x)), axis=1)
    qz = np.sum((np.tanh(x / 2) + s2 / np.sinh(x)) * g, axis=1)
    return np.concatenate([q1, q2, qz])


@pytest.mark.parametrize("spec, chunk", [
    (sb.standard_oracle_bath(), slice(392, 400)),   # last, evenly spaced
    (OHMIC_SPEC, slice(392, 400)),
    (sb.standard_oracle_bath(), slice(8, 16)),      # geometric head
], ids=["oracle-last", "ohmic-last", "oracle-head"])
def test_chunk_rows_match_long_double_direct_evaluation(spec, chunk):
    # the direct integrand of a chunk, with its head summed by moments
    source = bath_correlations.j_source_from_spec(spec)
    ts = _time_grid(32.0, 400)[chunk]
    res = _evaluate(source, ts, 1e-9, "all", "chunk")
    edges, width, _ = _edges(source, float(ts[-1]), spec.beta, 0.0, "chunk")
    for _ in range(res.passes):
        edges = quadrature.refine_edges(edges)
    omega, w = quadrature.panel_nodes(edges)
    got = _kernel_rows(source, ts, "all", width, 0)(omega, w)
    # these are the nodes of the call's last pass
    assert np.array_equal(got, res.values)
    ref = _direct_rows(source, spec.beta, ts, omega, w)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# a tabulated form factor, whose 50 knots are breaks of J
_KNOTS = np.linspace(0.01, 10.0, 50)
BROKEN_SPEC = sb.BathSpec(beta=1.0, eps=0.5, delta=0.1, q0=1.0,
                          h=sb.tabulated(_KNOTS, _KNOTS * np.exp(-_KNOTS)))


FOUR_BATHS = {
    "ohmic-beta1": OHMIC_SPEC,
    "ohmic-beta4": sb.BathSpec(beta=4.0, eps=0.25, delta=0.2, q0=1.0,
                               h=sb.power_exp(-0.5, "exponential")),
    "gaussian-p0.5-beta4": sb.standard_oracle_bath(),
    "exponential-p1-beta0.5": _spec(p=1.0, beta=0.5),
}


def _shared_pass(spec, t_max, n):
    """The converged shared-set call of an n-point table, and its last nodes."""
    source = bath_correlations.j_source_from_spec(spec)
    ts = _time_grid(t_max, n)[_first_linear_chunk(n):]
    res = _evaluate(source, ts, 1e-9, "all", "table", shared=True)
    edges, width, panels = _edges(source, t_max, spec.beta, 0.0, "table")
    for _ in range(res.passes):
        edges = quadrature.refine_edges(edges)
    return source, ts, res, quadrature.panel_nodes(edges), width, panels


@pytest.mark.parametrize("n", [400, 404])
@pytest.mark.parametrize("name", list(FOUR_BATHS))
def test_linear_rows_by_chirp_z_match_long_double_reference(name, n):
    spec = FOUR_BATHS[name]
    source, ts, res, (omega, w), width, panels = _shared_pass(spec, 32.0, n)
    assert res.values.shape == (-(-len(ts) // 8), 24)
    got = _kernel_rows(source, ts, "all", width, panels)(omega, w)
    # these are the nodes of the call's last pass
    assert np.array_equal(got, res.values)
    # a ragged last chunk is padded with copies of its last row
    padded = np.concatenate([ts, np.repeat(ts[-1:], -len(ts) % 8)])
    # the first, a middle and the last chunk, each against its own largest
    # value and against the largest value of the three
    largest = 0.0
    for g in (0, len(got) // 2, len(got) - 1):
        ref = _direct_rows(source, spec.beta, padded[8 * g:8 * g + 8], omega, w)
        diff = np.max(np.abs(got[g] - ref))
        assert diff <= 1e-13 * np.max(np.abs(ref))
        largest = max(largest, float(np.max(np.abs(ref))))
    assert largest > 0.0


def test_table_linear_rows_match_pointwise_kernels():
    spec = _spec(p=0.5, cutoff="gaussian", beta=1.5)
    tol = 1e-9
    table = sb.tabulate_kernels(spec, 16.0, 64, tol=tol)
    first = _first_linear_chunk(64)
    assert first == 24
    for i in (first, 43, 63):
        t = float(table.t_grid[i])
        point = [sb.q1(spec, t)[0], sb.q2(spec, t)[0], sb.qz(spec, t)[0]]
        scale = max(abs(v) for v in point)
        got = [table.q1[i], table.q2[i], table.qz[i]]
        assert np.all(np.abs(np.subtract(got, point)) <= tol * scale)


def test_shared_set_takes_no_sine_or_cosine(monkeypatch):
    # the head is summed by its moments and the main panels by chirp-z
    # transforms, so no (t, omega) pair takes a sine or a cosine
    spec = OHMIC_SPEC
    source, ts, res, (omega, w), width, panels = _shared_pass(spec, 32.0, 400)
    counts = {"sin": 0, "cos": 0, "exp": 0}
    for name in counts:
        def counted(x, *args, _name=name, _f=getattr(np, name), **kwargs):
            counts[_name] += np.size(x)
            return _f(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    _kernel_rows(source, ts, "all", width, panels)(omega, w)
    head = int(np.searchsorted(omega, width))
    main = len(omega) - head
    p = main // 6
    assert counts["sin"] == counts["cos"] == 0
    # per node the cutoff of J and exp(-x) of the thermal factors; per main
    # node exp(i t_0 omega); two chirp factors of length max(P, K), and one
    # step per Gauss index and row
    assert counts["exp"] == (2 * len(omega) + main + 2 * max(p, len(ts))
                             + 6 * len(ts))


@pytest.mark.parametrize("name", list(FOUR_BATHS))
def test_head_moments_match_long_double_on_the_last_row(name):
    # at t = t_max, t W = pi/2, where the series converges slowest; each
    # sum is of nonnegative terms, so it is held to its own value
    spec = FOUR_BATHS[name]
    source, ts, res, (omega, w), width, panels = _shared_pass(spec, 32.0, 400)
    assert ts[-1] * width == pytest.approx(np.pi / 2, rel=1e-15)
    head = int(np.searchsorted(omega, width))
    om = omega[:head]
    wg = w[:head] * np.asarray(source.j(om), dtype=float) / om ** 2
    coth, csch, _ = _thermal_factors(0.5 * spec.beta * om)
    b = np.array([wg, wg * coth, wg * csch])
    got = _moment_sums(ts[-1:], om, b, width, 1)[:, 0]
    theta = np.longdouble(ts[-1]) * om.astype(np.longdouble)
    one_minus_cos = 2 * np.sin(theta / 2) ** 2
    ref = np.sum(b.astype(np.longdouble)
                 * np.array([np.sin(theta), one_minus_cos, one_minus_cos]), axis=1)
    assert np.all(ref > 0.0)
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)


def test_shared_rows_are_linear_times_from_a_whole_chunk():
    for n in (9, 12, 16, 24, 60, 64, 160, 400, 401, 404):
        first = _first_linear_chunk(n)
        t = _time_grid(10.0, n)
        assert first % 8 == 0 and first < n
        assert t[first] > 1.0 and first >= 1 + bath_correlations._n_geo(n)
        steps = np.diff(t[first - 1:])
        assert np.allclose(steps, steps[0], rtol=1e-12, atol=0.0)
    # a grid of at most 8 rows has no linear rows past its first chunk
    assert [_first_linear_chunk(n) for n in range(4, 9)] == [8] * 5
    assert _first_linear_chunk(400) == 136


def _direct_pass(spec, t_max, n):
    """The converged call of an n-point table's rows below its shared set,
    and its last nodes."""
    source = bath_correlations.j_source_from_spec(spec)
    ts = _time_grid(t_max, n)[:_first_linear_chunk(n)]
    res = _evaluate(source, ts, 1e-9, "all", "table")
    edges, width, _ = _edges(source, float(ts[-1]), spec.beta, 0.0, "table")
    for _ in range(res.passes):
        edges = quadrature.refine_edges(edges)
    return source, ts, res, quadrature.panel_nodes(edges), width


@pytest.mark.parametrize("name", list(FOUR_BATHS))
def test_grouped_direct_rows_match_long_double_reference(name):
    spec = FOUR_BATHS[name]
    source, ts, res, (omega, w), width = _direct_pass(spec, 32.0, 400)
    chunks = len(ts) // 8
    assert res.values.shape == (chunks, 24)
    # the table's rows below the shared set are this call's
    table = sb.tabulate_kernels(spec, 32.0, 400)
    q1v, q2v, qzv = _by_kernel(res.values)
    assert np.array_equal(table.q1[1:len(ts)], q1v[1:])
    assert np.array_equal(table.q2[1:len(ts)], q2v[1:])
    assert np.array_equal(table.qz[:len(ts)], qzv)
    got = _kernel_rows(source, ts, "all", width, 0)(omega, w)
    # these are the nodes of the call's last pass
    assert np.array_equal(got, res.values)
    # every chunk against its own largest value
    for g in range(chunks):
        ref = _direct_rows(source, spec.beta, ts[8 * g:8 * g + 8], omega, w)
        assert np.max(np.abs(got[g] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_only_a_pointwise_call_takes_sine_and_cosine_on_its_head(monkeypatch):
    # a grouped table call sums its head by moments, so only its main-panel
    # nodes take a sine/cosine pair per row; a pointwise call, whose single
    # row makes moments dearer than the pairs, takes one on every node
    source = bath_correlations.j_source_from_spec(OHMIC_SPEC)
    ts = _time_grid(32.0, 400)[:_first_linear_chunk(400)]
    edges, _, panels = _edges(source, float(ts[-1]), source.beta, 0.0, "table")
    quadrature.leggauss(6)
    counts = {"sin": 0, "cos": 0}
    for name in counts:
        def counted(x, *args, _name=name, _f=getattr(np, name), **kwargs):
            counts[_name] += np.size(x)
            return _f(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    res = _evaluate(source, ts, 1e-9, "all", "table")
    # every pass splits every panel, so the main panels keep their share
    main = res.nodes * panels // (len(edges) - 1)
    assert 0 < main < res.nodes
    assert counts == {"sin": len(ts) * main, "cos": len(ts) * main}
    counts.update(sin=0, cos=0)
    res = _evaluate(source, [2.0], 1e-9, "q2", "q2 at t=2")
    assert counts == {"sin": res.nodes, "cos": res.nodes}


def _count_quadratures(monkeypatch):
    """Patch the engine of the kernels to record every call's label."""
    labels = []
    original = bath_correlations.integrate_refining

    def counting(*args, **kwargs):
        labels.append(kwargs.get("what"))
        return original(*args, **kwargs)

    monkeypatch.setattr(bath_correlations, "integrate_refining", counting)
    return labels


@pytest.mark.parametrize("bath, n", [
    *(("smooth", n) for n in [*range(4, 41), 400, 401, 404]),
    ("breaks", 64), ("breaks", 400)])
def test_cold_table_is_three_quadratures(bath, n, monkeypatch):
    # the plateau, the rows below the first whole chunk of linear times as
    # the groups of one call, and the other rows as one call: the shared set,
    # or for a bath with breaks the groups of a second direct call
    labels = _count_quadratures(monkeypatch)
    shared = []
    original = bath_correlations._evaluate
    monkeypatch.setattr(
        bath_correlations, "_evaluate",
        lambda *args, **kwargs: (shared.append(kwargs.get("shared", False))
                                 or original(*args, **kwargs)))
    breaks = bath == "breaks"
    sb.tabulate_kernels(BROKEN_SPEC if breaks else _spec(p=1.0, beta=2.0),
                        20.0, n)
    t = _time_grid(20.0, n)
    first = min(_first_linear_chunk(n), n)
    table = bath_correlations._TABLE
    expected = ["c2_saturation", table % (t[0], t[first - 1])]
    if first < n:
        expected.append(table % (t[first], t[-1]))
    assert labels == expected
    assert shared == [False] + [not breaks] * (first < n)


def test_oracle_bath_table_work_is_pinned(monkeypatch):
    # node and pass totals of the 160-point table the kernels benchmark
    # tabulates at beta 4: the plateau, the 7 direct chunks as the groups of
    # one call, and the shared set of the other 13
    totals = [0, 0]
    original = bath_correlations.integrate_refining

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        totals[0] += res.nodes
        totals[1] += res.passes
        return res

    monkeypatch.setattr(bath_correlations, "integrate_refining", counting)
    sb.tabulate_kernels(sb.standard_oracle_bath(), 32.0, 160, tol=1e-9)
    assert totals == [6870, 4]
