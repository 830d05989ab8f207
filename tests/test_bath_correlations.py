"""Tests for the bath kernels against closed-form and quadrature oracles."""

import json
import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

import spinbath as sb
from spinbath import bath_correlations, quadrature
from spinbath.bath_correlations import (_half_angles, _kernel_rows, _time_grid,
                                        coth_stable, inv_sinh)
from spinbath.fileio import atomic_write

OHMIC = sb.JSource(j=lambda w: w * np.exp(-w), omega_max=45.0, ir_exponent=1.0)


def _spec(p=1.0, cutoff="exponential", beta=2.0, q0=1.0):
    return sb.BathSpec(beta=beta, eps=0.5, delta=0.2, q0=q0,
                       h=sb.power_exp(p, cutoff))


# --- stable helpers ----------------------------------------------------------

def test_coth_stable_series_joins_direct():
    x = np.array([1e-7, 5e-5, 9.9e-5, 1.01e-4, 1e-3, 0.1, 1.0, 50.0])
    direct = np.cosh(x) / np.sinh(x)
    assert np.allclose(coth_stable(x), direct, rtol=1e-12)


def test_inv_sinh_branches():
    x = np.array([1e-7, 1e-5, 1e-3, 0.5, 10.0, 29.0, 31.0, 700.0, 800.0])
    out = inv_sinh(x)
    safe = x < 700
    assert np.allclose(out[safe], 1.0 / np.sinh(x[safe]), rtol=1e-10)
    assert np.isfinite(out).all()
    assert out[-1] == pytest.approx(2.0 * np.exp(-800.0), rel=1e-12)


# --- q1 ----------------------------------------------------------------------

def test_q1_zero_time():
    assert sb.q1(_spec(), 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_q1_arctan_closed_form(t):
    # J = w e^-w gives Q1(t) = arctan(t)
    value, err = sb.q1(OHMIC, t)
    assert value == pytest.approx(np.arctan(t), abs=1e-8)


def test_q1_linearity_in_j():
    j_a = sb.JSource(j=lambda w: w * np.exp(-w), omega_max=45.0, ir_exponent=1.0)
    j_b = sb.JSource(j=lambda w: w ** 3 * np.exp(-2 * w), omega_max=45.0,
                     ir_exponent=3.0)
    j_sum = sb.JSource(j=lambda w: w * np.exp(-w) + w ** 3 * np.exp(-2 * w),
                       omega_max=45.0, ir_exponent=1.0)
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


# --- q2 ----------------------------------------------------------------------

def test_q2_zero_time():
    assert sb.q2(_spec(), 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_q2_zero_temperature_log_form(t):
    # at beta = 1e6 the coth is 1 over the support: Q2 -> (1/2) ln(1 + t^2)
    value, err = sb.q2(OHMIC, t, beta=1e6)
    assert value == pytest.approx(0.5 * np.log1p(t * t), abs=1e-6)


def test_q2_requires_beta_for_injected_source():
    with pytest.raises(sb.UsageError):
        sb.q2(OHMIC, 1.0)


def test_q2_monotone_before_first_extremum():
    spec = _spec()
    ts = np.linspace(0.0, 0.5, 8)
    vals = [sb.q2(spec, t)[0] for t in ts]
    assert np.all(np.diff(vals) >= 0.0)


def test_q2_extreme_beta_finite():
    value, err = sb.q2(_spec(beta=1e8), 1.0)
    assert np.isfinite(value) and value >= 0.0


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
    assert sb.c2_saturation(OHMIC, beta=2.0) == np.inf


def test_c2_saturation_declines_an_underflowing_head():
    # infrared exponent 2.06: the geometric head spans 1000 octaves below the
    # first panel, where omega^2 underflows and J / omega^2 would be 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sb.AccuracyError, match="too close to 2"):
            sb.c2_saturation(_spec(p=0.03125, beta=1.0))


# --- tabulation ---------------------------------------------------------------

def test_tabulate_degenerate_single_row():
    table = sb.tabulate_kernels(_spec(), 0.0, 1)
    assert table.t_grid.shape == (1,)
    assert table.q1[0] == table.q2[0] == table.qz[0] == 0.0
    assert np.all(table.err_est == 0.0)


def test_tabulate_invariants_and_tail():
    spec = _spec(p=1.0, beta=2.0)
    table = sb.tabulate_kernels(spec, 30.0, 60)
    assert table.q1[0] == 0.0 and table.q2[0] == 0.0
    assert np.all(np.diff(table.t_grid) > 0.0)
    assert np.all(table.q2 >= 0.0)
    assert np.all(table.qz >= 0.0)
    # p = 1 is superohmic: Q1 tends to 0 and Q2 saturates, so the slope is tiny
    assert table.tail.q2_slope <= 1e-3
    assert np.isfinite(table.tail.c2_inf)
    assert table.q2[-1] == pytest.approx(table.tail.c2_inf, rel=0.05)


def test_tabulate_ohmic_tail_q1_plateau_and_slope():
    spec = _spec(p=-0.5, beta=1.0)
    table = sb.tabulate_kernels(spec, 80.0, 50)
    # J = 2 pi^2 w e^{-2w}: J'(0) = 2 pi^2, so Q1(inf) = pi/2 * 2 pi^2
    assert table.q1[-1] == pytest.approx(np.pi ** 3, rel=0.03)
    assert table.tail.c2_inf == np.inf
    # ohmic Q2 grows linearly with slope pi J'(0)/beta
    assert table.tail.q2_slope == pytest.approx(2.0 * np.pi ** 3, rel=0.05)


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
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 2 and files[0].endswith(".csv") and files[1].endswith(".json")
    second = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=cache)
    assert np.array_equal(first.t_grid, second.t_grid)
    assert np.array_equal(first.q1, second.q1)
    assert np.array_equal(first.q2, second.q2)
    assert np.array_equal(first.qz, second.qz)
    assert np.array_equal(first.err_est, second.err_est)
    assert first.tail == second.tail


def test_tabulate_cache_distinguishes_specs(tmp_path):
    cache = str(tmp_path)
    sb.tabulate_kernels(_spec(p=1.0), 5.0, 8, cache_dir=cache)
    sb.tabulate_kernels(_spec(p=0.5, cutoff="gaussian"), 5.0, 8, cache_dir=cache)
    assert len(list(tmp_path.iterdir())) == 4


def test_tabulate_cache_never_serves_other_numerics(tmp_path, monkeypatch):
    spec = _spec(p=1.0, beta=2.0)
    cache = str(tmp_path)
    sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache)
    assert sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache).converged
    monkeypatch.setattr(bath_correlations, "_NUMERICS_VERSION", "quad-v1")
    sb.tabulate_kernels(spec, 5.0, 8, cache_dir=cache)
    assert len(list(tmp_path.iterdir())) == 4


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
    assert len(list(tmp_path.iterdir())) == 4


def _truncate_csv(csv, meta):
    text = csv.read_text()
    csv.write_text(text[:len(text) // 2])


def _garble_json(csv, meta):
    meta.write_text(meta.read_text()[:-7])


def _rewrite_meta(**fields):
    def corrupt(csv, meta):
        data = json.loads(meta.read_text())
        data.update(fields)
        meta.write_text(json.dumps(data))
    return corrupt


def _rewrite_tail(**fields):
    def corrupt(csv, meta):
        data = json.loads(meta.read_text())
        data["tail"].update(fields)
        meta.write_text(json.dumps(data))
    return corrupt


def _drop_last_row(csv, meta):
    csv.write_text("".join(csv.read_text().splitlines(True)[:-1]))


def _nan_row(csv, meta):
    lines = csv.read_text().splitlines(True)
    cells = lines[3].split(",")
    cells[2] = "nan"
    lines[3] = ",".join(cells)
    csv.write_text("".join(lines))


def _header_only_csv(csv, meta):
    csv.write_text(csv.read_text().splitlines(True)[0])


def _six_columns(csv, meta):
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join([lines[0]] + [r.rsplit(",", 1)[0] for r in lines[1:]]))


@pytest.mark.parametrize("corrupt", [
    _truncate_csv, _garble_json, _rewrite_meta(key="0" * 32), _drop_last_row,
    _nan_row, _rewrite_meta(n=15), _rewrite_meta(tol=1e-8), _header_only_csv,
    _six_columns, _rewrite_meta(converged="false"),
    _rewrite_tail(q2_slope=float("nan")), _rewrite_tail(c2_inf="inf"),
], ids=["truncated_csv", "garbled_json", "wrong_key", "wrong_row_count",
        "nan_row", "other_n", "other_tol", "header_only", "six_columns",
        "string_converged", "nan_q2_slope", "string_c2_inf"])
def test_tabulate_cache_recomputes_bad_entries(tmp_path, caplog, corrupt):
    spec = _spec(p=1.0, beta=2.0)
    cache = str(tmp_path)
    cold = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=cache)
    (csv,) = tmp_path.glob("*.csv")
    meta = csv.with_suffix(".json")
    cold_bytes = csv.read_bytes(), meta.read_bytes()
    corrupt(csv, meta)
    with caplog.at_level("WARNING", logger="spinbath"), warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = sb.tabulate_kernels(spec, 5.0, 16, cache_dir=cache)
    assert (csv.read_bytes(), meta.read_bytes()) == cold_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == [csv.name, meta.name]
    assert np.array_equal(warm.q2, cold.q2) and warm.tail == cold.tail
    (record,) = caplog.records
    assert record.name.startswith("spinbath") and csv.stem in record.getMessage()


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
    assert np.array_equal(warm.q2, cold.q2) and warm.tail == cold.tail


def test_tabulate_cache_serves_sidecars_with_q1_limit(tmp_path, monkeypatch,
                                                      caplog):
    # sidecars written before TailFit lost q1_limit carry it in their tail
    # block; the numerics did not change, so they stay valid entries
    cold = sb.tabulate_kernels(_spec(p=1.0, beta=2.0), 5.0, 16,
                               cache_dir=str(tmp_path))
    (meta,) = tmp_path.glob("*.json")
    data = json.loads(meta.read_text())
    assert set(data["tail"]) == {"c2_inf", "q2_slope"}
    data["tail"]["q1_limit"] = 0.0
    meta.write_text(json.dumps(data, sort_keys=True, indent=1))
    _assert_cache_hit(tmp_path, cold, monkeypatch, caplog)


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
    assert warm.tail == cold.tail and warm.converged is cold.converged


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


# --- half-angle integrand -----------------------------------------------------

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
    source = bath_correlations.j_source_from_spec(spec)
    ts = _time_grid(32.0, 400)[chunk]
    res = bath_correlations._evaluate(source, spec.beta, ts, 1e-9)
    assert res.converged
    edges = bath_correlations._initial_edges(source, float(ts[-1]), spec.beta,
                                             source.ir_exponent)
    for _ in range(res.passes):
        edges = quadrature.refine_edges(edges)
    omega, w = quadrature.panel_nodes(edges)
    got = _kernel_rows(source, spec.beta, ts, "all")(omega, w)
    # these are the nodes of the call's last pass
    assert np.array_equal(got, res.values)
    ref = _direct_rows(source, spec.beta, ts, omega, w)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # node by node: sin and cos within a few ulp of the half angle, and sin
    # relatively accurate below angle 1, where the Q2 and Qz rows need it
    half = np.multiply.outer(ts.astype(np.longdouble), omega) / 2
    s, c = _half_angles(ts, omega)
    bound = 2e-15 * np.maximum(half, 1.0)
    assert np.all(np.abs(s - np.sin(half)) <= bound)
    assert np.all(np.abs(c - np.cos(half)) <= bound)
    small = half < 1.0
    assert np.all(np.abs(s - np.sin(half))[small]
                  <= 2e-15 * np.abs(np.sin(half))[small])


def test_evenly_spaced_chunk_takes_two_sine_cosine_pairs_per_node(monkeypatch):
    counts = {"sin": 0, "cos": 0}
    for name in counts:
        def counted(x, *args, _name=name, _f=getattr(np, name), **kwargs):
            counts[_name] += np.size(x)
            return _f(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    omega = np.linspace(1e-3, 8.0, 1000)
    t = _time_grid(32.0, 400)
    for ts, per_node in ((t[392:400], 2), (t[8:16], 8), (t[128:136], 8),
                         (t[-1:], 1)):
        counts.update(sin=0, cos=0)
        s, c = _half_angles(ts, omega)
        assert counts == {"sin": per_node * 1000, "cos": per_node * 1000}
        assert s.shape == c.shape == (len(ts), 1000)


def test_oracle_bath_table_work_is_pinned(monkeypatch):
    # node and pass totals of the 160-point table the kernels benchmark
    # tabulates at beta 4; the integrand changes no refinement decision
    totals = [0, 0]
    original = bath_correlations.integrate_refining

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        totals[0] += res.nodes
        totals[1] += res.passes
        return res

    monkeypatch.setattr(bath_correlations, "integrate_refining", counting)
    table = sb.tabulate_kernels(sb.standard_oracle_bath(), 32.0, 160, tol=1e-9)
    assert table.converged
    assert totals == [38010, 28]
