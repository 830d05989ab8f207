"""End-to-end tests of the CLI subcommands and their report files."""

import copy
import io
import json
import logging
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

import spinbath as sb
from spinbath import bath_correlations, cli, constants_ledger, relaxation
from spinbath.cli import _build_parser, main

BASE = {
    "bath": {"beta": 1.0, "eps": 0.5, "delta": 0.2, "q0": 1.0,
             "h": {"family": "power_exp", "p": -0.5, "cutoff": "exponential"}},
    "kernels": {"n": 200, "tol": 1.0e-8},
}


def _config(tmp_path, updates=None, name="run.yaml"):
    raw = copy.deepcopy(BASE)
    for key, value in (updates or {}).items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def _read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


# --- rate -----------------------------------------------------------------------

def test_rate_writes_stamped_reports(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out, "rate.json")
    expected_hash = sb.load_config(cfg).content_hash
    assert report["config_sha256"] == expected_hash
    assert report["version"] == sb.__version__
    assert report["tau_inv"] > 0.0
    lines = (out / "p_of_t.csv").read_text().splitlines()
    assert lines[0] == "# config_sha256=%s version=%s" % (expected_hash,
                                                          report["version"])
    assert lines[1] == "t,P"
    assert len(lines) == 2 + 201


def test_rate_outputs_are_deterministic(tmp_path):
    cfg = _config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["rate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["rate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "rate.json").read_bytes() == (out2 / "rate.json").read_bytes()
    assert (out1 / "p_of_t.csv").read_bytes() == (out2 / "p_of_t.csv").read_bytes()


def test_rate_decoupled_spin_is_constant(tmp_path):
    cfg = _config(tmp_path, {"bath": {"delta": 0.0}})
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    assert _read_json(out, "rate.json")["tau_inv"] == 0.0
    data = np.loadtxt(out / "p_of_t.csv", delimiter=",", skiprows=2)
    assert np.all(data[:, 1] == 1.0)


def test_formats_limit_outputs(tmp_path):
    cfg = _config(tmp_path, {"output": {"formats": ["json"]}})
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "rate.json").exists()
    assert not (out / "p_of_t.csv").exists()


# --- lso ------------------------------------------------------------------------

def test_lso_report_residuals(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["lso", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out, "lso.json")
    assert report["db_residual"] < 1e-5
    assert report["trace_gap"] < 1e-5
    assert report["kernel_residual"] < 1e-5
    assert len(report["matrix"]) == 4
    assert report["matrix"][0][:2] == [0, 0]


def test_lso_writes_its_json_report_under_any_formats(tmp_path):
    # output.formats selects files for rate and sweep only; lso has one report
    cfg = _config(tmp_path, {"output": {"formats": ["csv"]}})
    out = tmp_path / "out"
    assert main(["lso", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["cache", "lso.json"]


def test_lso_eps_flip_swaps_entries(tmp_path):
    out_p, out_m = tmp_path / "p", tmp_path / "m"
    cfg_p = _config(tmp_path, name="p.yaml")
    cfg_m = _config(tmp_path, {"bath": {"eps": -0.5}}, name="m.yaml")
    assert main(["lso", "--config", cfg_p, "--out", str(out_p)]) == 0
    assert main(["lso", "--config", cfg_m, "--out", str(out_m)]) == 0
    plus = _read_json(out_p, "lso.json")
    minus = _read_json(out_m, "lso.json")
    assert plus["x_plus"] == pytest.approx(minus["x_minus"], rel=1e-12)
    assert plus["x_minus"] == pytest.approx(minus["x_plus"], rel=1e-12)


def test_lso_rejects_zero_coupling(tmp_path, capsys):
    cfg = _config(tmp_path, {"bath": {"q0": 0.0}, "kernels": {"t_max": 30.0}})
    assert main(["lso", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "diverge" in capsys.readouterr().err


# --- regularity -----------------------------------------------------------------

def test_regularity_verdict_exit_codes(tmp_path):
    smooth = _config(tmp_path, {"bath": {"h": {"family": "power_exp",
                                               "p": 3.5,
                                               "cutoff": "exponential"}}},
                     name="smooth.yaml")
    out = tmp_path / "out_pass"
    assert main(["regularity", "--config", smooth, "--out", str(out)]) == 0
    assert _read_json(out, "regularity.json")["verdict"] == "pass"
    rough = _config(tmp_path, name="rough.yaml")
    out = tmp_path / "out_fail"
    assert main(["regularity", "--config", rough, "--out", str(out)]) == 2
    report = _read_json(out, "regularity.json")
    assert report["verdict"] == "fail"
    assert report["alpha"] == 2.2


@pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
def test_regularity_refuses_bad_alpha(tmp_path, capsys, alpha):
    smooth = _config(tmp_path, SMOOTH_BATH)
    out = tmp_path / "out"
    assert main(["regularity", "--config", smooth, "--out", str(out),
                 "--", alpha]) == 1
    assert "alpha" in capsys.readouterr().err
    assert not (out / "regularity.json").exists()


def test_regularity_positional_alpha(tmp_path):
    smooth = _config(tmp_path, {"bath": {"h": {"family": "power_exp",
                                               "p": 3.5,
                                               "cutoff": "exponential"}}})
    out = tmp_path / "out"
    assert main(["regularity", "1.8", "--config", smooth,
                 "--out", str(out)]) == 0
    assert _read_json(out, "regularity.json")["alpha"] == 1.8


def _strict_json(path):
    def refuse(token):
        raise ValueError("%s is not JSON" % token)

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.filterwarnings("error")
def test_regularity_refuses_an_overflowing_alpha(tmp_path, capsys):
    # on the smooth bath at beta 1 the weighted norm is finite up to alpha 45
    # and overflows from alpha 50: refused by name, with no numpy warning
    smooth = _config(tmp_path, SMOOTH_BATH)
    out = tmp_path / "out"
    assert main(["regularity", "300", "--config", smooth, "--out", str(out)]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not (out / "regularity.json").exists()
    assert main(["regularity", "45", "--config", smooth, "--out", str(out)]) == 2
    report = _strict_json(out / "regularity.json")
    assert report["verdict"] == "fail" and report["alpha"] == 45.0
    assert all(np.isfinite(report["values"]))


@pytest.mark.filterwarnings("error")
def test_threshold_refuses_an_overflowing_alpha(tmp_path, capsys):
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["constants"] = {"alpha": 300.0, "c_kms": 2.0, "c3": 5.0, "c5": 1.0,
                            "tau0": 2.0}
    cfg = _config(tmp_path, updates)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "overflows" in err and "did not converge" not in err
    assert not (out / "threshold.json").exists()


def test_threshold_refuses_an_overflowing_alpha_before_tabulating(tmp_path, capsys):
    # without tau0 the rate needs a kernel table; the regularity norm is
    # checked first, so the refusal leaves no cache entry
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["constants"] = {"alpha": 300.0, "c_kms": 2.0, "c5": 1.0}
    cfg = _config(tmp_path, updates)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out),
                 "--allow-heuristics"]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not (out / "cache").exists()
    assert not (out / "threshold.json").exists()


# --- threshold ------------------------------------------------------------------

SMOOTH_BATH = {"bath": {"h": {"family": "power_exp", "p": 0.5,
                              "cutoff": "gaussian"}}}


def test_threshold_requires_heuristics_opt_in(tmp_path, capsys):
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["constants"] = {"c_kms": 2.0, "c5": 1.0, "tau0": 2.0}
    cfg = _config(tmp_path, updates)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 1
    assert "c3" in capsys.readouterr().err
    assert main(["threshold", "--config", cfg, "--out", str(out),
                 "--allow-heuristics"]) == 0
    report = _read_json(out, "threshold.json")
    assert report["inputs_used"]["c3"]["provenance"] == "heuristic_default"
    assert 0.0 < report["delta0"] <= 1.0


def test_threshold_user_constants_need_no_flag(tmp_path):
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["constants"] = {"c_kms": 2.0, "c3": 5.0, "c5": 1.0, "tau0": 2.0}
    cfg = _config(tmp_path, updates)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out, "threshold.json")
    assert report["inputs_used"]["c3"]["provenance"] == "user"
    assert report["inputs_used"]["tau0"]["provenance"] == "user"
    assert report["c1"] > 0.0
    assert report["c2"] > report["c1"] / np.sqrt(2.0)
    assert 0.0 < report["delta0"] <= 1.0


def test_threshold_missing_required_inputs(tmp_path, capsys):
    cfg = _config(tmp_path, copy.deepcopy(SMOOTH_BATH))
    assert main(["threshold", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 1
    assert "c_kms" in capsys.readouterr().err


def test_threshold_refuses_missing_user_inputs_before_computing(
        tmp_path, capsys, monkeypatch):
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["constants"] = {"c_kms": 2.0, "c3": 5.0}

    def computed(*args, **kwargs):
        raise AssertionError("threshold computed before checking its inputs")

    monkeypatch.setattr(cli, "cached_level_shift", computed)
    monkeypatch.setattr(constants_ledger, "coupling_function", computed)
    out = tmp_path / "out"
    assert main(["threshold", "--config", _config(tmp_path, updates),
                 "--out", str(out)]) == 1
    assert "c_kms and c5" in capsys.readouterr().err
    assert not (out / "cache").exists()
    assert not (out / "threshold.json").exists()


# --- oracle ---------------------------------------------------------------------

def test_oracle_report_schema(tmp_path):
    updates = {
        "bath": {"beta": 4.0, "eps": 0.25, "delta": 0.1,
                 "q0": 1.2568508382517989,
                 "h": {"family": "power_exp", "p": 0.5, "cutoff": "gaussian"}},
        "kernels": {"n": 300, "tol": 1.0e-8},
        "oracle": {"n_max": 2, "u_max": 3.0,
                   "schedule": [[1, 0.4], [2, 0.2], [3, 0.1]]},
    }
    cfg = _config(tmp_path, updates)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out, "oracle.json")
    assert report["schedule"] == [[1, 0.4], [2, 0.2], [3, 0.1]]
    assert len(report["rungs"]) == 3
    keys = {"x_plus", "x_minus", "z"}
    assert set(report["extrapolated"]) == keys
    assert set(report["continuum"]) == keys
    assert set(report["rel_delta"]) == keys
    assert set(report["monotone"]) == keys
    for rung in report["rungs"]:
        assert set(rung["entries"]) == keys
        assert len(rung["matrix"]) == 4
    assert report["truncation"]["n_max"] == 2
    assert report["config_sha256"] == sb.load_config(cfg).content_hash


def test_oracle_reports_the_default_span(tmp_path):
    # without oracle.u_max the ladder discretizes on 12 / beta, and the
    # report says so
    updates = {
        "bath": {"beta": 3.0, "eps": 0.25, "delta": 0.1,
                 "q0": 1.2568508382517989,
                 "h": {"family": "power_exp", "p": 0.5, "cutoff": "gaussian"}},
        "kernels": {"n": 300, "tol": 1.0e-8},
        "oracle": {"n_max": 1, "schedule": [[1, 0.4], [2, 0.2], [3, 0.1]]},
    }
    cfg = _config(tmp_path, updates)
    assert sb.load_config(cfg).oracle.u_max is None
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    assert _read_json(out, "oracle.json")["truncation"]["u_max"] == 12.0 / 3.0


# --- sweep ----------------------------------------------------------------------

def test_sweep_schema_and_parallel_agreement(tmp_path):
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["sweep"] = {"param_name": "q0", "values": [0.5, 1.0]}
    cfg = _config(tmp_path, updates)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2),
                 "--jobs", "2"]) == 0
    lines = (out1 / "sweep.csv").read_text().splitlines()
    assert lines[1] == "q0,tau_inv,tau0_inv,p_inf,err"
    assert len(lines) == 2 + 2
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    report = _read_json(out1, "sweep.json")
    assert [row["value"] for row in report["rows"]] == [0.5, 1.0]
    assert report["rows"] == _read_json(out2, "sweep.json")["rows"]
    assert _cache_listing(out1) and _cache_listing(out2)
    assert set(_cache_listing(out1)) == set(_cache_listing(out2))
    data = np.loadtxt(out1 / "sweep.csv", delimiter=",", skiprows=2)
    assert np.all(np.diff(data[:, 1]) != 0.0)


def test_sweep_requires_section(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["sweep", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 1
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize("jobs, n_points, pools",
                         [(64, 4, [4]), (2, 4, [2]), (4, 1, []), (1, 4, [])])
def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch, jobs,
                                                  n_points, pools):
    # a fork pool starts all its workers up front; a stand-in pool records
    # its size and maps in-process, so no real worker is started
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli, "_sweep_point", lambda task: (1.0, 1.0, 0.5, 0.0))
    values = [0.5 * (k + 1) for k in range(n_points)]
    cfg = _config(tmp_path, {"sweep": {"param_name": "q0", "values": values}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--jobs", str(jobs),
                 "--out", str(out)]) == 0
    assert sizes == pools
    assert [row["value"] for row in _read_json(out, "sweep.json")["rows"]] == values


# --- kernel cache ---------------------------------------------------------------

def _cache_listing(out_dir):
    cache = out_dir / "cache"
    if not cache.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}


def _cache_entries(out_dir):
    """{"kernel": path, "level-shift": path} of a cache holding one kernel
    table and one level-shift record."""
    entries = {}
    for path in (out_dir / "cache").iterdir():
        kind = "kernel" if "table" in np.load(path).dtype.names else "level-shift"
        assert kind not in entries
        entries[kind] = path
    return entries


def test_cold_rate_caches_its_table_and_one_level_shift_record(tmp_path):
    # with kernels.t_max unset, the horizon reads pointwise Q2 and caches
    # nothing: the cache holds the command's one table and the one record
    # of its level-shift request
    cfg = _config(tmp_path)
    assert sb.load_config(cfg).kernels.t_max is None
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    assert all(name.endswith(".npy") for name in _cache_listing(out))
    entries = _cache_entries(out)
    assert sorted(entries) == ["kernel", "level-shift"]
    assert np.load(entries["kernel"])["table"].shape == (200, 7)
    record = np.load(entries["level-shift"])
    assert record.dtype == relaxation._LEVEL_SHIFT_RECORD
    report = _read_json(out, "rate.json")
    assert record["err"] == report["err"]
    assert record["values"][3] == report["tau0_inv"]


def test_rate_on_a_tabulated_form_factor_file(tmp_path):
    # a valid bath.h.file end to end: rate.json is rate_and_lso on the
    # tabulated form factor of the same rows; a second run reads its table
    # from the cache, adds no entry and writes the same bytes
    omega = np.linspace(0.0, 12.0, 241)
    path = tmp_path / "h.csv"
    np.savetxt(path, np.column_stack([omega, np.sqrt(omega) * np.exp(-omega)]),
               delimiter=",", fmt="%.17g")
    cfg = _config(tmp_path, {"bath": {"h": {"file": str(path)}}})
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    cached = _cache_listing(out)
    first = {name: (out / name).read_bytes() for name in ("rate.json", "p_of_t.csv")}

    config = sb.load_config(cfg)
    data = np.loadtxt(path, delimiter=",")
    spec = sb.BathSpec(beta=1.0, eps=0.5, delta=0.2, q0=1.0,
                       h=sb.tabulated(data[:, 0], data[:, 1]))
    table = sb.tabulate_kernels(spec, sb.default_time_horizon(spec), 200, tol=1e-8)
    expected = sb.report_dict(spec, *sb.rate_and_lso(spec, table, tol=config.lso.tol))
    report = json.loads(first["rate.json"])
    del report["config_sha256"], report["version"]
    assert report == json.loads(json.dumps(expected))

    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    assert _cache_listing(out) == cached
    assert {name: (out / name).read_bytes() for name in first} == first


def _no_tabulation(*args, **kwargs):
    raise AssertionError("a kernel table was computed on a warm cache")


def test_lso_after_rate_reads_only_the_cache(tmp_path, monkeypatch):
    # the second command of a config reads the first one's level-shift
    # record, and so builds no time grid: a table miss builds one, and a
    # table hit checks its time column against one
    cfg = _config(tmp_path)
    assert sb.load_config(cfg).kernels.t_max is None
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    before = _cache_listing(out)
    assert before

    monkeypatch.setattr(bath_correlations, "_time_grid", _no_tabulation)
    assert main(["lso", "--config", cfg, "--out", str(out)]) == 0
    assert _cache_listing(out) == before


def test_threshold_after_oracle_reads_only_the_cache(tmp_path, monkeypatch):
    # with the default kernels section, oracle integrates the same
    # level-shift request (and 400-point table) that threshold needs for
    # tau0, so threshold reads its record and builds no time grid
    raw = {"bath": dict(BASE["bath"], **SMOOTH_BATH["bath"]),
           "oracle": {"n_max": 1, "u_max": 3.0,
                      "schedule": [[1, 0.4], [2, 0.2], [3, 0.1]]},
           "constants": {"c_kms": 2.0, "c3": 5.0, "c5": 1.0}}
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    assert main(["threshold", "--config", str(cfg), "--out", str(cold)]) == 0
    assert main(["oracle", "--config", str(cfg), "--out", str(warm)]) == 0
    before = _cache_listing(warm)

    monkeypatch.setattr(bath_correlations, "_time_grid", _no_tabulation)
    assert main(["threshold", "--config", str(cfg), "--out", str(warm)]) == 0
    assert _cache_listing(warm) == before
    report = _read_json(warm, "threshold.json")
    assert report["inputs_used"]["tau0"]["provenance"] == "computed"
    assert ((warm / "threshold.json").read_bytes()
            == (cold / "threshold.json").read_bytes())


def test_threshold_reads_tau0_from_the_rate_table(tmp_path):
    # tau0 comes from the config's kernels and lso sections, the same
    # level-shift request as rate's tau0_inv, so after rate threshold reads
    # its record and nothing is cached anew
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["kernels"] = {"n": 200}
    updates["constants"] = {"c_kms": 2.0, "c3": 5.0, "c5": 1.0}
    cfg = _config(tmp_path, updates)
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    before = _cache_listing(out)
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    assert _cache_listing(out) == before
    tau0 = _read_json(out, "threshold.json")["inputs_used"]["tau0"]
    assert tau0 == {"value": 1.0 / _read_json(out, "rate.json")["tau0_inv"],
                    "provenance": "computed"}


def _truncated(path):
    path.write_bytes(path.read_bytes()[:200])


def _stretched_times(path):
    # a table whose time column is not its grid: served, it would place
    # every kernel value at another time
    record = np.load(path)
    record["table"][:, 0] *= 1.5
    np.save(path, record)


def _other_eps(path):
    record = np.load(path)
    record["request"]["eps"] = 0.25
    np.save(path, record)


@pytest.mark.parametrize("kind, corrupt, why", [
    ("kernel", _truncated, ""), ("kernel", _stretched_times, "its time column"),
    ("level-shift", _truncated, ""),
    ("level-shift", _other_eps, "it was computed for beta=1.0, q0=1.0, eps=0.25"),
], ids=["truncated-table", "stretched-times", "truncated-record",
        "other-request"])
def test_an_unusable_cache_entry_is_one_warning_line(tmp_path, monkeypatch,
                                                    kind, corrupt, why):
    # an unusable table or level-shift record is recomputed and rewritten,
    # and reported as one "warning:" line on the stderr of the moment, not
    # of start-up; the other entry is absent, a plain miss
    cfg = _config(tmp_path)
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    assert main(["rate", "--config", cfg, "--out", str(cold)]) == 0
    entry = _cache_entries(cold)[kind]
    (warm / "cache").mkdir(parents=True)
    planted = warm / "cache" / entry.name
    planted.write_bytes(entry.read_bytes())
    corrupt(planted)
    assert planted.read_bytes() != entry.read_bytes()
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["rate", "--config", cfg, "--out", str(warm)]) == 0
    (line,) = stderr.getvalue().splitlines()
    assert stderr.getvalue() == line + "\n"
    assert line.startswith("warning: %s cache entry %s is unusable (%s"
                           % (kind, planted, why))
    assert line.endswith("); recomputing it")
    assert sorted(_cache_listing(warm)) == sorted(_cache_listing(cold))
    for name in ["rate.json", "p_of_t.csv"] + ["cache/" + name for name in
                                               _cache_listing(cold)]:
        assert (warm / name).read_bytes() == (cold / name).read_bytes()
    # one handler, however many commands run in the process
    handlers = [h for h in logging.getLogger("spinbath").handlers
                if isinstance(h, cli._StderrHandler)]
    assert len(handlers) == 1


def _no_level_shift_work(*args, **kwargs):
    raise AssertionError("a command recomputed a cached level-shift request")


def test_commands_after_rate_read_one_record(tmp_path, monkeypatch):
    # lso, threshold and oracle ask rate's level-shift request: each reads
    # its record, and integrates, probes and tabulates nothing; its report
    # is byte for byte that of a cold run in a fresh directory
    raw = {"bath": dict(BASE["bath"], **SMOOTH_BATH["bath"]),
           "kernels": {"n": 200, "tol": 1.0e-8},
           "oracle": {"n_max": 1, "u_max": 3.0,
                      "schedule": [[1, 0.4], [2, 0.2], [3, 0.1]]},
           "constants": {"c_kms": 2.0, "c3": 5.0, "c5": 1.0}}
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    commands = {"lso": "lso.json", "threshold": "threshold.json",
                "oracle": "oracle.json"}
    for command in commands:
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == 0
    warm = tmp_path / "warm"
    assert main(["rate", "--config", str(cfg), "--out", str(warm)]) == 0
    before = _cache_listing(warm)
    assert len(before) == 2

    monkeypatch.setattr(relaxation, "_integrate_lso", _no_level_shift_work)
    monkeypatch.setattr(relaxation, "default_time_horizon", _no_level_shift_work)
    monkeypatch.setattr(bath_correlations, "_load_table", _no_level_shift_work)
    for command, report in commands.items():
        assert main([command, "--config", str(cfg), "--out", str(warm)]) == 0
        assert ((warm / report).read_bytes()
                == (tmp_path / command / report).read_bytes())
    assert _cache_listing(warm) == before


def test_a_sweep_over_delta_runs_one_level_shift_quadrature(tmp_path,
                                                            monkeypatch):
    # delta only scales tau_inv, so every point shares one request
    updates = copy.deepcopy(SMOOTH_BATH)
    updates["kernels"] = {"n": 200}
    updates["sweep"] = {"param_name": "delta", "values": [0.1, 0.2, 0.4]}
    cfg = _config(tmp_path, updates)
    calls = []
    original = relaxation.integrate_refining
    monkeypatch.setattr(relaxation, "integrate_refining",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert len(_cache_listing(out)) == 2
    rows = _read_json(out, "sweep.json")["rows"]
    assert len({row["tau0_inv"] for row in rows}) == 1
    assert [row["tau_inv"] for row in rows] == [
        v ** 2 * rows[0]["tau0_inv"] for v in (0.1, 0.2, 0.4)]


def test_a_set_t_max_is_another_request_than_the_default_horizon(tmp_path):
    # kernels.t_max set to the default horizon gives the same table and
    # rows, under another level-shift key
    cfg = _config(tmp_path)
    config = sb.load_config(cfg)
    horizon = sb.default_time_horizon(config.bath)
    pinned = _config(tmp_path, {"kernels": {"t_max": horizon}}, "pinned.yaml")
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["rate", "--config", pinned, "--out", str(out / "pinned")]) == 0
    assert main(["rate", "--config", pinned, "--out", str(out)]) == 0
    entries = _cache_listing(out)
    assert len(entries) == 3
    assert sum("table" in np.load(out / "cache" / name).dtype.names
               for name in entries) == 1
    keys = [relaxation._level_shift_key(config.bath, t_max, 200, 1e-8, 1e-8)
            for t_max in (None, horizon)]
    assert keys[0] != keys[1]
    assert {key + ".npy" for key in keys} < set(entries)
    report = _read_json(out, "rate.json")
    del report["config_sha256"]
    pinned_report = _read_json(out / "pinned", "rate.json")
    del pinned_report["config_sha256"]
    assert report == pinned_report


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("updates, what", [
    ({"bath": {"beta": 4.0e3}, "kernels": {"t_max": 10.0, "n": 16}},
     "beta eps / 2 = 1000 exceeds the float exponent limit 709.78"),
    ({"bath": {"beta": 1.0e100}, "kernels": {"t_max": 10.0, "n": 16}},
     "beta eps / 2 = 2.5e+99 exceeds the float exponent limit 709.78"),
    ({"bath": {"beta": 3.0e3, "eps": -0.5}, "kernels": {"t_max": 10.0, "n": 16}},
     "beta eps / 2 = -750 exceeds the float exponent limit 709.78"),
    ({"bath": {"beta": 1.0e156, "eps": -0.5}, "kernels": {"t_max": 10.0, "n": 16}},
     "beta eps / 2 = -2.5e+155 exceeds the float exponent limit 709.78"),
    ({"bath": {"beta": 1.0e160}, "kernels": {"t_max": 10.0, "n": 16}},
     "beta = 1e+160 puts the thermal head"),
    ({"bath": {"beta": 1.0e160}, "kernels": {"n": 16}},
     "beta = 1e+160 puts the thermal head"),
], ids=["db-overflow", "db-overflow-huge", "db-underflow", "db-underflow-huge",
        "head-underflow", "head-underflow-horizon"])
def test_a_beta_beyond_float_range_is_one_error_line(tmp_path, capsys, updates,
                                                    what):
    out = tmp_path / "out"
    assert main(["rate", "--config", _config(tmp_path, updates),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert what in err and "Traceback" not in err and "Warning" not in err
    assert not (out / "rate.json").exists()
    assert not (out / "p_of_t.csv").exists()


# --- argument handling ----------------------------------------------------------

def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["rate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.yaml"])
    assert exc.value.code == 1


def test_bad_config_path_exits_one(tmp_path, capsys):
    assert main(["rate", "--config", str(tmp_path / "none.yaml"),
                 "--out", str(tmp_path / "out")]) == 1
    assert "cannot read" in capsys.readouterr().err


def _csv(text):
    def write(tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(text)
        return {"bath": {"h": {"file": str(path)}}}
    return write


def _not_utf8(tmp_path):
    (tmp_path / "run.yaml").write_bytes(b"bath: {beta: 1.0, eps: \xe9}\n")
    return None


@pytest.mark.parametrize("make, where", [
    (_csv("omega,h\n0,0\n1,0.5\n2,0.1\n"), "bath.h.file"),
    (_csv("0,0\n1,x\n2,0.1\n"), "bath.h.file"),
    (_csv("0,0\n1,0.5,7\n2,0.1\n"), "bath.h.file"),
    (_csv(""), "bath.h.file"),
    (_csv("0,0\n1,nan\n2,0.1\n"), "bath.h.file"),
    (_csv("0,0\nnan,0.5\n2,0.1\n"), "bath.h.file"),
    (lambda tmp_path: {"bath": {"h": {"file": 3}}}, "bath.h.file"),
    (lambda tmp_path: {"output": {"formats": [[1]]}}, "output.formats[0]"),
    (_not_utf8, "run.yaml"),
    (lambda tmp_path: {"kernels": {"n": 3}}, "kernels.n: must be at least 4, got 3"),
], ids=["csv-header", "csv-non-numeric", "csv-ragged", "csv-empty", "csv-nan",
        "csv-nan-omega", "file-not-a-string", "formats-entry-not-a-string",
        "config-not-utf8", "kernels-n-3"])
def test_malformed_inputs_exit_one_with_one_error_line(tmp_path, capsys, make,
                                                       where):
    updates = make(tmp_path)
    cfg = _config(tmp_path, updates) if updates else str(tmp_path / "run.yaml")
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and where in err
    assert not out.exists()


def test_jobs_validated(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["sweep", "--config", cfg, "--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["rate", "--jobs", "2"],
                                  ["oracle", "--jobs", "2"],
                                  ["regularity", "--allow-heuristics"],
                                  ["sweep", "--allow-heuristics"]])
def test_flags_live_on_one_subcommand(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", "x.yaml"])
    assert exc.value.code == 1


def test_a_rejected_flag_leaves_the_next_command_unchanged(tmp_path, capsys):
    # the parser is built once per process and shared by every main call
    cfg = _config(tmp_path, SMOOTH_BATH)

    def run(out):
        assert main(["regularity", "--config", cfg, "--out", str(out)]) == 0
        return capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}

    before = run(tmp_path / "before")
    with pytest.raises(SystemExit) as exc:
        main(["regularity", "1.8", "--allow-heuristics", "--config", cfg])
    assert exc.value.code == 1
    assert "--allow-heuristics" in capsys.readouterr().err
    after = run(tmp_path / "after")
    assert after == before
    assert json.loads(after[1]["regularity.json"])["alpha"] != 1.8
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "c.yaml", "--jobs", "1", "--out", "o"],
    ["sweep", "--config", "c.yaml", "--jobs", "2", "--out", "o"],
    ["threshold", "--config", "c.yaml", "--allow-heuristics", "--out", "o"],
    ["rate", "--config", "c.yaml", "--out", "o"],
    ["lso", "--config", "c.yaml", "--out", "o"],
    ["regularity", "--config", "c.yaml", "--out", "o"],
    ["oracle", "--config", "c.yaml", "--out", "o"],
])
def test_benchmark_argv_forms_parse(argv):
    # every command line form that the cli benchmark runs
    args = _build_parser().parse_args(argv)
    assert (args.command, args.config, args.out) == (argv[0], "c.yaml", "o")


# --- start-up -------------------------------------------------------------------

_IMPORT_GUARD = """
import sys
sys.path.insert(0, {src!r})


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


import spinbath
print(scipy_modules())
from spinbath.cli import main
print(scipy_modules())
for argv in {runs!r}:
    assert main(argv + ["--out", {out!r}]) == 0, argv
print(scipy_modules())
# what the bench oracle workload runs, on a small model
spec, _ = spinbath.standard_test_bath()
trunc = spinbath.TruncationSpec(m_pos=2, u_max=3.0, n_max=1, eta=0.1)
model = spinbath.build_model(
    spinbath.discretize(spinbath.coupling_function(spec), trunc), spec, trunc)
spinbath.check_unitary_equivalence(model)
spinbath.kms_vector(model)
spinbath.lso_finite(model)
spinbath.lso_finite(model, force_virtual=True)
spinbath.weyl_sequence_check(model, s=0.75)
print(scipy_modules())
"""


def test_rate_and_lso_load_no_unused_scipy(tmp_path):
    # scipy costs every command about 0.15 s at import; no module of it may
    # load, at import, in any subcommand or on the finite-model oracle path
    kernels = {"kernels": {"t_max": 20.0, "n": 64}}
    cfg = _config(tmp_path, kernels)
    smooth = copy.deepcopy(SMOOTH_BATH)
    smooth.update(kernels, constants={"c_kms": 2.0, "c3": 5.0, "c5": 1.0},
                  sweep={"param_name": "q0", "values": [0.5, 1.0]},
                  oracle={"n_max": 1, "u_max": 3.0,
                          "schedule": [[1, 0.4], [2, 0.2], [3, 0.1]]})
    smooth_cfg = _config(tmp_path, smooth, name="smooth.yaml")
    regular = _config(tmp_path, {"bath": {"h": {"family": "power_exp", "p": 3.5,
                                                "cutoff": "exponential"}}},
                      name="regular.yaml")
    runs = [["rate", "--config", cfg], ["lso", "--config", cfg],
            ["threshold", "--config", smooth_cfg],
            ["regularity", "--config", regular],
            ["sweep", "--config", smooth_cfg, "--jobs", "1"],
            ["oracle", "--config", smooth_cfg]]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = _IMPORT_GUARD.format(src=str(src), runs=runs,
                                out=str(tmp_path / "out"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-4:] == ["[]"] * 4
