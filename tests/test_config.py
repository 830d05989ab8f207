"""Tests for strict config parsing and the content hash."""

import copy
import dataclasses

import numpy as np
import pytest
import yaml

import spinbath as sb
from spinbath import config
from spinbath.config import content_hash, parse_config

MINIMAL = {
    "bath": {"beta": 1.0, "eps": 0.5, "delta": 0.2, "q0": 1.0,
             "h": {"family": "power_exp", "p": 0.5, "cutoff": "gaussian"}},
}


def _raw(**sections):
    raw = {k: dict(v) for k, v in MINIMAL.items()}
    for key, value in sections.items():
        raw[key] = value
    return raw


def test_minimal_config_gets_defaults():
    cfg = parse_config(_raw())
    assert cfg.bath.beta == 1.0
    assert cfg.bath.h.family == "power_exp"
    assert cfg.kernels.t_max is None
    assert cfg.kernels.n == 400
    assert cfg.kernels.tol == 1e-9
    assert cfg.lso.tol == 1e-8
    assert cfg.oracle.n_max == 3
    assert cfg.oracle.schedule is None
    assert cfg.constants.alpha == 2.2
    assert cfg.constants.c3 is None
    assert cfg.sweep is None
    assert cfg.output.dir == "out"
    assert cfg.output.formats == ("csv", "json")
    assert len(cfg.content_hash) == 64


def test_unknown_keys_rejected_with_path():
    with pytest.raises(sb.ConfigurationError, match="config root"):
        parse_config(_raw(extra={}))
    raw = _raw()
    raw["bath"]["typo"] = 1.0
    with pytest.raises(sb.ConfigurationError, match="bath.*typo"):
        parse_config(raw)
    with pytest.raises(sb.ConfigurationError, match="kernels"):
        parse_config(_raw(kernels={"nn": 100}))


def test_field_validation_messages_carry_paths():
    raw = _raw()
    raw["bath"]["beta"] = -1.0
    with pytest.raises(sb.ConfigurationError, match="bath.beta"):
        parse_config(raw)
    with pytest.raises(sb.ConfigurationError, match="kernels.tol"):
        parse_config(_raw(kernels={"tol": 0.0}))
    with pytest.raises(sb.ConfigurationError, match="kernels.n"):
        parse_config(_raw(kernels={"n": 1}))
    with pytest.raises(sb.ConfigurationError, match="constants.alpha"):
        parse_config(_raw(constants={"alpha": 1.2}))
    with pytest.raises(sb.ConfigurationError, match="oracle: unknown keys: eta"):
        parse_config(_raw(oracle={"eta": 0.05}))


@pytest.mark.parametrize("section, key", [
    ("kernels", "t_max"), ("kernels", "tol"), ("lso", "tol"), ("bath", "beta"),
    ("bath", "eps"), ("bath", "q0"), ("oracle", "u_max"), ("constants", "alpha"),
    ("constants", "c5")])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 10 ** 400])
def test_non_finite_numbers_rejected_with_path(section, key, value):
    raw = _raw()
    raw.setdefault(section, {})[key] = value
    with pytest.raises(sb.ConfigurationError,
                       match=r"%s\.%s: expected a finite number" % (section, key)):
        parse_config(raw)


def test_non_finite_form_factor_numbers_rejected_with_path():
    raw = _raw()
    raw["bath"]["h"] = dict(raw["bath"]["h"], p=np.nan)
    with pytest.raises(sb.ConfigurationError, match=r"bath\.h\.p: expected a finite"):
        parse_config(raw)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 10 ** 400],
                         ids=["inf", "-inf", "nan", "10**400"])
@pytest.mark.parametrize("spot, sections", [
    (r"oracle\.schedule\[2\]",
     lambda v: {"oracle": {"schedule": [[1, 0.4], [2, 0.2], [3, v]]}}),
    (r"sweep\.values\[1\]",
     lambda v: {"sweep": {"param_name": "q0", "values": [1.0, v]}}),
    (r"sweep\.values\[0\]",
     lambda v: {"sweep": {"param_name": "beta", "values": [v]}}),
], ids=["schedule-eta", "sweep-q0", "sweep-beta"])
def test_non_finite_sweep_values_and_schedule_etas_rejected_with_path(
        spot, sections, value):
    with pytest.raises(sb.ConfigurationError,
                       match=spot + ": expected a finite number"):
        parse_config(_raw(**sections(value)))


def test_yaml_inf_and_nan_spellings_rejected(tmp_path):
    for text in ("kernels: {t_max: .inf}", "kernels: {tol: .nan}"):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(MINIMAL) + text + "\n")
        with pytest.raises(sb.ConfigurationError, match="kernels.t_max|kernels.tol"):
            sb.load_config(str(path))


def test_bath_requires_all_fields():
    raw = _raw()
    del raw["bath"]["h"]
    with pytest.raises(sb.ConfigurationError, match="bath.h"):
        parse_config(raw)
    raw = _raw()
    del raw["bath"]["beta"]
    with pytest.raises(sb.ConfigurationError, match="bath.beta"):
        parse_config(raw)
    with pytest.raises(sb.ConfigurationError, match="bath"):
        parse_config({})


def test_form_factor_family_and_cutoff_validated():
    raw = _raw()
    raw["bath"]["h"] = {"family": "lorentzian", "p": 1.0}
    with pytest.raises(sb.ConfigurationError, match="bath.h.family"):
        parse_config(raw)
    raw["bath"]["h"] = {"family": "power_exp", "p": 1.0, "cutoff": "boxcar"}
    with pytest.raises(sb.ConfigurationError, match="bath.h.cutoff"):
        parse_config(raw)
    raw["bath"]["h"] = {"family": "power_exp", "p": 1.0, "scale": 0.0}
    with pytest.raises(sb.ConfigurationError, match="bath.h.scale"):
        parse_config(raw)


def test_form_factor_from_file(tmp_path):
    u = np.linspace(0.01, 10.0, 50)
    table = np.column_stack([u, u * np.exp(-u)])
    path = tmp_path / "ff.csv"
    np.savetxt(path, table, delimiter=",")
    raw = _raw()
    raw["bath"]["h"] = {"file": str(path)}
    cfg = parse_config(raw)
    assert cfg.bath.h.family == "tabulated"
    missing = _raw()
    missing["bath"]["h"] = {"file": str(tmp_path / "nope.csv")}
    with pytest.raises(sb.ConfigurationError, match="bath.h.file"):
        parse_config(missing)


def test_schedule_validation():
    with pytest.raises(sb.ConfigurationError, match="oracle.schedule"):
        parse_config(_raw(oracle={"schedule": [[4, 0.2], [8, 0.1]]}))
    with pytest.raises(sb.ConfigurationError, match=r"schedule\[1\]"):
        parse_config(_raw(oracle={"schedule": [[4, 0.2], [8], [16, 0.05]]}))
    with pytest.raises(sb.ConfigurationError, match=r"schedule\[2\]"):
        parse_config(_raw(oracle={"schedule": [[4, 0.2], [8, 0.1], [0, 0.05]]}))
    cfg = parse_config(_raw(oracle={"schedule": [[4, 0.2], [8, 0.1], [16, 0.05]]}))
    assert cfg.oracle.schedule == ((4, 0.2), (8, 0.1), (16, 0.05))


def test_sweep_validation():
    with pytest.raises(sb.ConfigurationError, match="sweep.param_name"):
        parse_config(_raw(sweep={"param_name": "mass", "values": [1.0]}))
    with pytest.raises(sb.ConfigurationError, match="sweep.values"):
        parse_config(_raw(sweep={"param_name": "q0", "values": []}))
    with pytest.raises(sb.ConfigurationError, match=r"values\[0\]"):
        parse_config(_raw(sweep={"param_name": "beta", "values": [-1.0]}))
    cfg = parse_config(_raw(sweep={"param_name": "q0", "values": [0.5, 1]}))
    assert cfg.sweep.values == (0.5, 1.0)


def test_output_formats_canonicalized():
    cfg = parse_config(_raw(output={"formats": ["json", "csv"]}))
    assert cfg.output.formats == ("csv", "json")
    cfg = parse_config(_raw(output={"formats": ["json"]}))
    assert cfg.output.formats == ("json",)
    with pytest.raises(sb.ConfigurationError, match="output.formats"):
        parse_config(_raw(output={"formats": ["xml"]}))


def test_content_hash_ignores_key_order():
    a = {"bath": {"beta": 1.0, "eps": 0.5}, "kernels": {"n": 100}}
    b = {"kernels": {"n": 100}, "bath": {"eps": 0.5, "beta": 1.0}}
    assert content_hash(a) == content_hash(b)
    assert content_hash(a) != content_hash({"bath": {"beta": 2.0}})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(_raw()))
    cfg = sb.load_config(str(path))
    assert cfg.bath.eps == 0.5
    assert cfg.content_hash == content_hash(_raw())


def test_load_config_errors(tmp_path):
    with pytest.raises(sb.ConfigurationError, match="cannot read"):
        sb.load_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("bath: [unclosed\n")
    with pytest.raises(sb.ConfigurationError, match="invalid YAML"):
        sb.load_config(str(bad))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(sb.ConfigurationError, match="bath"):
        sb.load_config(str(empty))


# --- YAML loaders ------------------------------------------------------------------

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader")
                               else [])


def _test_configs(tmp_path):
    """The shapes of config the tests write, and the benchmark's cli grid."""
    u = np.linspace(0.01, 10.0, 50)
    ff = tmp_path / "ff.csv"
    np.savetxt(ff, np.column_stack([u, u * np.exp(-u)]), delimiter=",")
    cli_base = {"bath": {"beta": 1.0, "eps": 0.5, "delta": 0.2, "q0": 1.0,
                         "h": {"family": "power_exp", "p": -0.5,
                               "cutoff": "exponential"}},
                "kernels": {"n": 200, "tol": 1.0e-8}}
    smooth = copy.deepcopy(cli_base)
    smooth["bath"]["h"] = {"family": "power_exp", "p": 0.5, "cutoff": "gaussian"}
    full = dict(copy.deepcopy(smooth),
                kernels={"t_max": 12.5, "n": 64, "tol": 1e-6},
                lso={"tol": 1e-8},
                oracle={"n_max": 1, "u_max": 3.0,
                        "schedule": [[1, 0.4], [2, 0.2], [3, 0.1]]},
                constants={"c_kms": 2.0, "c3": 5.0, "c5": 1.0, "tau0": 2.0},
                sweep={"param_name": "q0", "values": [0.5, 1.0, 1.5, 2.0]},
                output={"dir": "out", "formats": ["json"]})
    from_file = _raw()
    from_file["bath"]["h"] = {"file": str(ff)}
    raws = [_raw(), cli_base, smooth, full, from_file]
    # the benchmark's cli grid, rebuilt: rate and lso configs, then the
    # smooth config of its sweep, regularity, threshold and oracle commands
    for cutoff in ("exponential", "gaussian"):
        for beta in (0.5, 1.0, 2.0):
            for eps in (0.25, 0.5, 1.0):
                for q0 in (0.5, 1.0, 2.0):
                    raws.append({"bath": {
                        "beta": beta, "eps": eps, "delta": 0.2, "q0": q0,
                        "h": {"family": "power_exp", "p": -0.5,
                              "cutoff": cutoff}}})
    raws.append({
        "bath": {"beta": 1.0, "eps": 1.0, "delta": 0.1, "q0": 1.0,
                 "h": {"family": "power_exp", "p": 0.5, "cutoff": "gaussian"}},
        "oracle": {"n_max": 1, "u_max": 3.0,
                   "schedule": [[1, 0.4], [2, 0.2], [3, 0.1]]},
        "constants": {"c_kms": 1.0, "c5": 3.0},
        "sweep": {"param_name": "q0", "values": [0.5, 1.0, 1.5, 2.0]}})
    paths = []
    for i, raw in enumerate(raws):
        path = tmp_path / ("c%d.yaml" % i)
        path.write_text(yaml.safe_dump(raw))
        paths.append(str(path))
    return paths


def _comparable(cfg):
    # bath specs and form factors compare by identity; compare their fields
    # and the form factor's content key
    b = cfg.bath
    return (dataclasses.replace(cfg, bath=None),
            (b.beta, b.eps, b.delta, b.q0, b.h.content_key()))


def test_both_yaml_loaders_give_equal_configs(tmp_path, monkeypatch):
    if len(LOADERS) == 1:
        pytest.skip("PyYAML was built without libyaml")
    paths = _test_configs(tmp_path)
    assert len(paths) == 5 + 54 + 1
    loaded = []
    for loader in LOADERS:
        monkeypatch.setattr(config, "_LOADER", loader)
        loaded.append([_comparable(sb.load_config(p)) for p in paths])
    assert loaded[0] == loaded[1]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_invalid_yaml_raises_configuration_error_under_each_loader(
        tmp_path, monkeypatch, loader):
    monkeypatch.setattr(config, "_LOADER", loader)
    for i, text in enumerate(["bath: [unclosed\n", "bath: {a: 1\n",
                              "a: b: c\n", "\tbath: 1\n"]):
        bad = tmp_path / ("bad%d.yaml" % i)
        bad.write_text(text)
        with pytest.raises(sb.ConfigurationError, match="invalid YAML"):
            sb.load_config(str(bad))


def test_load_config_uses_libyaml_when_present():
    assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
