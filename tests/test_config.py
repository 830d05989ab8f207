"""Tests for strict config parsing and the content hash."""

import numpy as np
import pytest
import yaml

import spinbath as sb
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
