"""Run configuration: one strict YAML file mirroring the pipeline sections.

Unknown keys anywhere are rejected with the dotted path of the offending
section, so a typo never silently falls back to a default.  The parsed
file's content hash is carried on the RunConfig and stamped into every
output file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import yaml

from .errors import ConfigurationError
from .spectral_density import BathSpec, FormFactor, power_exp, tabulated

_SWEEP_PARAMS = ("beta", "eps", "delta", "q0")
# libyaml's parser when PyYAML was built with it: the same documents and
# errors as the pure-Python SafeLoader, parsed several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class KernelsConfig:
    t_max: Optional[float]
    n: int
    tol: float


@dataclass(frozen=True)
class LsoConfig:
    tol: float


@dataclass(frozen=True)
class OracleConfig:
    """Truncation fields plus the (m_pos, eta) refinement schedule.

    schedule None means the documented default ladder; u_max None means
    12 / beta.
    """

    u_max: Optional[float]
    n_max: int
    schedule: Optional[Tuple[Tuple[int, float], ...]]


@dataclass(frozen=True)
class ConstantsConfig:
    alpha: float
    xi: Optional[float]
    eps_hat: Optional[float]
    c_kms: Optional[float]
    c3: Optional[float]
    c5: Optional[float]
    tau0: Optional[float]


@dataclass(frozen=True)
class SweepConfig:
    param_name: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class OutputConfig:
    dir: str
    formats: Tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    bath: BathSpec
    kernels: KernelsConfig
    lso: LsoConfig
    oracle: OracleConfig
    constants: ConstantsConfig
    sweep: Optional[SweepConfig]
    output: OutputConfig
    content_hash: str


def _section(raw: dict, key: str, required: bool = False) -> dict:
    node = raw.get(key)
    if node is None:
        if required:
            raise ConfigurationError("%s: section is required" % key)
        return {}
    if not isinstance(node, dict):
        raise ConfigurationError("%s: expected a mapping" % key)
    return node


def _reject_unknown(node: dict, allowed, path: str) -> None:
    extra = sorted(set(node) - set(allowed))
    if extra:
        raise ConfigurationError("%s: unknown keys: %s" % (path, ", ".join(extra)))


def _finite(value, spot: str) -> float:
    """value as a float; a bool, a non-number, .inf, .nan or an integer
    beyond the float range is a ConfigurationError naming spot."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError("%s: expected a number, got %r" % (spot, value))
    if not abs(value) <= sys.float_info.max:
        raise ConfigurationError("%s: expected a finite number, got %r"
                                 % (spot, value))
    return float(value)


def _number(node: dict, key: str, path: str, default=None, required=False):
    value = node.get(key)
    if value is None:
        if required:
            raise ConfigurationError("%s.%s: value is required" % (path, key))
        return default
    return _finite(value, "%s.%s" % (path, key))


def _positive(node: dict, key: str, path: str, default=None, required=False):
    value = _number(node, key, path, default, required)
    if value is not None and not value > 0.0:
        raise ConfigurationError("%s.%s: must be positive, got %g"
                                 % (path, key, value))
    return value


def _count(node: dict, key: str, path: str, default=None, minimum=1):
    value = node.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError("%s.%s: expected an integer, got %r"
                                 % (path, key, value))
    if value < minimum:
        raise ConfigurationError("%s.%s: must be at least %d, got %d"
                                 % (path, key, minimum, value))
    return value


def _form_factor(node, path: str) -> FormFactor:
    if not isinstance(node, dict):
        raise ConfigurationError("%s: expected a mapping" % path)
    if "file" in node:
        _reject_unknown(node, {"file"}, path)
        if not isinstance(node["file"], str):
            raise ConfigurationError("%s.file: expected a path, got %r"
                                     % (path, node["file"]))
        try:
            data = np.loadtxt(node["file"], delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            # ValueError: a header row, a non-numeric cell or ragged rows
            raise ConfigurationError("%s.file: %s" % (path, exc)) from exc
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
            raise ConfigurationError(
                "%s.file: expected two columns (omega, h) with at least "
                "two rows" % path)
        return tabulated(data[:, 0], data[:, 1])
    _reject_unknown(node, {"family", "p", "cutoff", "scale"}, path)
    family = node.get("family")
    if family != "power_exp":
        raise ConfigurationError(
            "%s.family: expected 'power_exp' (or give 'file'), got %r"
            % (path, family))
    p = _number(node, "p", path, required=True)
    cutoff = node.get("cutoff", "exponential")
    if cutoff not in ("exponential", "gaussian"):
        raise ConfigurationError(
            "%s.cutoff: expected 'exponential' or 'gaussian', got %r"
            % (path, cutoff))
    scale = _positive(node, "scale", path, default=1.0)
    return power_exp(p, cutoff, scale=scale)


def _parse_bath(raw: dict) -> BathSpec:
    node = _section(raw, "bath", required=True)
    _reject_unknown(node, {"beta", "eps", "delta", "q0", "h"}, "bath")
    if "h" not in node:
        raise ConfigurationError("bath.h: form factor is required")
    return BathSpec(beta=_positive(node, "beta", "bath", required=True),
                    eps=_number(node, "eps", "bath", required=True),
                    delta=_number(node, "delta", "bath", required=True),
                    q0=_number(node, "q0", "bath", required=True),
                    h=_form_factor(node["h"], "bath.h"))


def _parse_kernels(raw: dict) -> KernelsConfig:
    node = _section(raw, "kernels")
    _reject_unknown(node, {"t_max", "n", "tol"}, "kernels")
    return KernelsConfig(t_max=_positive(node, "t_max", "kernels"),
                         n=_count(node, "n", "kernels", default=400, minimum=2),
                         tol=_positive(node, "tol", "kernels", default=1e-9))


def _parse_lso(raw: dict) -> LsoConfig:
    node = _section(raw, "lso")
    _reject_unknown(node, {"tol"}, "lso")
    return LsoConfig(tol=_positive(node, "tol", "lso", default=1e-8))


def _parse_schedule(node: dict, path: str):
    entry = node.get("schedule")
    if entry is None:
        return None
    if not isinstance(entry, (list, tuple)) or len(entry) < 3:
        raise ConfigurationError(
            "%s.schedule: expected a list of at least three [m_pos, eta] "
            "pairs" % path)
    out = []
    for i, pair in enumerate(entry):
        spot = "%s.schedule[%d]" % (path, i)
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigurationError("%s: expected an [m_pos, eta] pair" % spot)
        m, eta = pair
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ConfigurationError("%s: m_pos must be a positive integer"
                                     % spot)
        eta = _finite(eta, spot)
        if not eta > 0:
            raise ConfigurationError("%s: eta must be positive" % spot)
        out.append((m, eta))
    return tuple(out)


def _parse_oracle(raw: dict) -> OracleConfig:
    node = _section(raw, "oracle")
    _reject_unknown(node, {"u_max", "n_max", "schedule"}, "oracle")
    return OracleConfig(u_max=_positive(node, "u_max", "oracle"),
                        n_max=_count(node, "n_max", "oracle", default=3),
                        schedule=_parse_schedule(node, "oracle"))


def _parse_constants(raw: dict) -> ConstantsConfig:
    node = _section(raw, "constants")
    _reject_unknown(node, {"alpha", "xi", "eps_hat", "c_kms", "c3", "c5",
                           "tau0"}, "constants")
    alpha = _number(node, "alpha", "constants", default=2.2)
    if not alpha > 1.5:
        raise ConfigurationError("constants.alpha: must exceed 3/2, got %g"
                                 % alpha)
    return ConstantsConfig(alpha=alpha,
                           xi=_positive(node, "xi", "constants"),
                           eps_hat=_positive(node, "eps_hat", "constants"),
                           c_kms=_positive(node, "c_kms", "constants"),
                           c3=_positive(node, "c3", "constants"),
                           c5=_positive(node, "c5", "constants"),
                           tau0=_positive(node, "tau0", "constants"))


def _parse_sweep(raw: dict) -> Optional[SweepConfig]:
    if raw.get("sweep") is None:
        return None
    node = _section(raw, "sweep")
    _reject_unknown(node, {"param_name", "values"}, "sweep")
    param = node.get("param_name")
    if param not in _SWEEP_PARAMS:
        raise ConfigurationError("sweep.param_name: expected one of %s, got %r"
                                 % (", ".join(_SWEEP_PARAMS), param))
    values = node.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigurationError("sweep.values: expected a nonempty list")
    out = []
    for i, v in enumerate(values):
        v = _finite(v, "sweep.values[%d]" % i)
        if param == "beta" and not v > 0:
            raise ConfigurationError("sweep.values[%d]: beta must be positive"
                                     % i)
        out.append(v)
    return SweepConfig(param_name=param, values=tuple(out))


def _parse_output(raw: dict) -> OutputConfig:
    node = _section(raw, "output")
    _reject_unknown(node, {"dir", "formats"}, "output")
    out_dir = node.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigurationError("output.dir: expected a nonempty string")
    formats = node.get("formats", list(_FORMATS))
    if not isinstance(formats, (list, tuple)) or not formats:
        raise ConfigurationError("output.formats: expected a nonempty list")
    for i, f in enumerate(formats):
        if not isinstance(f, str):
            raise ConfigurationError("output.formats[%d]: expected a string, "
                                     "got %r" % (i, f))
    bad = sorted(set(formats) - set(_FORMATS))
    if bad:
        raise ConfigurationError("output.formats: unknown formats: %s"
                                 % ", ".join(map(str, bad)))
    return OutputConfig(dir=out_dir,
                        formats=tuple(f for f in _FORMATS if f in formats))


def content_hash(raw: dict) -> str:
    """sha256 of the canonical JSON rendering of the parsed YAML tree."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config root: expected a mapping")
    _reject_unknown(raw, {"bath", "kernels", "lso", "oracle", "constants",
                          "sweep", "output"}, "config root")
    return RunConfig(bath=_parse_bath(raw),
                     kernels=_parse_kernels(raw),
                     lso=_parse_lso(raw),
                     oracle=_parse_oracle(raw),
                     constants=_parse_constants(raw),
                     sweep=_parse_sweep(raw),
                     output=_parse_output(raw),
                     content_hash=content_hash(raw))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError("cannot read config %s: %s" % (path, exc)) from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError("invalid YAML in %s: %s" % (path, exc)) from exc
    if raw is None:
        raw = {}
    return parse_config(raw)
