"""Command-line front end over the analysis pipelines.

Every subcommand reads one YAML config, writes its reports under the
output directory, and exits 0 on success or pass, 2 on a fail verdict,
and 1 on any error.  Outputs are deterministic byte for byte: no
wall-clock fields, sorted JSON keys, and 17-significant-digit CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .constants_ledger import constants_report
from .errors import ConfigurationError, SpinBathError
from .fileio import atomic_write
from .relaxation import cached_level_shift, p_of_t, report_dict, report_params
from .spectral_density import check_condition_A
from .truncated_oracle import run_oracle_schedule


# --- report emission ----------------------------------------------------------

def _write_json(path: str, payload: dict, config: RunConfig) -> None:
    body = dict(payload)
    body["config_sha256"] = config.content_hash
    body["version"] = __version__
    atomic_write(path, json.dumps(body, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: str, rows, config: RunConfig) -> None:
    lines = ["# config_sha256=%s version=%s"
             % (config.content_hash, __version__), header]
    lines.extend(",".join("%.17g" % v for v in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def _pair(w) -> list:
    return [float(np.real(w)), float(np.imag(w))]


# --- shared pipeline pieces ---------------------------------------------------

def _level_shift(config: RunConfig, out_dir: str, balance: bool = False):
    """The command's rate report and level-shift matrix, through
    out_dir/cache (relaxation.cached_level_shift).

    The cache holds one record per level-shift request beside the kernel
    tables, so a command whose request an earlier one has answered reads
    that record alone: no time horizon, kernel table or quadrature.  A miss
    takes t_max from default_time_horizon when kernels.t_max is unset (its
    pointwise probes write no cache entry), reads or writes the kernel
    table, and stores the record.  balance is set by the commands that
    report the detailed-balance residual.
    """
    k = config.kernels
    return cached_level_shift(config.bath, k.t_max, k.n, tol=k.tol,
                              lso_tol=config.lso.tol,
                              cache_dir=os.path.join(out_dir, "cache"),
                              balance=balance)


# --- subcommands ----------------------------------------------------------------

def cmd_rate(config: RunConfig, out_dir: str) -> int:
    spec = config.bath
    rate, lso = _level_shift(config, out_dir, balance=True)
    if "json" in config.output.formats:
        _write_json(os.path.join(out_dir, "rate.json"),
                    report_dict(spec, rate, lso), config)
    if "csv" in config.output.formats:
        if rate.tau_inv > 0.0:
            horizon = 5.0 / rate.tau_inv
        else:
            horizon = config.kernels.t_max or 10.0 * max(spec.beta, 1.0)
        ts = np.linspace(0.0, horizon, 201)
        rows = [(t, p_of_t(rate, float(t))) for t in ts]
        _write_csv(os.path.join(out_dir, "p_of_t.csv"), "t,P", rows, config)
    return 0


def cmd_lso(config: RunConfig, out_dir: str) -> int:
    spec = config.bath
    m = _level_shift(config, out_dir, balance=True)[1]
    payload = {
        "params": report_params(spec),
        "x_plus": _pair(m.x_plus),
        "x_minus": _pair(m.x_minus),
        "z": _pair(m.z),
        "matrix": [[r, c] + _pair(m.matrix[r, c])
                   for r in range(2) for c in range(2)],
        "db_residual": m.db_residual,
        "trace_gap": m.trace_gap,
        "kernel_residual": m.kernel_residual,
    }
    _write_json(os.path.join(out_dir, "lso.json"), payload, config)
    return 0


def cmd_regularity(config: RunConfig, alpha: Optional[float],
                   out_dir: str) -> int:
    if alpha is None:
        alpha = config.constants.alpha
    verdict, report = check_condition_A(config.bath, alpha)
    payload = dict(report)
    payload["verdict"] = verdict
    _write_json(os.path.join(out_dir, "regularity.json"), payload, config)
    return 0 if verdict == "pass" else 2


def cmd_threshold(config: RunConfig, out_dir: str,
                  allow_heuristics: bool) -> int:
    c = config.constants

    def rate():
        # the level shift, only once the regularity norm has converged
        return _level_shift(config, out_dir)[0]

    report = constants_report(config.bath, c.alpha, eps_hat=c.eps_hat,
                              xi=c.xi, c_kms=c.c_kms, c3=c.c3, c5=c.c5,
                              tau0=c.tau0, allow_heuristics=allow_heuristics,
                              rate=rate)
    _write_json(os.path.join(out_dir, "threshold.json"),
                dataclasses.asdict(report), config)
    return 0


def cmd_oracle(config: RunConfig, out_dir: str) -> int:
    spec = config.bath
    o = config.oracle
    report = run_oracle_schedule(spec, o.schedule, n_max=o.n_max,
                                 u_max=o.u_max)
    rate, m = _level_shift(config, out_dir)
    continuum = {"x_plus": m.x_plus, "x_minus": m.x_minus, "z": m.z}
    rungs = []
    for i, ((m_pos, eta), lam) in enumerate(zip(report.schedule, report.rungs)):
        entries = {k: _pair(v) for k, v in report.entries(i).items()}
        rungs.append({"m_pos": m_pos, "eta": eta, "entries": entries,
                      "matrix": [[r, c] + _pair(lam[r, c])
                                 for r in range(2) for c in range(2)]})
    payload = {
        "schedule": [[m, eta] for m, eta in report.schedule],
        "truncation": {"u_max": report.u_max, "n_max": o.n_max},
        "rungs": rungs,
        "extrapolated": {k: _pair(v) for k, v in report.extrapolated.items()},
        "observed_order": {k: float(v) for k, v in
                           report.observed_order.items()},
        "monotone": report.monotone,
        "continuum": {k: _pair(v) for k, v in continuum.items()},
        "continuum_err": rate.err,
        "rel_delta": {k: float(abs(report.extrapolated[k] - continuum[k])
                              / abs(continuum[k]))
                      for k in continuum},
    }
    _write_json(os.path.join(out_dir, "oracle.json"), payload, config)
    return 0


def _sweep_point(args):
    config, out_dir = args
    rate = _level_shift(config, out_dir)[0]
    return rate.tau_inv, rate.tau0_inv, rate.p_inf, rate.err


def cmd_sweep(config: RunConfig, out_dir: str, jobs: int) -> int:
    if config.sweep is None:
        raise ConfigurationError("sweep: section is required for the sweep "
                                 "subcommand")
    param = config.sweep.param_name
    tasks = [(dataclasses.replace(
                  config, bath=dataclasses.replace(config.bath, **{param: v})),
              out_dir) for v in config.sweep.values]
    # a fork pool starts all its workers up front: no more than there are points
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here alone: the import slows the start of every command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    rows = [(v,) + r for v, r in zip(config.sweep.values, results)]
    if "csv" in config.output.formats:
        _write_csv(os.path.join(out_dir, "sweep.csv"),
                   "%s,tau_inv,tau0_inv,p_inf,err" % param, rows, config)
    if "json" in config.output.formats:
        payload = {
            "param_name": param,
            "rows": [{"value": row[0], "tau_inv": row[1], "tau0_inv": row[2],
                      "p_inf": row[3], "err": row[4]} for row in rows],
        }
        _write_json(os.path.join(out_dir, "sweep.json"), payload, config)
    return 0


# --- diagnostics ----------------------------------------------------------------

class _StderrHandler(logging.Handler):
    """Writes each record as one line to the sys.stderr of the moment it is
    emitted, so a stream swapped in after start-up still receives it."""

    def emit(self, record):
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


@functools.lru_cache(maxsize=None)
def _log_to_stderr() -> None:
    """Give the package logger its one stderr handler, once per process:
    each warning, such as an unusable cache entry, is one "warning:" line."""
    handler = _StderrHandler(logging.WARNING)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("spinbath").addHandler(handler)


# --- argument parsing -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means a fail verdict."""

    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parse_args keeps no state."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="YAML run configuration")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides output.dir)")
    parser = _Parser(prog="spinbath",
                     description="Thermal spin-boson relaxation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rate", parents=[common],
                   help="relaxation rate report and P(t) table")
    sub.add_parser("lso", parents=[common],
                   help="level-shift matrix with diagnostics")
    reg = sub.add_parser("regularity", parents=[common],
                         help="form-factor regularity verdict")
    reg.add_argument("alpha", nargs="?", type=float, default=None,
                     help="Sobolev order (default: constants.alpha)")
    threshold = sub.add_parser("threshold", parents=[common],
                               help="constants ledger and coupling threshold")
    threshold.add_argument("--allow-heuristics", action="store_true",
                           help="permit flagged heuristic constants")
    sub.add_parser("oracle", parents=[common],
                   help="finite-model level-shift oracle report")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="rate sweep over one bath parameter")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep points")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _log_to_stderr()
    args = _build_parser().parse_args(argv)
    if args.command == "sweep" and args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 1
    try:
        config = load_config(args.config)
        out_dir = args.out if args.out else config.output.dir
        if args.command == "rate":
            return cmd_rate(config, out_dir)
        if args.command == "lso":
            return cmd_lso(config, out_dir)
        if args.command == "regularity":
            return cmd_regularity(config, args.alpha, out_dir)
        if args.command == "threshold":
            return cmd_threshold(config, out_dir, args.allow_heuristics)
        if args.command == "oracle":
            return cmd_oracle(config, out_dir)
        return cmd_sweep(config, out_dir, args.jobs)
    except SpinBathError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
