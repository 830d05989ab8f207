"""The three benchmark workloads: inputs, solves and correctness checks.

Each workload is built from a seed.  Seed 0 is the fixed input set whose
outputs are stored in reference.json; every other seed shuffles the solve
order and jitters continuous bath parameters in directions that leave the
amount of numerical work unchanged (see each builder), and is checked by
the paper's identities instead of by stored values.

A solve returns (outputs, identities):
  outputs     {key: float or list of floats}, compared with the reference
              at (rtol, floor) from the solve's `tolerances`;
  identities  [(label, value, bound)], each required to satisfy
              value <= bound on every seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil

import numpy as np
import yaml

import spinbath as sb
from spinbath.cli import main as cli_main

ACCEPT = 1e-5           # acceptance bound of criteria 2-4
ORACLE_ACCEPT = 0.10    # acceptance bound of criterion 7, oracle vs continuum
DENSE_RTOL = 1e-6       # dense linear algebra: the package's unitarity tolerance
KERNEL_TOL = 1e-9       # tabulation tolerance the kernels workload asks for
LSO_TOL = 1e-8          # default level-shift tolerance
PAIRING = (1e-9, 1e-3)  # (rtol, floor) of the virtual resolvent pairings
N_KERNEL = 160          # kernel grid size; 400 does not fit the run budget


class Solve:
    def __init__(self, name, run, tolerances):
        self.name = name
        self.run = run
        self.tolerances = tolerances


class Workload:
    """A fixed list of solves plus the hooks a pass needs."""

    cache_stats = None    # kernel-cache accounting, for workloads that use the cache

    def begin_pass(self):
        pass

    def account(self):
        """Start cache accounting (traced passes only)."""

    def cross_identities(self, outputs):
        """Identities that span several solves: [(label, value, bound, names)]."""
        return []

    def reference_identities(self, name, outputs, reference):
        """Seed-0 checks against stored values other than the solve's own."""
        return []


def _pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _jitter(rng, value, lo, hi):
    return value * (1.0 + rng.uniform(lo, hi))


def _rng(seed):
    return random.Random(1000003 * seed + 17)


# --- kernels ------------------------------------------------------------------

class Kernels(Workload):
    """Continuum pipeline on superohmic gaussian baths at beta = 1, 2, 4.

    Why: kernel tabulation is the largest hot spot; at beta = 4 the
    tabulation refines to max_refine on many chunks, at beta = 2 on a few,
    at beta = 1 on none.  No oracle, CLI or cache code runs here.

    Jitter raises eps by up to 4% and moves delta by up to 10%.  The kernel
    tables depend only on beta, the form factor and t_max, and t_max =
    8 max(beta, 1, 1/eps) keeps its value when eps only grows, so the
    quadrature work does not change with the seed.
    """

    def __init__(self, seed):
        base = sb.standard_oracle_bath()
        specs = []
        rng = _rng(seed)
        for beta in (1.0, 2.0, 4.0):
            spec = base if beta == 4.0 else dataclasses.replace(base, beta=beta, eps=1.0)
            if seed:
                spec = dataclasses.replace(
                    spec, eps=_jitter(rng, spec.eps, 0.0, 0.04),
                    delta=_jitter(rng, spec.delta, -0.1, 0.1))
            specs.append(spec)
        tol = {"t_max": (0.0, 0.0), "c2": (KERNEL_TOL, 0.0),
               "q1": (KERNEL_TOL, "row"), "q2": (KERNEL_TOL, "row"),
               "qz": (KERNEL_TOL, "row"), "lso": (LSO_TOL, "row")}
        self.solves = [Solve("beta=%g" % s.beta, _kernel_solve(s), tol) for s in specs]
        if seed:
            rng.shuffle(self.solves)


def _kernel_solve(spec):
    def run():
        t_max = sb.default_time_horizon(spec)
        table = sb.tabulate_kernels(spec, t_max, N_KERNEL, tol=KERNEL_TOL)
        c2 = sb.c2_saturation(spec, tol=KERNEL_TOL)
        lso = sb.lso_matrix(spec, table)
        outputs = {"t_max": t_max, "c2": c2,
                   "q1": table.q1.tolist(), "q2": table.q2.tolist(),
                   "qz": table.qz.tolist(),
                   "lso": _pair(lso.x_plus) + _pair(lso.x_minus) + _pair(lso.z)}
        return outputs, _lso_identities(lso.db_residual, lso.trace_gap,
                                        lso.kernel_residual, lso.matrix)
    return run


def _lso_identities(db, gap, kernel, matrix):
    norm = float(np.linalg.norm(np.asarray(matrix), 2))
    return [("db_residual", db, ACCEPT), ("trace_gap", gap, ACCEPT),
            ("kernel_residual/|M|", kernel / norm, ACCEPT)]


# --- oracle -------------------------------------------------------------------

WEYL_M_POS = 4          # dim 1024; the m_pos = 5 test model (dim 4096) does not fit
TEST_N_MAX = (2, 3, 4)


class Oracle(Workload):
    """Finite oracle: default ladder, test-bath n_max ladder, a Weyl model.

    Why: dense linear algebra and the virtual time integrals are the second
    hot spot and set peak memory; no kernel tabulation runs here, and the
    pairings reach quadrature with order 16 and floor 1e-3.

    Jitter moves eps by up to 1% and delta by up to 10%; model dimensions,
    and so the dense work, do not depend on them.
    """

    def __init__(self, seed):
        rng = _rng(seed)
        ladder_spec = sb.standard_oracle_bath()
        test_spec, test_trunc = sb.standard_test_bath()
        weyl_spec = dataclasses.replace(test_spec, delta=0.02)
        if seed:
            ladder_spec = dataclasses.replace(
                ladder_spec, eps=_jitter(rng, ladder_spec.eps, -0.01, 0.01))
            test_spec = dataclasses.replace(
                test_spec, eps=_jitter(rng, test_spec.eps, -0.05, 0.05),
                delta=_jitter(rng, test_spec.delta, -0.1, 0.1))
            weyl_spec = dataclasses.replace(
                weyl_spec, delta=_jitter(rng, weyl_spec.delta, -0.1, 0.1))
        weyl_trunc = sb.TruncationSpec(m_pos=WEYL_M_POS, u_max=3.0, n_max=1, eta=0.1)
        self.solves = [Solve("ladder", _ladder_solve(ladder_spec),
                             {"rungs": PAIRING, "extrapolated": PAIRING})]
        for n_max in TEST_N_MAX:
            trunc = dataclasses.replace(test_trunc, n_max=n_max)
            self.solves.append(Solve(
                "test_model n_max=%d" % n_max, _model_solve(test_spec, trunc),
                {"unitary": (DENSE_RTOL, 0.0), "kms": (DENSE_RTOL, 0.0),
                 "lso_dense": (DENSE_RTOL, "row"), "lso_virtual": PAIRING}))
        self.solves.append(Solve("weyl m_pos=%d" % WEYL_M_POS,
                                 _weyl_solve(weyl_spec, weyl_trunc),
                                 {"kms": (DENSE_RTOL, 0.0), "weyl": (DENSE_RTOL, 0.0)}))
        if seed:
            rng.shuffle(self.solves)

    def reference_identities(self, name, outputs, reference):
        if name != "ladder" or "continuum" not in reference:
            return []
        ext = np.asarray(outputs["extrapolated"]).reshape(3, 2)
        cont = np.asarray(reference["continuum"]).reshape(3, 2)
        rel = [np.hypot(*(e - c)) / np.hypot(*c) for e, c in zip(ext, cont)]
        return [("extrapolation vs continuum", max(rel), ORACLE_ACCEPT)]

    def cross_identities(self, outputs):
        names = ["test_model n_max=%d" % n for n in TEST_N_MAX]
        if not all(n in outputs for n in names):
            return []
        out = []
        for key in ("unitary", "kms"):
            vals = [outputs[n][key] for n in names]
            # strictly decreasing along n_max: each ratio below 1
            out.append(("%s decreasing in n_max" % key,
                        max(b / a for a, b in zip(vals, vals[1:])), 1.0 - 1e-12, names))
        return out


def _ladder_solve(spec):
    def run():
        report = sb.run_oracle_schedule(spec)
        rungs = [v for lam in report.rungs for z in np.ravel(lam) for v in _pair(z)]
        ext = report.extrapolated
        outputs = {"rungs": rungs,
                   "extrapolated": [v for k in ("x_plus", "x_minus", "z")
                                    for v in _pair(ext[k])]}
        identities = []
        entries = [report.entries(i) for i in range(len(report.rungs))][-3:]
        for key in ("x_plus", "x_minus", "z"):
            d1 = abs(entries[1][key] - entries[0][key])
            d2 = abs(entries[2][key] - entries[1][key])
            identities.append(("monotone ladder %s" % key, d2 / max(d1, 1e-300),
                               1.0 - 1e-12))
        return outputs, identities
    return run


def _model_solve(spec, trunc):
    def run():
        bath = sb.discretize(sb.coupling_function(spec), trunc)
        model = sb.build_model(bath, spec, trunc)
        unitary = sb.check_unitary_equivalence(model)
        _, kms = sb.kms_vector(model)
        dense = sb.lso_finite(model)
        virtual = sb.lso_finite(model, force_virtual=True)
        outputs = {"unitary": unitary, "kms": kms,
                   "lso_dense": [v for z in np.ravel(dense) for v in _pair(z)],
                   "lso_virtual": [v for z in np.ravel(virtual) for v in _pair(z)]}
        gap = float(np.max(np.abs(virtual - dense)))
        scale = max(float(np.max(np.abs(dense))), PAIRING[1])
        return outputs, [("virtual vs dense lso", gap / scale, PAIRING[0])]
    return run


def _weyl_solve(spec, trunc):
    def run():
        bath = sb.discretize(sb.coupling_function(spec), trunc)
        model = sb.build_model(bath, spec, trunc)
        _, kms = sb.kms_vector(model)
        res = sb.weyl_sequence_check(model, s=1.0)
        outputs = {"kms": kms, "weyl": res.tolist()}
        return outputs, [("weyl residuals non-increasing", float(np.max(np.diff(res))), 1e-12),
                         ("weyl residual falls", res[-1] / res[0], 1.0 - 1e-12)]
    return run


# --- cli ------------------------------------------------------------------------

GRID_BETAS = (0.5, 1.0, 2.0)
GRID_EPSES = (0.25, 0.5, 1.0)
GRID_Q0S = (0.5, 1.0, 2.0)
GRID_CUTOFFS = ("exponential", "gaussian")
SMOKE_SCHEDULE = [[1, 0.4], [2, 0.2], [3, 0.1]]


class Cli(Workload):
    """An in-process user session through spinbath.cli.main.

    Why: many short commands, where config parsing, the uncached horizon
    probe, cache reads beside writes and the relaxation integrals dominate.
    All commands share one output directory, and so one kernel cache, which
    is emptied at the start of every pass.

    Jitter moves delta by up to 10%.  eps, q0 and beta set the time horizon
    and so the cache keys, so they stay on the acceptance grid and the
    hit/miss pattern does not change with the seed.
    """

    def __init__(self, seed, workdir):
        rng = _rng(seed)
        self.out = os.path.join(workdir, "out")
        self.cache = os.path.join(self.out, "cache")
        config_dir = os.path.join(workdir, "configs")
        os.makedirs(config_dir, exist_ok=True)

        def write(name, raw):
            path = os.path.join(config_dir, name)
            with open(path, "w") as fh:
                yaml.safe_dump(raw, fh)
            sb.load_config(path)
            return path

        def delta(value):
            return _jitter(rng, value, -0.1, 0.1) if seed else value

        rate_tol = {"report": (LSO_TOL, "row")}
        self.solves = []
        for cutoff in GRID_CUTOFFS:
            for beta in GRID_BETAS:
                for eps in GRID_EPSES:
                    for q0 in GRID_Q0S:
                        raw = {"bath": {"beta": beta, "eps": eps, "delta": delta(0.2),
                                        "q0": q0, "h": {"family": "power_exp", "p": -0.5,
                                                        "cutoff": cutoff}}}
                        name = "grid_%s_b%g_e%g_q%g" % (cutoff, beta, eps, q0)
                        path = write(name + ".yaml", raw)
                        self.solves.append(self._command("rate " + name, ["rate", "--config", path],
                                                         "rate.json", _rate_outputs, rate_tol))
                        self.solves.append(self._command("lso " + name, ["lso", "--config", path],
                                                         "lso.json", _lso_outputs, rate_tol))
        smooth = write("smooth.yaml", {
            "bath": {"beta": 1.0, "eps": 1.0, "delta": delta(0.1), "q0": 1.0,
                     "h": {"family": "power_exp", "p": 0.5, "cutoff": "gaussian"}},
            "oracle": {"n_max": 1, "u_max": 3.0, "schedule": SMOKE_SCHEDULE},
            "constants": {"c_kms": 1.0, "c5": 3.0},
            "sweep": {"param_name": "q0", "values": [0.5, 1.0, 1.5, 2.0]},
        })
        for jobs in ("1", "2"):
            self.solves.append(self._command(
                "sweep jobs=" + jobs, ["sweep", "--config", smooth, "--jobs", jobs],
                "sweep.json", _sweep_outputs, {"rows": (LSO_TOL, "row")}))
        self.solves.append(self._command(
            "regularity", ["regularity", "--config", smooth], "regularity.json",
            _regularity_outputs, {"values": (1e-9, 0.0)}))
        self.solves.append(self._command(
            "threshold", ["threshold", "--config", smooth, "--allow-heuristics"],
            "threshold.json", _threshold_outputs, {"bounds": (LSO_TOL, 0.0)}))
        self.solves.append(self._command(
            "oracle", ["oracle", "--config", smooth], "oracle.json", _oracle_outputs,
            {"rungs": PAIRING, "continuum": (LSO_TOL, "row")}))
        if seed:
            rng.shuffle(self.solves)

    def begin_pass(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.cache)

    def account(self):
        """Count cache misses and bytes from directory listings from now on."""
        self.cache_stats = {"misses": 0, "bytes_written": 0, "artifact_bytes": 0}

    def _command(self, name, argv, artifact, parse, tolerances):
        def run():
            counting = self.cache_stats is not None
            if counting:
                before, start_ns = _listing(self.cache), _now_ns(self.out)
            code = cli_main(argv + ["--out", self.out])
            if counting:
                self._account(before, start_ns)
            if code != 0:
                raise RuntimeError("%s exited with code %d" % (argv[0], code))
            with open(os.path.join(self.out, artifact)) as fh:
                report = json.load(fh)
            return parse(report)
        return Solve(name, run, tolerances)

    def _account(self, before, start_ns):
        after = _listing(self.cache)
        new = {f: size for f, size in after.items() if f not in before}
        keys = {f.split(".", 1)[0] for f in new if not f.endswith(".tmp")}
        self.cache_stats["misses"] += len(keys)
        self.cache_stats["bytes_written"] += sum(new.values())
        for entry in os.scandir(self.out):
            if entry.is_file() and entry.stat().st_mtime_ns >= start_ns:
                self.cache_stats["artifact_bytes"] += entry.stat().st_size

    def cross_identities(self, outputs):
        names = ["sweep jobs=1", "sweep jobs=2"]
        if not all(n in outputs for n in names):
            return []
        same = outputs[names[0]]["rows"] == outputs[names[1]]["rows"]
        return [("sweep rows equal for --jobs 1 and 2", 0.0 if same else 1.0, 0.0, names)]


def _listing(directory):
    try:
        return {e.name: e.stat().st_size for e in os.scandir(directory) if e.is_file()}
    except FileNotFoundError:
        return {}


def _now_ns(directory):
    """The file-system clock, read by touching a marker file."""
    marker = os.path.join(os.path.dirname(directory), ".clock")
    with open(marker, "w"):
        pass
    ns = os.stat(marker).st_mtime_ns
    os.unlink(marker)
    return ns


def _entries(report, keys):
    return [v for k in keys for v in report[k]]


def _rate_outputs(r):
    lso = r["lso"]
    x_plus, x_minus, z = (complex(*lso[k]) for k in ("x_plus", "x_minus", "z"))
    matrix = np.array([[x_plus, z], [z, x_minus]])
    outputs = {"report": [r["tau_inv"], r["tau0_inv"], r["p_inf"]]
               + _entries(lso, ("x_plus", "x_minus", "z"))}
    identities = _lso_identities(r["db_residual"], r["trace_gap"],
                                 r["kernel_residual"], matrix)
    identities.append(("tau_inv positive", -r["tau_inv"], 0.0))
    return outputs, identities


def _lso_outputs(r):
    x_plus, x_minus, z = (complex(*r[k]) for k in ("x_plus", "x_minus", "z"))
    matrix = np.array([[x_plus, z], [z, x_minus]])
    outputs = {"report": _entries(r, ("x_plus", "x_minus", "z"))}
    return outputs, _lso_identities(r["db_residual"], r["trace_gap"],
                                    r["kernel_residual"], matrix)


def _sweep_outputs(r):
    rows = [[row["value"], row["tau_inv"], row["tau0_inv"], row["p_inf"]]
            for row in r["rows"]]
    identities = [("tau_inv positive", -min(row[1] for row in rows), 0.0)]
    return {"rows": [v for row in rows for v in row]}, identities


def _regularity_outputs(r):
    passed = r["verdict"] == "pass"
    return {"values": r["values"]}, [("smooth bath passes condition A",
                                      0.0 if passed else 1.0, 0.0)]


def _threshold_outputs(r):
    keys = ("c1", "c2", "n_bound", "pbar_bound", "dist_bound", "q_bound", "delta0")
    ok = np.isfinite(r["delta0"]) and r["delta0"] > 0.0
    return {"bounds": [r[k] for k in keys]}, [("finite positive delta0",
                                                0.0 if ok else 1.0, 0.0)]


def _oracle_outputs(r):
    rungs = [v for rung in r["rungs"] for entry in rung["matrix"] for v in entry[2:]]
    continuum = _entries(r["continuum"], ("x_plus", "x_minus", "z"))
    finite = all(np.isfinite(v) for v in rungs + continuum)
    return ({"rungs": rungs, "continuum": continuum},
            [("finite oracle report", 0.0 if finite else 1.0, 0.0)])


# --- registry -------------------------------------------------------------------

def build(name, seed, workdir):
    if name == "kernels":
        return Kernels(seed)
    if name == "oracle":
        return Oracle(seed)
    if name == "cli":
        return Cli(seed, workdir)
    raise ValueError("unknown workload %r" % name)


NAMES = ("kernels", "oracle", "cli")


def continuum_reference():
    """Continuum level-shift entries of standard_oracle_bath at full size.

    Computed once when the reference is written (n = 400, tol = 1e-9, as in
    acceptance criterion 7); the oracle workload never tabulates kernels.
    """
    spec = sb.standard_oracle_bath()
    table = sb.tabulate_kernels(spec, sb.default_time_horizon(spec), 400, tol=1e-9)
    x_plus, x_minus, z, _ = sb.lso_entries(spec, table)
    return _pair(x_plus) + _pair(x_minus) + _pair(z)
