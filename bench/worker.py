"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with the source tree on PYTHONPATH and BLAS threads
pinned.  Imports spinbath, builds the workload's inputs (timed as set-up),
runs passes over the workload's solves for the requested time, checks
every output, and writes its measurements as JSON to --result.

  python3 bench/worker.py --workload kernels --seed 0 --seconds 15 \
      --trace 0 --workdir DIR --result FILE
  python3 bench/worker.py --workload cli --seed 0 --workdir DIR --setup-only
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's seed-0 outputs in reference.json")
    return p.parse_args(argv)


def _scale(ref, floor):
    if floor == "row":
        return max((abs(v) for v in ref), default=0.0)
    return floor


def compare(outputs, reference, tolerances):
    """Largest |value - ref| / (rtol * max(|ref|, floor)) over all outputs."""
    worst = 0.0
    for key, value in outputs.items():
        rtol, floor = tolerances[key]
        ref = reference[key]
        values = value if isinstance(value, list) else [value]
        refs = ref if isinstance(ref, list) else [ref]
        if len(values) != len(refs):
            return float("inf")
        scale = _scale(refs, floor)
        for v, r in zip(values, refs):
            if v == r:
                continue
            allowed = rtol * max(abs(r), scale)
            ratio = abs(v - r) / allowed if allowed > 0.0 else float("inf")
            worst = max(worst, ratio if ratio == ratio else float("inf"))  # NaN fails
    return worst


class Run:
    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.solve_s = {}     # name -> seconds, one entry per pass
        self.pass_s = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.drift = 0.0
        self.identity_margin = 0.0
        self.outputs = {}
        self.tracer = None
        self.per_solve = {}   # traced passes: name -> (wall s, {span key: busy s})

    def one_pass(self):
        w = self.workload
        w.begin_pass()
        outputs, identities, failed = {}, {}, set()
        clock = time.perf_counter
        start = clock()
        for solve in w.solves:
            if self.tracer is not None:
                before = dict(self.tracer.busy)
            t = clock()
            try:
                outputs[solve.name], identities[solve.name] = solve.run()
            except Exception as exc:  # a failed solve is counted, not fatal
                failed.add(solve.name)
                self.failures.append("%s: %s" % (solve.name, "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()))
            elapsed = clock() - t
            self.solve_s.setdefault(solve.name, []).append(elapsed)
            if self.tracer is not None:
                busy = self.tracer.busy
                self.per_solve[solve.name] = (elapsed, {
                    k: v - before.get(k, 0.0) for k, v in busy.items()})
        self.pass_s.append(clock() - start)
        self._check(outputs, identities, failed)
        self.outputs = outputs
        self.attempted += len(w.solves)
        self.failed += len(failed)

    def _check(self, outputs, identities, failed):
        w = self.workload
        checks = [(name, label, value, bound)
                  for name, items in identities.items()
                  for label, value, bound in items]
        for label, value, bound, names in w.cross_identities(outputs):
            checks.extend((name, label, value, bound) for name in names)
        if self.reference is not None:
            for solve in w.solves:
                if solve.name not in outputs:
                    continue
                ref = self.reference.get("solves", {}).get(solve.name)
                if ref is None:
                    checks.append((solve.name, "reference present", 1.0, 0.0))
                    continue
                drift = compare(outputs[solve.name], ref, solve.tolerances)
                self.drift = max(self.drift, drift)
                checks.append((solve.name, "within tolerance of reference", drift, 1.0))
                for label, value, bound in w.reference_identities(
                        solve.name, outputs[solve.name], self.reference):
                    checks.append((solve.name, label, value, bound))
        for name, label, value, bound in checks:
            ok = value <= bound
            if bound > 0.0 and label != "within tolerance of reference":
                self.identity_margin = max(self.identity_margin, value / bound)
            if not ok and name not in failed:
                failed.add(name)
                self.failures.append("%s: %s = %.3g exceeds %.3g"
                                     % (name, label, value, bound))


def _run_for(run, seconds):
    """Run the number of passes that best fills `seconds`, at least one.

    The count is fixed after the first pass, so a run never ends with a
    pass cut short, and its length stays near `seconds`.
    """
    start = time.perf_counter()
    run.one_pass()
    first = time.perf_counter() - start
    for _ in range(int(seconds / first + 0.5) - 1):
        run.one_pass()


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, HERE)
    import workloads  # imports spinbath
    workload = workloads.build(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = None
    if args.seed == 0 and not args.write_reference:
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(args.workload)
            if reference is None:
                raise SystemExit("no reference stored for workload %r" % args.workload)

    result = {}
    run = Run(workload, reference)
    if args.trace:
        import spans as tracing
        _run_for(run, args.seconds / 2.0)
        untraced = list(run.pass_s)
        tracer = tracing.Tracer()
        workload.account()
        tracer.install()
        run.tracer = tracer
        first = len(run.pass_s)
        try:
            _run_for(run, args.seconds / 2.0)
        finally:
            tracer.uninstall()
        traced = run.pass_s[first:]
        layers = tracing.layer_metrics(tracer, len(traced))
        layers.update(_cache_metrics(workload, tracer, len(traced)))
        layers["trace_overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
        result["layers"] = layers
        result["absent"] = dict(tracer.absent)
        result["baseline_rows"] = _baseline_rows(args.workload, run.per_solve)
    else:
        _run_for(run, args.seconds)
    result.update(peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  env=_environment(),
                  pass_s=run.pass_s, solve_s=run.solve_s, attempted=run.attempted,
                  failed=run.failed, failures=run.failures[:20],
                  drift_over_tol=run.drift if reference is not None else run.identity_margin,
                  drift_basis="reference" if reference is not None else "identities")

    if args.write_reference:
        _write_reference(args.workload, run)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def _cache_metrics(workload, tracer, passes):
    stats = workload.cache_stats or {"misses": 0, "bytes_written": 0, "artifact_bytes": 0}
    n = float(max(passes, 1))
    out = {"bath_correlations.cache.misses": stats["misses"] / n,
           "bath_correlations.cache.bytes_written": stats["bytes_written"] / n,
           "cli.artifact_bytes": stats["artifact_bytes"] / n}
    if "bath_correlations.tabulate_kernels" in tracer.absent:
        tracer.absent["bath_correlations.cache.hits"] = (
            "cache lookups are counted at tabulate_kernels, which is gone")
        return out
    lookups = tracer.cache_lookups
    hits = max(lookups - stats["misses"], 0)
    out["bath_correlations.cache.hits"] = hits / n
    out["bath_correlations.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def _baseline_rows(name, per_solve):
    """The ROADMAP Baseline rows that this workload's last traced pass reproduces."""
    from workloads import N_KERNEL
    def busy(solve, layer, fn=None):
        entry = per_solve.get(solve)
        return entry[1].get((layer, fn) if fn else layer, 0.0) if entry else None

    rows = {}
    if name == "kernels":
        tab = busy("beta=4", "bath_correlations", "tabulate_kernels")
        horizon = busy("beta=4", "relaxation", "default_time_horizon")
        if tab is not None and horizon is not None:
            rows["tabulate_kernels(standard_oracle_bath, n=%d) s" % N_KERNEL] = tab - horizon
            rows["default_time_horizon(standard_oracle_bath) s"] = horizon
    elif name == "oracle":
        ladder = busy("ladder", "truncated_oracle", "run_oracle_schedule")
        if ladder:
            rows["run_oracle_schedule() default ladder s"] = ladder
            rows["  of which quadrature (pairings) s"] = busy("ladder", "quadrature")
        weyl = [k for k in per_solve if k.startswith("weyl")]
        for solve in weyl:
            for fn in ("build_model", "kms_vector", "weyl_sequence_check"):
                rows["%s on %s s" % (fn, solve)] = busy(solve, "truncated_oracle", fn)
        rows["kms_vector on test_model n_max=4 s"] = busy(
            "test_model n_max=4", "truncated_oracle", "kms_vector")
    elif name == "cli":
        readme = "rate grid_exponential_b1_e0.5_q1"
        if readme in per_solve:
            rows["spinbath %s s" % readme] = per_solve[readme][0]
        rates = sorted(v[0] for k, v in per_solve.items() if k.startswith("rate "))
        if rates:
            rows["spinbath rate median over %d configs s" % len(rates)] = rates[len(rates) // 2]
    return {k: v for k, v in rows.items() if v is not None}


def _write_reference(name, run):
    import workloads
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    entry = {"solves": run.outputs}
    if name == "oracle":
        entry["continuum"] = workloads.continuum_reference()
    data[name] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
