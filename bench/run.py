"""Benchmark of the spinbath pipeline: three workloads, one command.

    python3 bench/run.py --workload {kernels,oracle,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each run starts fresh child
interpreters with src/ on PYTHONPATH and BLAS/OpenMP pinned to one thread:
several that only import spinbath and build the workload's inputs (their
median is setup_s), then one that runs the workload for S seconds and
checks every output (see worker.py and workloads.py).  Every child gets a
private scratch directory under .bench_tmp/, removed at the end.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics instead, from a run that spends half its time untraced
and half traced (spans.py), so trace_overhead_frac compares the two.
Earlier lines are a human-readable summary with sample counts, the
machine, and any metric that is absent, with its reason.

Seed 0 is checked against reference.json; other seeds by the paper's
identities.  Exits 2 without a result if the source tree is missing or a
child fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels", "oracle", "cli")
SETUP_SAMPLES = 3
THREADS = "1"
CHILD_TIMEOUT_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildError(Exception):
    pass


def _child(args, env, deadline):
    """Run bench/worker.py and return its standard output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildError("worker exceeded its time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise ChildError("worker exited with code %d" % proc.returncode)
    return out.decode()


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _stop(signum, frame):
    # unwinds through _child, which kills and reaps the running worker
    sys.exit(128 + signum)


def main(argv=None):
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _stop)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinbath", "__init__.py")):
        print("error: no spinbath source tree at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    env = _env()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        for i in range(SETUP_SAMPLES):
            workdir = os.path.join(scratch, "setup%d" % i)
            os.makedirs(workdir)
            out = _child(common + ["--workdir", workdir, "--setup-only"], env, deadline)
            setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        workdir = os.path.join(scratch, "run")
        os.makedirs(workdir)
        result_path = os.path.join(scratch, "result.json")
        _child(common + ["--workdir", workdir, "--result", result_path,
                          "--seconds", repr(args.seconds), "--trace", str(args.trace)],
               env, deadline)
        with open(result_path) as fh:
            result = json.load(fh)
    except ChildError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    values = {}
    counts = {}
    absent = dict(result.get("absent", {}))
    if args.trace:
        declared = per_layer
        values.update(result["layers"])
        values["drift_over_tol"] = result["drift_over_tol"]
        for name, value in result["baseline_rows"].items():
            print("# baseline %s = %.6g" % (name, value))
    else:
        declared = end_to_end
        passes = result["pass_s"]
        solves = [t for times in result["solve_s"].values() for t in times]
        values["wall_s"] = statistics.median(passes)
        values["solve_s.p50"] = statistics.median(solves)
        values["solve_s.p90"] = statistics.quantiles(solves, n=10, method="inclusive")[8]
        values["peak_rss_mb"] = result["peak_rss_kib"] / 1024.0
        values["setup_s"] = statistics.median(setup)
        counts = {"wall_s": "%d passes" % len(passes),
                  "solve_s.p50": "%d solves" % len(solves),
                  "solve_s.p90": "%d solves" % len(solves),
                  "peak_rss_mb": "1 process", "setup_s": "%d interpreters" % len(setup)}

    attempted, failed = result["attempted"], result["failed"]
    env_info = result["env"]
    env_info["blas_threads"] = int(THREADS)
    print("# env %s" % json.dumps(env_info, sort_keys=True))
    print("# %s seed=%d trace=%d: %d solves attempted, %d failed (failed_frac %.4g); "
          "drift_over_tol %.3g vs %s"
          % (args.workload, args.seed, args.trace, attempted, failed,
             failed / max(attempted, 1), result["drift_over_tol"], result["drift_basis"]))
    for line in result["failures"]:
        print("# FAILED %s" % line)
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in values:
            absent.setdefault(name, "not measured on this workload")
            continue
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        n = counts.get(name)
        print("# %-48s %14.6g %-6s%s" % (name, values[name], m["unit"],
                                         " (%s)" % n if n else ""))
    for name, reason in sorted(absent.items()):
        print("# absent %s: %s" % (name, reason))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
