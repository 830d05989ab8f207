"""The traced benchmark run ends in a result that carries every declared
per-layer metric.

A module that stops binding a traced name makes the tracer report an
absent metric instead of failing, so a traced run can exit 0 while its
last line lacks a declared metric; this runs one short traced pass of
`kernels` and of `oracle` (whose module binds `integrate_refining` only
for the tracer) and refuses that.  It reads bench/ and writes nothing
there.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _refuse_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


@pytest.mark.parametrize("workload", ["kernels", "oracle"])
def test_traced_run_reports_every_per_layer_metric(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert not [line for line in lines if line.startswith("# absent")]
