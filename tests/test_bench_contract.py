"""The package names the benchmark's tracer reads (bench/spans.py), and
the library calls its workloads make (bench/workloads.py).

The tracer reports a renamed or removed function as an absent metric
rather than failing, so a refactor could silently blank benchmark metrics,
and a removed parameter would fail every benchmark run; these checks make
such a change fail here instead.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import types

import pytest

import spinbath as sb

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # executed from source, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


def test_traced_functions_exist(spans):
    for layer in spans.LAYERS:
        importlib.import_module("%s.%s" % (spans.PACKAGE, layer))
    names = spans.FUNCTION_BUSY + spans.FUNCTION_CALLS + tuple(spans._OBSERVERS)
    assert names
    for layer, fn in names:
        module = importlib.import_module("%s.%s" % (spans.PACKAGE, layer))
        obj = getattr(module, fn, None)
        assert inspect.isfunction(obj), "%s.%s" % (layer, fn)
        # the tracer wraps only functions defined in their own layer
        assert obj.__module__ == module.__name__, "%s.%s" % (layer, fn)


def test_quadrature_callers_bind_the_integrator(spans):
    for caller in spans.QUAD_CALLERS:
        module = importlib.import_module("%s.%s" % (spans.PACKAGE, caller))
        assert "integrate_refining" in vars(module), caller


def test_models_carry_the_observed_fields():
    spec, trunc = sb.standard_test_bath()
    model = sb.build_model(sb.discretize(sb.coupling_function(spec), trunc),
                           spec, trunc)
    assert isinstance(model.materialized, bool)
    assert model.dim == 4 * trunc.bath_dim
    assert "force_virtual" in inspect.signature(sb.lso_finite).parameters


def test_tracer_counts_the_nodes_of_the_weighted_integrand(spans, monkeypatch):
    # the integrand takes (nodes, weights); the tracer's counting wrapper
    # must forward both and still count every node the calls report
    from spinbath import bath_correlations

    tracer = spans.Tracer()
    tracer.install()
    records = []
    try:
        counted = bath_correlations.integrate_refining

        def recording(*args, **kwargs):
            res = counted(*args, **kwargs)
            records.append(res.nodes)
            return res

        monkeypatch.setattr(bath_correlations, "integrate_refining", recording)
        sb.tabulate_kernels(sb.standard_oracle_bath(), 8.0, 16, tol=1e-6)
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    assert "quadrature.integrate_refining" not in tracer.absent
    assert len(records) == tracer.quad["calls"] > 0
    assert tracer.quad["nodes"] == sum(records) > 0
    assert tracer.quad_by_caller["bath_correlations"]["nodes"] == sum(records)


def test_benchmark_library_calls_bind():
    # every sb.<name>(...) call of the workloads, bound by its argument
    # count and keyword names; the file is parsed, not imported
    tree = ast.parse((BENCH / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "sb"]
    assert {"default_time_horizon", "run_oracle_schedule", "TruncationSpec",
            "lso_finite"} <= {call.func.attr for call in calls}
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        signature = inspect.signature(getattr(sb, call.func.attr))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail("bench/workloads.py:%d sb.%s: %s"
                        % (call.lineno, call.func.attr, exc))


def test_a_cache_miss_adds_one_file_named_by_its_key(tmp_path, table_entry,
                                                     level_shift_entry):
    # the cli workload counts a miss per new cache file stem (the name up to
    # its first dot) and sums the new files' bytes, over both entry kinds:
    # a miss must add one file whose stem is the key, and a hit none
    from spinbath import relaxation

    spec = sb.standard_oracle_bath()
    tables, records = tmp_path / "tables", tmp_path / "records"
    records.mkdir()

    def listing(cache):
        return {p.name: p.stat().st_size for p in cache.iterdir()}

    def stems(names):
        return {name.split(".", 1)[0] for name in names}

    sb.tabulate_kernels(spec, 5.0, 16, tol=1e-6, cache_dir=str(tables))
    after_miss = listing(tables)
    assert stems(after_miss) == stems([table_entry(spec, 5.0, 16, 1e-6)])
    sb.tabulate_kernels(spec, 5.0, 16, tol=1e-6, cache_dir=str(tables))
    assert listing(tables) == after_miss

    # a cold level-shift request adds its record and its table; a second
    # request on the same table adds only its record
    expected = {table_entry(spec, 5.0, 16, 1e-6)}
    for eps in (spec.eps, 2.0 * spec.eps):
        bath = dataclasses.replace(spec, eps=eps)
        before = listing(records)
        relaxation.cached_level_shift(bath, 5.0, 16, tol=1e-6, lso_tol=1e-8,
                                      cache_dir=str(records))
        expected.add(level_shift_entry(bath, 5.0, 16, 1e-6, 1e-8))
        assert stems(set(listing(records)) - set(before)) == \
            stems(expected - set(before))
    after_records = listing(records)
    relaxation.cached_level_shift(bath, 5.0, 16, tol=1e-6, lso_tol=1e-8,
                                  cache_dir=str(records))
    assert listing(records) == after_records
