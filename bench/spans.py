"""Per-module spans and counters, recorded from outside the package.

`Tracer.install()` replaces every public function of the traced `spinbath`
modules with a timing wrapper, in the defining module and in every other
`spinbath` module (or the package itself) that binds the same object, so
nested calls such as cli -> default_time_horizon -> tabulate_kernels ->
integrate_refining are all seen.  The `integrate_refining` binding of each
calling module additionally counts integrand evaluations and nodes through
its `f` argument.  `Tracer.uninstall()` restores the original bindings.

Nothing here changes what the package computes.  A wrapped name that a
later version renames or removes shows up as an absent metric with a
reason, never as an error.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "spinbath"
LAYERS = ("spectral_density", "bath_correlations", "quadrature", "relaxation",
          "truncated_oracle", "constants_ledger", "config", "cli")
QUAD_CALLERS = ("bath_correlations", "relaxation", "truncated_oracle")

# (layer, function): the per-function spans the per-layer metrics read.
FUNCTION_BUSY = (
    ("bath_correlations", "tabulate_kernels"),
    ("relaxation", "default_time_horizon"),
    ("relaxation", "lso_matrix"),
    ("truncated_oracle", "run_oracle_schedule"),
    ("truncated_oracle", "build_model"),
    ("truncated_oracle", "kms_vector"),
    ("truncated_oracle", "weyl_sequence_check"),
    ("spectral_density", "check_condition_A"),
    ("config", "load_config"),
)
FUNCTION_CALLS = (
    ("relaxation", "default_time_horizon"),
    ("relaxation", "gamma_rate"),
)


class Tracer:
    """Span aggregation in memory; one instance per traced process."""

    def __init__(self):
        self._restore = []
        self._stack = []          # layers of the open spans, innermost last
        self._depth = {}          # layer or (layer, fn) -> open span count
        self._opened = {}         # layer or (layer, fn) -> outermost start
        self._last = 0.0
        self.absent = {}          # metric name -> reason
        self.calls = {}           # layer or (layer, fn) -> count
        self.busy = {}            # layer or (layer, fn) -> seconds
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.lso_busy = {"dense": 0.0, "virtual": 0.0}
        self.model_bytes_max = 0
        self.dim_max = 0
        self.cache_lookups = 0
        self.quad = {"calls": 0, "maxed": 0, "nodes": 0, "evals": 0,
                     "passes": 0, "unknown_max": 0}
        self.quad_by_caller = {c: {"calls": 0, "nodes": 0} for c in QUAD_CALLERS}

    # --- installation -------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE
                                           or name.startswith(PACKAGE + "."))}
        for layer in LAYERS:
            mod = modules.get("%s.%s" % (PACKAGE, layer))
            if mod is None:
                self.absent[layer] = "module %s.%s not found" % (PACKAGE, layer)
                continue
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                spanned = self._span(layer, name, obj)
                for holder_name, holder in modules.items():
                    if vars(holder).get(name) is not obj:
                        continue
                    wrapper = spanned
                    if layer == "quadrature" and name == "integrate_refining":
                        caller = holder_name.rpartition(".")[2]
                        wrapper = self._counting(caller, obj, spanned)
                    self._restore.append((holder, name, obj))
                    setattr(holder, name, wrapper)
        for layer, fn in FUNCTION_BUSY + FUNCTION_CALLS + tuple(_OBSERVERS):
            mod = modules.get("%s.%s" % (PACKAGE, layer))
            if mod is None or not inspect.isfunction(getattr(mod, fn, None)):
                self.absent["%s.%s" % (layer, fn)] = (
                    "%s.%s.%s not found" % (PACKAGE, layer, fn))
        quad = modules.get("%s.quadrature" % PACKAGE)
        if quad is None or not callable(getattr(quad, "integrate_refining", None)):
            self.absent["quadrature.integrate_refining"] = (
                "%s.quadrature.integrate_refining not found" % PACKAGE)
        for caller in QUAD_CALLERS:
            mod = modules.get("%s.%s" % (PACKAGE, caller))
            if mod is None or "integrate_refining" not in vars(mod):
                self.absent["quadrature.caller.%s" % caller] = (
                    "%s.%s no longer binds integrate_refining" % (PACKAGE, caller))

    def uninstall(self):
        for holder, name, obj in reversed(self._restore):
            setattr(holder, name, obj)
        self._restore.clear()

    # --- spans ---------------------------------------------------------------

    def _enter(self, keys, layer, now):
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        self._stack.append(layer)
        for key in keys:
            self.calls[key] = self.calls.get(key, 0) + 1
            depth = self._depth.get(key, 0)
            if depth == 0:
                self._opened[key] = now
            self._depth[key] = depth + 1

    def _exit(self, keys, layer, now):
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now
        for key in keys:
            depth = self._depth[key] - 1
            self._depth[key] = depth
            if depth == 0:
                self.busy[key] = self.busy.get(key, 0.0) + now - self._opened[key]

    def _span(self, layer, name, fn):
        keys = (layer, (layer, name))
        observe = _OBSERVERS.get((layer, name))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(keys, layer, clock())
            start = self._last
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(keys, layer, clock())
            if observe is not None:
                observe(self, args, kwargs, result, self._last - start)
            return result

        return wrapper

    # --- quadrature counters -----------------------------------------------

    def _counting(self, caller, original, spanned):
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None
        quad = self.quad
        by_caller = self.quad_by_caller.setdefault(caller, {"calls": 0, "nodes": 0})

        @functools.wraps(original)
        def wrapper(f, *args, **kwargs):
            counts = [0, 0]

            def counted(x, *fargs, **fkwargs):
                counts[0] += 1
                counts[1] += int(np.size(x))
                return f(x, *fargs, **fkwargs)

            try:
                return spanned(counted, *args, **kwargs)
            finally:
                max_refine = _bound_arg(signature, (f,) + args, kwargs, "max_refine")
                quad["calls"] += 1
                quad["evals"] += counts[0]
                quad["nodes"] += counts[1]
                quad["passes"] += max(counts[0] - 1, 0)
                if max_refine is None:
                    quad["unknown_max"] += 1
                elif counts[0] - 1 >= max_refine:
                    quad["maxed"] += 1
                by_caller["calls"] += 1
                by_caller["nodes"] += counts[1]

        return wrapper


def _bound_arg(signature, args, kwargs, name):
    if signature is None or name not in signature.parameters:
        return None
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound.arguments.get(name)


def _observe_lso(tracer, args, kwargs, result, elapsed):
    model = args[0] if args else kwargs.get("model")
    force = bool(kwargs.get("force_virtual", False))
    materialized = getattr(model, "materialized", None)
    if materialized is None:
        tracer.absent["truncated_oracle.lso_finite.path"] = (
            "finite models no longer carry 'materialized'")
        return
    path = "dense" if materialized and not force else "virtual"
    tracer.lso_busy[path] += elapsed


def _observe_model(tracer, args, kwargs, result, elapsed):
    nbytes = sum(int(v.nbytes) for v in vars(result).values()
                 if isinstance(v, np.ndarray))
    tracer.model_bytes_max = max(tracer.model_bytes_max, nbytes)
    dim = getattr(result, "dim", None)
    if dim is None:
        tracer.absent["truncated_oracle.dim"] = "finite models no longer carry 'dim'"
    elif nbytes:
        # a model that stores no arrays (the virtual path) has only a nominal dim
        tracer.dim_max = max(tracer.dim_max, int(dim))


def _observe_tabulate(tracer, args, kwargs, result, elapsed):
    if kwargs.get("cache_dir") is not None:
        tracer.cache_lookups += 1


_OBSERVERS = {
    ("bath_correlations", "tabulate_kernels"): _observe_tabulate,
    ("truncated_oracle", "lso_finite"): _observe_lso,
    ("truncated_oracle", "build_model"): _observe_model,
}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics averaged over `passes` traced passes.

    Returns {name: value}; names listed in tracer.absent are left out.
    """
    n = float(max(passes, 1))
    out = {}
    for layer in LAYERS:
        if layer in tracer.absent:
            continue
        out[layer + ".calls"] = tracer.calls.get(layer, 0) / n
        out[layer + ".busy_s"] = tracer.busy.get(layer, 0.0) / n
        out[layer + ".self_s"] = tracer.self_s.get(layer, 0.0) / n

    def fn_metric(layer, fn, suffix, value):
        if "%s.%s" % (layer, fn) not in tracer.absent:
            out["%s.%s.%s" % (layer, fn, suffix)] = value

    for layer, fn in FUNCTION_BUSY:
        fn_metric(layer, fn, "busy_s", tracer.busy.get((layer, fn), 0.0) / n)
    for layer, fn in FUNCTION_CALLS:
        fn_metric(layer, fn, "calls", tracer.calls.get((layer, fn), 0) / n)

    q = tracer.quad
    if "quadrature.integrate_refining" not in tracer.absent:
        out["quadrature.nodes"] = q["nodes"] / n
        out["quadrature.evals"] = q["evals"] / n
        out["quadrature.passes"] = q["passes"] / n
        if q["unknown_max"]:
            tracer.absent["quadrature.maxed_frac"] = (
                "integrate_refining no longer takes max_refine")
        else:
            out["quadrature.maxed_frac"] = q["maxed"] / max(q["calls"], 1)
        for caller in QUAD_CALLERS:
            if "quadrature.caller.%s" % caller not in tracer.absent:
                out["quadrature.nodes." + caller] = (
                    tracer.quad_by_caller[caller]["nodes"] / n)
        if "quadrature.caller.relaxation" not in tracer.absent:
            out["quadrature.calls.relaxation"] = (
                tracer.quad_by_caller["relaxation"]["calls"] / n)

    if not {"truncated_oracle.lso_finite", "truncated_oracle.lso_finite.path"} & set(tracer.absent):
        out["truncated_oracle.lso_finite.dense_busy_s"] = tracer.lso_busy["dense"] / n
        out["truncated_oracle.lso_finite.virtual_busy_s"] = (
            tracer.lso_busy["virtual"] / n)
    if "truncated_oracle.build_model" not in tracer.absent:
        out["truncated_oracle.model_bytes.max"] = float(tracer.model_bytes_max)
        if "truncated_oracle.dim" not in tracer.absent:
            out["truncated_oracle.dim.max"] = float(tracer.dim_max)
    return out
