"""Span tracer that times calls into the specshrink modules from outside.

The tracer replaces each traced function with a wrapper in every loaded
``specshrink.*`` module attribute that refers to that function object, so
calls made through ``from .var import fit_var``-style imports are seen as
well as direct ones.  Each call records one span ``[name, start, end,
parent, op]`` in memory; spans of one benchmark op share the op id.  A
layer's self time is its span's duration minus the durations of its direct
child spans (calls are single-threaded and nested, so children never
overlap).

Observers attached to a few functions turn their arguments and return
value into a small record of what the program chose (VAR order, spans,
taper counts, clamped weights, per-trial periodogram bytes).
"""

import functools
import inspect
import sys
import time

#: Traced functions as ``(module, function)`` under the ``specshrink`` package.
TRACED = (
    ("cli", "main"),
    ("io", "read_trials"),
    ("io", "write_csv"),
    ("timeseries", "detrend"),
    ("timeseries", "standardize"),
    ("periodogram", "compute_periodograms"),
    ("var", "select_var_order"),
    ("var", "fit_var"),
    ("var", "var_spectrum"),
    ("smoothing", "smoothed_estimator"),
    ("smoothing", "span_risks"),
    ("smoothing", "smooth_periodogram"),
    ("multitaper", "select_taper_count"),
    ("multitaper", "multitaper_estimator"),
    ("shrinkage", "shrinkage_pipeline"),
    ("shrinkage", "shrinkage_diagnostics"),
    ("shrinkage", "combine_estimates"),
    ("connectivity", "jackknife_band_stats"),
    ("connectivity", "partial_coherence"),
    ("connectivity", "pairwise_tests"),
    ("simulation", "simulate_mixture"),
    ("simulation", "monte_carlo_compare"),
)

#: The span that encloses one whole op.
ROOT_SPAN = "cli.main"


def _observe_order(call, result):
    return {"order": int(result.order), "max_order": int(call["max_order"])}


def _observe_spans(call, result):
    from specshrink.smoothing import default_span_grid
    config = result[1]
    if config.fixed_span is not None:
        return None
    grid = config.span_grid or default_span_grid(call["series"].n_samples)
    return {"spans": [int(s) for s in config.selected_spans],
            "grid": [int(min(grid)), int(max(grid))]}


def _observe_tapers(call, result):
    from specshrink.multitaper import default_taper_grid
    grid = call["taper_grid"] or default_taper_grid(call["series"].n_samples)
    return {"median": int(result.median), "per_trial": [int(m) for m in result.per_trial],
            "grid": [int(min(grid)), int(max(grid))]}


def _observe_weights(call, result):
    clamped = result.weight != result.weight_raw
    return {"clamped": float(clamped.mean())}


def _observe_periodograms(call, result):
    per_trial = getattr(result, "per_trial", None)
    return {"per_trial_bytes": 0 if per_trial is None else int(per_trial.nbytes)}


OBSERVERS = {
    "var.select_var_order": _observe_order,
    "smoothing.smoothed_estimator": _observe_spans,
    "multitaper.select_taper_count": _observe_tapers,
    "shrinkage.shrinkage_diagnostics": _observe_weights,
    "periodogram.compute_periodograms": _observe_periodograms,
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``op`` is stamped onto every span and observation recorded while it is
    set.  ``spans`` and ``observed`` stay in memory until the caller reads
    them.
    """

    def __init__(self):
        self.op = None
        self.spans = []
        self.observed = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        package = [module for name, module in list(sys.modules.items())
                   if name == "specshrink" or name.startswith("specshrink.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"specshrink.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        observer = OBSERVERS.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if observer is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                record = observer(call.arguments, result)
                if record is not None:
                    self.observed.append((self.op, name, record))
            return result

        return traced


def self_times(spans):
    """Per op, ``{span name: [calls, self seconds]}`` and the root span's duration.

    Returns ``{op: ({name: [calls, self_s]}, root_s)}``.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            covered[parent] += end - start
    per_op = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        layers, root = per_op.get(op, ({}, 0.0))
        entry = layers.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[index]
        if parent is None and name == ROOT_SPAN:
            root += end - start
        per_op[op] = (layers, root)
    return per_op
