"""Self-test of the benchmark at toy sizes (about ten seconds).

    python3 perfbench/selftest.py

Runs one untraced and one traced op of each workload on toy inputs and
checks that:

* every op passes its output checks;
* the traced wrappers see every function of the layer table, each on the
  workloads the table says exercise it, and none of the functions the
  table predicts a workload never calls;
* per op, the self times of all spans add up to the traced op time, and
  that time matches the wall time measured around the op;
* the wrappers are all removed when tracing ends;
* the reference comparison accepts an identical digest and rejects a
  perturbed value or a changed choice;
* the metric names a run prints are exactly those in ``BENCHMARK.json``.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import sys

import run

#: Functions each workload must call (from the layer table in README.md).
PIPELINE = {"periodogram.compute_periodograms", "var.select_var_order", "var.fit_var",
            "var.var_spectrum", "smoothing.smoothed_estimator", "smoothing.span_risks",
            "smoothing.smooth_periodogram", "shrinkage.shrinkage_diagnostics",
            "shrinkage.combine_estimates"}
CLI_INPUT = {"cli.main", "io.read_trials", "io.write_csv", "timeseries.detrend",
             "timeseries.standardize", "shrinkage.shrinkage_pipeline"}
CALLED = {
    "estimate": PIPELINE | CLI_INPUT,
    "connectivity": PIPELINE | CLI_INPUT | {"connectivity.jackknife_band_stats",
                                            "connectivity.partial_coherence",
                                            "connectivity.pairwise_tests"},
    "compare": PIPELINE | {"cli.main", "io.write_csv", "multitaper.select_taper_count",
                           "multitaper.multitaper_estimator", "simulation.simulate_mixture",
                           "simulation.monte_carlo_compare", "connectivity.partial_coherence"},
}
#: Functions the table predicts a workload never calls (its "zero calls" pairings).
NOT_CALLED = {
    "estimate": {"multitaper.select_taper_count", "multitaper.multitaper_estimator",
                 "simulation.simulate_mixture", "simulation.monte_carlo_compare",
                 "connectivity.jackknife_band_stats", "connectivity.partial_coherence",
                 "connectivity.pairwise_tests"},
    "connectivity": {"multitaper.select_taper_count", "multitaper.multitaper_estimator",
                     "simulation.simulate_mixture", "simulation.monte_carlo_compare"},
    "compare": {"io.read_trials", "shrinkage.shrinkage_pipeline",
                "connectivity.jackknife_band_stats", "connectivity.pairwise_tests"},
}
TOY_SIZES = {"estimate": (6, 64), "connectivity": (4, 64), "compare": (6, 64)}


def main():
    if not run.prepare():
        print(f"error: no package source under {run.SRC}", file=sys.stderr)
        return 2
    import specshrink.cli as cli
    from tracer import TRACED, Tracer, self_times
    from workloads import WORKLOADS, compare_digests, resized
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)

    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    expect(set(run.WORKLOAD_NAMES) == set(WORKLOADS)
           == {w["name"] for w in declared["workloads"]}, "workload names agree")
    traced_names = {f"{module}.{func}" for module, func in TRACED}
    seen = set()
    workdir = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in run.WORKLOAD_NAMES:
            workload = resized(WORKLOADS[name], *TOY_SIZES[name])
            untraced = run.run_op(workload, cli, workdir, 1, 0)
            with Tracer() as tracer:
                traced = run.run_op(workload, cli, workdir, 1, 1, tracer)
            expect(not untraced.errors and not traced.errors,
                   f"{name}: toy ops pass their checks {untraced.errors + traced.errors}")
            layers, root_s = self_times(tracer.spans)[traced.index]
            called = {span for span, (calls, _) in layers.items() if calls}
            seen |= called
            expect(CALLED[name] <= called,
                   f"{name}: calls every expected layer (missing {CALLED[name] - called})")
            expect(not NOT_CALLED[name] & called,
                   f"{name}: calls no layer predicted idle ({NOT_CALLED[name] & called})")
            total_self = sum(self_s for _, self_s in layers.values())
            expect(abs(total_self - root_s) <= 1e-9 * max(root_s, 1.0),
                   f"{name}: self times sum to the traced op time "
                   f"({total_self:.6f} s vs {root_s:.6f} s)")
            expect(0.0 <= traced.wall - root_s <= 0.005,
                   f"{name}: traced op time matches its wall time "
                   f"({root_s:.6f} s vs {traced.wall:.6f} s)")
            wrapped = [f"{module}.{func}" for module, func in TRACED
                       if hasattr(getattr(sys.modules[f"specshrink.{module}"], func),
                                  "__wrapped__")]
            expect(not wrapped, f"{name}: wrappers removed after tracing {wrapped}")

            run.add_decisions(traced, tracer.observed)
            digest = traced.digest or {"values": {"none": [0.0]}, "choices": {"none": 0}}
            expect(compare_digests(digest, digest) == [], f"{name}: digest matches itself")
            key = next(iter(digest["values"]))
            bent = json.loads(json.dumps(digest))
            bent["values"][key][0] = bent["values"][key][0] * (1 + 1e-4) + 1e-9
            expect(bool(compare_digests(bent, digest)), f"{name}: perturbed value rejected")
            choice = next(iter(digest["choices"]))
            bent = json.loads(json.dumps(digest))
            bent["choices"][choice] = "changed"
            expect(bool(compare_digests(bent, digest)), f"{name}: changed choice rejected")

            if name == "estimate":
                layer_names = set(run.layer_metrics(workload, tracer, [traced], [untraced]))
                expect(layer_names == {m["name"] for m in declared["per_layer"]},
                       "per-layer metric names match BENCHMARK.json "
                       f"{layer_names ^ {m['name'] for m in declared['per_layer']}}")
                e2e = set(run.end_to_end_metrics([untraced], 0.0))
                expect(e2e == {m["name"] for m in declared["end_to_end"]},
                       "end-to-end metric names match BENCHMARK.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expect(seen == traced_names, f"every traced layer is seen ({traced_names - seen} unseen)")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
