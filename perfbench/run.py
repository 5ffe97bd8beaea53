"""specshrink benchmark: one workload per run, a closed loop with one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 28 --trace 0

Every op calls the public CLI entry point in process,
``specshrink.cli.main(argv)``, on inputs generated from ``--seed``; the next
op starts only when the last one has finished.  A run first times set-up,
then runs one op on the fixed reference input and compares its outputs and
choices with ``reference.json``, then runs timed ops for ``--seconds``.
Every op's CSVs are parsed and checked.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it spends half the time on
untraced ops and half on ops traced per package module, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
#: BLAS and OpenMP threads per process; at most ``nproc`` and steadier at 1.
BLAS_THREADS = "1"
#: Fresh-process imports and input generations timed for ``setup_s``.
SETUP_REPEATS = 3
#: Timed ops a run makes at least, whatever ``--seconds`` says.  ``mse_pcoh`` is the
#: mean over the first this many, so it depends on the seed only; one op's error
#: varies by about 20% between inputs.
MIN_OPS = 5
WORKLOAD_NAMES = ("estimate", "connectivity", "compare")


def prepare():
    """Pin BLAS threads and put the checkout's ``src`` first on the import path.

    Must run before numpy is imported.  Returns False when the checkout has
    no package source.
    """
    if not os.path.isfile(os.path.join(SRC, "specshrink", "__init__.py")):
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


@dataclass
class Op:
    index: int
    wall: float
    cpu: float
    errors: list
    accuracy: float | None
    digest: dict | None


def run_op(workload, cli, workdir, seed, index, tracer=None):
    """Generate one op's inputs, run it through the CLI and check its outputs.

    Only the CLI call is timed; garbage left by earlier ops and checks is
    collected before it starts.  An op that raises, exits nonzero or fails a
    check records why in ``errors``.
    """
    inputs = workload.make_inputs(workdir, seed, index)
    outdir = os.path.join(workdir, f"out-{index}")
    argv = workload.argv(inputs, outdir)
    captured = io.StringIO()
    if tracer is not None:
        tracer.op = index
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except Exception as err:  # a crashing op is counted as failed; the run goes on
        code = f"{type(err).__name__}: {err}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    errors, accuracy, digest = [], None, None
    if code != 0:
        errors.append(f"exit {code}: {captured.getvalue().strip()[-400:]}")
    else:
        try:
            checker, accuracy = workload.check(inputs, outdir)
        except (OSError, ValueError, KeyError, IndexError) as err:
            errors.append(f"unreadable output: {type(err).__name__}: {err}")
        else:
            errors.extend(checker.errors)
            digest = checker.digest()
    shutil.rmtree(outdir, ignore_errors=True)
    for path in inputs.paths:
        os.remove(path)
    return Op(index, wall, cpu, errors, accuracy, digest)


def closed_loop(workload, cli, workdir, seed, seconds, min_ops, first_index, tracer=None):
    """Run ops back to back until the next one would end after ``seconds``."""
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or (time.perf_counter() - start
                                 + statistics.median(op.wall for op in ops) <= seconds):
        ops.append(run_op(workload, cli, workdir, seed, first_index + len(ops), tracer))
    return ops


def decision_digest(observed):
    """What the traced calls chose, as digest entries (choices exact, fractions by value)."""
    choices = {"var_order": [], "spans": [], "tapers": []}
    clamped = []
    for _, name, record in observed:
        if name == "var.select_var_order":
            choices["var_order"].append(record["order"])
        elif name == "smoothing.smoothed_estimator":
            choices["spans"].append(record["spans"])
        elif name == "multitaper.select_taper_count":
            choices["tapers"].append([record["median"], *record["per_trial"]])
        elif name == "shrinkage.shrinkage_diagnostics":
            clamped.append(record["clamped"])
    return {"values": {"decision.clamped": clamped},
            "choices": {f"decision.{k}": v for k, v in choices.items()}}


def describe_decisions(observed):
    """One line of choices plus one line per choice that sits at a grid edge."""
    orders, spans, tapers, clamped, edges = Counter(), Counter(), Counter(), [], Counter()
    for _, name, record in observed:
        if name == "var.select_var_order":
            orders[record["order"]] += 1
            top = record["max_order"]
            if record["order"] in (1, top):
                edges[f"VAR order {record['order']} is at the edge of 1..{top}"] += 1
        elif name == "smoothing.smoothed_estimator":
            spans.update(record["spans"])
            lo, hi = record["grid"]
            at_edge = sum(s in (lo, hi) for s in record["spans"])
            if at_edge:
                edges[f"{at_edge} of {len(record['spans'])} spans are at the edge of "
                      f"{lo}..{hi}"] += 1
        elif name == "multitaper.select_taper_count":
            tapers[record["median"]] += 1
            lo, hi = record["grid"]
            if record["median"] in (lo, hi):
                edges[f"taper count {record['median']} is at the edge of {lo}..{hi}"] += 1
        elif name == "shrinkage.shrinkage_diagnostics":
            clamped.append(record["clamped"])
    fraction = f"{statistics.mean(clamped):.4f}" if clamped else "-"
    line = (f"var_order {dict(sorted(orders.items())) or '-'}; "
            f"span histogram {dict(sorted(spans.items())) or '-'}; "
            f"taper count {dict(sorted(tapers.items())) or '-'}; "
            f"clamped-weight fraction {fraction} over {len(clamped)} weight curves")
    return line, [f"{text} ({count}x)" for text, count in edges.items()]


def reference_op(workload, cli, workdir):
    """One traced op on the fixed reference input; returns the op and its decisions.

    The reference input has the workload's shape but ``reference_trials``
    trials, which keeps the op short; it runs every code path a timed op runs.
    """
    from tracer import Tracer
    from workloads import REFERENCE_INDEX, REFERENCE_SEED, resized
    reference = resized(workload, workload.reference_trials)
    with Tracer() as tracer:
        op = run_op(reference, cli, workdir, REFERENCE_SEED, REFERENCE_INDEX, tracer)
    add_decisions(op, tracer.observed)
    return op, tracer.observed


def add_decisions(op, observed):
    """Fold what the traced calls chose into the op's output digest."""
    if op.digest is not None:
        decisions = decision_digest(observed)
        op.digest["values"].update(decisions["values"])
        op.digest["choices"].update(decisions["choices"])


def measure_setup(workload, workdir, seed):
    """Median over repeats of a fresh-process package import plus input generation."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import specshrink.cli"], env=env, cwd=ROOT,
                       check=True)
        imported = time.perf_counter()
        inputs = workload.make_inputs(workdir, seed, 0)
        totals.append(time.perf_counter() - start)
        imports.append(imported - start)
        for path in inputs.paths:
            os.remove(path)
    return statistics.median(totals), statistics.median(imports)


def source_digest():
    """SHA-256 over the package sources, which names the code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "specshrink")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                ref = handle.read().strip()
        return ref[:12]
    except OSError:
        return "none (not a git checkout)"


def environment(seed):
    """Stamp of what the numbers depend on; runs with different stamps are not compared."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def layer_metrics(workload, tracer, traced, untraced):
    """Per-layer metrics: medians over traced ops of per-op calls and self time."""
    from tracer import ROOT_SPAN, TRACED, self_times
    per_op = self_times(tracer.spans)
    layers = [per_op[op.index][0] for op in traced]
    metrics = {"cli.self_s": (statistics.median(ly[ROOT_SPAN][1] for ly in layers), "s")}
    for module, func in TRACED:
        name = f"{module}.{func}"
        if name == ROOT_SPAN:
            continue
        metrics[f"{name}.calls"] = (statistics.median_low(ly.get(name, (0, 0.0))[0]
                                                      for ly in layers), "count")
        metrics[f"{name}.self_s"] = (statistics.median(ly.get(name, (0, 0.0))[1]
                                                       for ly in layers), "s")
    per_trial = {op.index: 0 for op in traced}
    for op, name, record in tracer.observed:
        if name == "periodogram.compute_periodograms":
            per_trial[op] = max(per_trial[op], record["per_trial_bytes"])
    metrics["periodogram.compute_periodograms.per_trial_bytes"] = (
        statistics.median_low(per_trial.values()), "B_computed")
    metrics["connectivity.pipeline_runs_per_trial"] = (
        metrics["shrinkage.shrinkage_pipeline.calls"][0] / workload.trials_per_op(), "runs/trial")
    untraced_wall = statistics.median(op.wall for op in untraced)
    metrics["proc.cpu_s"] = (statistics.median(op.cpu for op in untraced), "s")
    metrics["proc.cpu_util"] = (statistics.median(op.cpu / op.wall for op in untraced),
                                "cpu_s/s")
    metrics["trace.overhead_s"] = (statistics.median(op.wall for op in traced) - untraced_wall,
                                   "s")
    return metrics


def end_to_end_metrics(timed, setup_s):
    """End-to-end metrics of an untraced run: ``{name: (value, unit)}``."""
    accuracy = [op.accuracy for op in timed[:MIN_OPS] if op.accuracy is not None]
    return {
        "wall_s": (statistics.median(op.wall for op in timed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "mse_pcoh": (statistics.mean(accuracy) if accuracy else 0.0, "pcoh2"),
    }


def summarize(ops):
    walls = [op.wall for op in ops]
    return (f"median of {len(walls)} ops, min {min(walls):.4f}, max {max(walls):.4f} "
            f"(in order: {' '.join(f'{w:.3f}' for w in walls)})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed (>= 0); see README.md for the documented seeds")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not prepare():
        print(f"error: no package source under {SRC}; run from a specshrink checkout",
              file=sys.stderr)
        return 2

    import_start = time.perf_counter()
    import specshrink.cli as cli
    import_s = time.perf_counter() - import_start
    from tracer import Tracer
    from workloads import WORKLOADS, compare_digests
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} (closed loop, 1 client, in process)")
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        if args.trace == 0:
            setup_s, setup_import_s = measure_setup(workload, workdir, args.seed)
            print(f"setup: median of {SETUP_REPEATS}: {setup_s:.4f} s, of which fresh-process "
                  f"import {setup_import_s:.4f} s (in-process import {import_s:.4f} s)")

        reference, observed = reference_op(workload, cli, workdir)
        with open(REFERENCE, encoding="utf-8") as handle:
            stored = json.load(handle)["workloads"].get(workload.name)
        if reference.digest is not None and stored is not None:
            reference.errors.extend(compare_digests(reference.digest, stored))
        elif stored is None:
            reference.errors.append("no stored reference for this workload")
        line, edges = describe_decisions(observed)
        print(f"decisions (reference input): {line}")
        for edge in edges:
            print(f"grid edge (reference input): {edge}")

        if args.trace == 0:
            timed = closed_loop(workload, cli, workdir, args.seed, args.seconds, MIN_OPS, 0)
            metrics = end_to_end_metrics(timed, setup_s)
            print(f"wall_s: {summarize(timed)}")
            print("mse_pcoh per op: " + " ".join(
                "-" if op.accuracy is None else f"{op.accuracy:.6g}" for op in timed))
        else:
            half = args.seconds / 2.0
            untraced = closed_loop(workload, cli, workdir, args.seed, half, 2, 0)
            with Tracer() as tracer:
                traced = closed_loop(workload, cli, workdir, args.seed, half, 2,
                                     len(untraced), tracer)
            timed = untraced + traced
            metrics = layer_metrics(workload, tracer, traced, untraced)
            line, edges = describe_decisions(tracer.observed)
            print(f"decisions ({len(traced)} traced ops): {line}")
            for edge in edges:
                print(f"grid edge (traced ops): {edge}")
            print(f"untraced wall: {summarize(untraced)}; traced wall: {summarize(traced)}")

        ops = [reference, *timed]
        failed = [op for op in ops if op.errors]
        for op in failed:
            print(f"FAILED op {op.index}: {'; '.join(op.errors[:5])}")
        print(f"failed_ops: {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f} (fraction)")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
