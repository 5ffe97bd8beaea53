"""Command-line interface: simulate, estimate, connectivity, compare.

Every subcommand reads/writes the formats in :mod:`specshrink.io`; all
numeric output goes to CSV files in ``--out-dir``.  On failure a single
diagnostic line is printed to stderr and the exit code is nonzero; output
files are written atomically, so failures never leave partial files.
"""

import argparse
import inspect
import os
import sys
from dataclasses import replace

import numpy as np

from . import io as sio
from .connectivity import (apply_fdr, band_mask, check_band, check_fdr_level,
                           jackknife_band_stats, pairwise_tests, partial_coherence)
from .core import FrequencyGrid
from .errors import DomainError, InsufficientDataError, SpecshrinkError
from .shrinkage import ESTIMATORS, PipelineOptions, shrinkage_pipeline
from .simulation import (HARNESS_MAX_ORDER, SimulationConfig, monte_carlo_compare,
                         simulate_mixture)
from .timeseries import detrend, standardize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specshrink",
        description="Multivariate spectral estimation with shrinkage combination "
                    "of parametric and nonparametric estimators.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="generate the benchmark mixture dataset",
        description="Simulate the built-in 12-channel benchmark mixture process "
                    f"(defaults: {SimulationConfig.n_trials} trials of "
                    f"{SimulationConfig.n_samples} samples at weights "
                    f"{SimulationConfig.ma_weight}/{SimulationConfig.ar_weight}) "
                    "and write it as a binary trial-data file.")
    sim.add_argument("--trials", type=int, default=SimulationConfig.n_trials,
                     help="number of trials (default %(default)s)")
    sim.add_argument("--samples", type=int, default=SimulationConfig.n_samples,
                     help="samples per trial (default %(default)s)")
    sim.add_argument("--ma-weight", type=float, default=SimulationConfig.ma_weight,
                     help="weight of the moving-average part (default %(default)s)")
    sim.add_argument("--ar-weight", type=float, default=SimulationConfig.ar_weight,
                     help="weight of the autoregressive part (default %(default)s)")
    sim.add_argument("--burn-in", type=int, default=SimulationConfig.burn_in,
                     help="discarded autoregressive start-up samples (default %(default)s)")
    sim.add_argument("--sampling-rate", type=float, default=SimulationConfig.sampling_rate,
                     help="sampling rate metadata in Hz (default %(default)s)")
    sim.add_argument("--seed", type=int, default=SimulationConfig.seed,
                     help="master seed (default %(default)s)")
    sim.add_argument("--out", required=True, help="output trial-data file")

    est = sub.add_parser(
        "estimate", help="estimate spectra from a trial-data file",
        description="Estimate the spectral density matrix and write "
                    "spectra.csv, cross_spectra.csv, and for the shrinkage method "
                    "weights.csv plus fit_report.txt.")
    _common_analysis_flags(est)
    est.add_argument("input", help="trial-data file (.mts binary or tidy .csv)")
    est.add_argument("--method", choices=tuple(ESTIMATORS), default=None,
                     help=f"estimator (default {sio.RunConfig.method})")
    est.add_argument("--tapers", type=int, default=None,
                     help="taper count for --method multitaper (default: risk-selected)")
    est.add_argument("--weight", type=float, default=None,
                     help="constant shrinkage weight in [0, 1] (default: estimated per "
                          "frequency)")

    conn = sub.add_parser(
        "connectivity", help="band partial coherence and two-condition tests",
        description="Compute band-averaged partial coherence per condition; with two "
                    "input files, also jackknife each condition, Welch-test every "
                    "channel pair per band, and apply Benjamini-Hochberg FDR jointly "
                    "across all bands and pairs (tests.csv).")
    _common_analysis_flags(conn)
    conn.add_argument("inputs", nargs="+", help="one or two trial-data files")
    bands = ", ".join(f"{name}:{lo:g}:{hi:g}" for name, lo, hi in sio.RunConfig.bands)
    conn.add_argument("--band", dest="bands", action=_BandsAction, default=None,
                      metavar="NAME:LO:HI",
                      help=f"analysis band in Hz, repeatable (default {bands})")
    conn.add_argument("--q", dest="fdr_q", type=float, default=None, metavar="Q",
                      help="FDR level for tests.csv, two inputs only "
                           f"(default {sio.RunConfig.fdr_q})")

    comp = sub.add_parser(
        "compare", help="Monte Carlo estimator comparison on the benchmark process",
        description="Simulate replicate datasets of the benchmark mixture, run the "
                    "requested estimators, and write per-frequency mean squared error "
                    "curves (mse_spectral.csv, mse_pcoh.csv) and the mean shrinkage "
                    "weight curve (mean_weight.csv).")
    harness = inspect.signature(monte_carlo_compare).parameters
    comp.add_argument("--reps", type=int, default=harness["reps"].default,
                      help="Monte Carlo replicates (default %(default)s)")
    comp.add_argument("--seed", type=int, default=None,
                      help=f"harness master seed (default {sio.RunConfig.seed})")
    comp.add_argument("--trials", type=int, default=SimulationConfig.n_trials,
                      help="trials per replicate (default %(default)s)")
    comp.add_argument("--samples", type=int, default=SimulationConfig.n_samples,
                      help="samples per trial (default %(default)s)")
    comp.add_argument("--estimators", default=",".join(harness["estimators"].default),
                      help="comma-separated estimator list (default %(default)s)")
    comp.add_argument("--windows", default=None,
                      help="comma-separated odd risk-window widths (default: the "
                           f"configured window, {sio.RunConfig.window} unless overridden)")
    comp.add_argument("--max-order", type=int, default=None,
                      help=f"largest candidate VAR order (default {HARNESS_MAX_ORDER})")
    comp.add_argument("--config", default=None, help="key = value configuration file")
    comp.add_argument("--out-dir", default=None, help="output directory (default .)")
    return parser


class _BandsAction(argparse.Action):
    """Append each ``--band``'s bands as it is read; a malformed one raises
    :class:`DataFormatError` (one ``error:`` line), not an argparse usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        bands = getattr(namespace, self.dest) or ()
        setattr(namespace, self.dest, bands + sio.parse_bands(values))


def _common_analysis_flags(sub):
    sub.add_argument("--config", default=None, help="key = value configuration file")
    sub.add_argument("--out-dir", default=None, help="output directory (default .)")
    sub.add_argument("--window", type=int, default=None,
                     help="odd risk-window width in Fourier bins "
                          f"(default {sio.RunConfig.window})")
    sub.add_argument("--order", type=int, default=None,
                     help="fixed VAR order (default: selected by BIC)")
    sub.add_argument("--max-order", type=int, default=None,
                     help="largest candidate VAR order for BIC "
                          f"(default {sio.RunConfig.max_order})")
    sub.add_argument("--fixed-span", type=int, default=None,
                     help="fixed smoothing span (default: per-trial risk selection)")
    sub.add_argument("--span-min", type=int, default=None,
                     help=f"smallest candidate smoothing span (default {sio.RunConfig.span_min})")
    sub.add_argument("--span-max", type=int, default=None,
                     help="largest candidate smoothing span (default: automatic)")
    sub.add_argument("--detrend", choices=("none", "linear", "quadratic"), default="linear",
                     help="per-trial polynomial detrending (default linear)")
    sub.add_argument("--no-standardize", action="store_true",
                     help="skip per-trial, per-channel standardization")
    csv_rate = inspect.signature(sio.read_trials_csv).parameters["sampling_rate"].default
    sub.add_argument("--sampling-rate", type=float, default=None,
                     help=f"sampling rate in Hz for CSV inputs, which carry none "
                          f"(default {csv_rate:g})")


#: The config-file keys each analysis command reads; any other key is an error.
_CONFIG_KEYS = {
    "estimate": {"method", "window", "span_min", "span_max", "max_order", "taper_max", "out_dir"},
    "connectivity": {"window", "span_min", "span_max", "max_order", "bands", "fdr_q", "out_dir"},
    "compare": {"window", "span_min", "span_max", "max_order", "taper_max", "seed", "out_dir"},
}


#: The estimator flags each estimator reads, by argparse destination.
_VAR_FLAGS, _SPAN_FLAGS = {"order", "max_order"}, {"fixed_span", "span_min", "span_max"}
_READS = {"raw_mean": set(), "smoothed": _SPAN_FLAGS, "var": _VAR_FLAGS, "multitaper": {"tapers"},
          "shrinkage": _VAR_FLAGS | _SPAN_FLAGS | {"window", "windows", "weight"},
          "truth": set()}
#: Flags that another flag leaves unread: ``--order`` fixes the VAR order and
#: ``--fixed-span`` the smoothing span.
_OVERRIDDEN_BY = {"--max-order": "--order", "--span-min": "--fixed-span",
                  "--span-max": "--fixed-span"}


def _load_config(args, defaults: sio.RunConfig) -> sio.RunConfig:
    """The command's ``defaults``, then the ``--config`` file's entries, then explicit flags."""
    overrides = sio.read_config(args.config) if args.config else {}
    unused = next((key for key in overrides if key not in _CONFIG_KEYS[args.command]), None)
    if unused is not None:
        raise DomainError(f"{args.command} does not use config key {unused!r}")
    overrides.update({key: getattr(args, key) for key in _CONFIG_KEYS[args.command]
                      if getattr(args, key, None) is not None})
    return replace(defaults, **overrides)


def _check_rate_flag(args, paths):
    """Reject ``--sampling-rate`` unless every input is a CSV file, which carries no rate."""
    if args.sampling_rate is not None and not all(str(path).endswith(".csv") for path in paths):
        raise DomainError("--sampling-rate is read only for CSV inputs; other files carry a rate")


def _load_series(path, args):
    if str(path).endswith(".csv"):
        rate = {} if args.sampling_rate is None else {"sampling_rate": args.sampling_rate}
        series = sio.read_trials_csv(path, **rate)
    else:
        series = sio.read_trials(path)
    if args.detrend != "none":
        series = detrend(series, order=1 if args.detrend == "linear" else 2)
    if not args.no_standardize:
        series = standardize(series)
    return series


def _pipeline_options(config: sio.RunConfig, args, methods) -> PipelineOptions:
    """The one place a command's settings become :class:`PipelineOptions` for ``methods``;
    an estimator flag that none of them reads, or that another flag leaves unread, is an error."""
    if not methods:
        raise DomainError("need at least one estimator")
    given = {"--" + dest.replace("_", "-"): dest for dest in set().union(*_READS.values())
             if getattr(args, dest, None) is not None}
    # an unknown name reads every flag here, so the harness names it as unknown
    read = set().union(*(_READS.get(method, given.values()) for method in methods))
    for flag, dest in sorted(given.items()):
        if dest not in read:
            raise DomainError(f"{flag} is not read by {', '.join(methods)}")
        if _OVERRIDDEN_BY.get(flag) in given:
            raise DomainError(f"{flag} is not read with {_OVERRIDDEN_BY[flag]}")
    return PipelineOptions(
        window=config.window,
        var_order=getattr(args, "order", None),
        max_order=config.max_order,
        span_grid=config.span_grid(),
        fixed_span=getattr(args, "fixed_span", None),
        fixed_weight=getattr(args, "weight", None),
        n_tapers=getattr(args, "tapers", None),
        taper_grid=config.taper_grid())


def _out_path(config: sio.RunConfig, name: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def cmd_simulate(args) -> int:
    config = SimulationConfig(n_trials=args.trials, n_samples=args.samples,
                              ma_weight=args.ma_weight, ar_weight=args.ar_weight,
                              burn_in=args.burn_in, seed=args.seed,
                              sampling_rate=args.sampling_rate)
    series = simulate_mixture(config)
    sio.write_trials(args.out, series)
    print(f"wrote {args.out}: n_trials={series.n_trials} n_channels={series.n_channels} "
          f"n_samples={series.n_samples} seed={args.seed}")
    return 0


def _frequency_cells(grid, times):
    """The grid's frequencies in Hz as CSV cells, each formatted once and repeated ``times``
    times in a row."""
    return [cell for cell in sio.format_column(grid.hertz) for _ in range(times)]


def _spectra_columns(estimate, labels):
    """Frequency, channel and auto-spectrum columns, one row per frequency and channel."""
    n_freq, labels = estimate.grid.n_frequencies, list(labels)
    return (_frequency_cells(estimate.grid, len(labels)), labels * n_freq,
            np.diagonal(estimate.matrices, axis1=1, axis2=2).real.ravel())


def _cross_columns(estimate, labels):
    """Frequency, channel pair and cross-spectrum columns, one row per frequency and pair
    ``p < q``."""
    n_freq = estimate.grid.n_frequencies
    rows, cols = np.triu_indices(len(labels), 1)
    cells = estimate.matrices[:, rows, cols].ravel()
    return (_frequency_cells(estimate.grid, rows.size), [labels[p] for p in rows] * n_freq,
            [labels[q] for q in cols] * n_freq, cells.real, cells.imag)


def _write_estimate(config: sio.RunConfig, labels, estimate, record):
    """Write an estimate's CSVs, its weight curves if it has them, and its fit report."""
    sio.write_csv(_out_path(config, "spectra.csv"),
                  ("frequency_hz", "channel", "value"), _spectra_columns(estimate, labels))
    sio.write_csv(_out_path(config, "cross_spectra.csv"),
                  ("frequency_hz", "channel_a", "channel_b", "real", "imag"),
                  _cross_columns(estimate, labels))
    choices = dict(record)
    diag = choices.pop("weights", None)
    if diag is not None:
        sio.write_csv(_out_path(config, "weights.csv"),
                      ("frequency_hz", "alpha2", "beta2", "delta2", "w_raw", "w"),
                      (estimate.grid.hertz, diag.param_risk, diag.nonparam_risk,
                       diag.separation, diag.weight_raw, diag.weight))
    if choices:
        lines = [f"{key} = " + (",".join(str(v) for v in value)
                                if isinstance(value, tuple) else str(value))
                 for key, value in choices.items()]
        sio.write_text(_out_path(config, "fit_report.txt"), "\n".join(lines) + "\n")


def cmd_estimate(args) -> int:
    config = _load_config(args, sio.RunConfig())
    if config.method not in ESTIMATORS:
        raise DomainError(f"unknown method {config.method!r}; expected one of "
                          f"{', '.join(ESTIMATORS)}")
    options = _pipeline_options(config, args, (config.method,))
    _check_rate_flag(args, (args.input,))
    series = _load_series(args.input, args)
    estimate, record = ESTIMATORS[config.method](series, options)
    # the values and cached DFTs need not stay alive while the CSVs are formatted
    labels = series.channel_labels
    del series
    _write_estimate(config, labels, estimate, record)
    print(f"estimated {config.method} spectra for {estimate.n_channels} channels "
          f"at {estimate.grid.n_frequencies} frequencies -> {config.out_dir}")
    return 0


def _matrix_columns(matrix, labels):
    """Row label, column label and value columns of a square matrix, row by row."""
    return ([a for a in labels for _ in labels], list(labels) * len(labels),
            np.asarray(matrix).ravel())


def cmd_connectivity(args) -> int:
    config = _load_config(args, sio.RunConfig())
    if len(args.inputs) not in (1, 2):
        raise DomainError(f"expected one or two input files, got {len(args.inputs)}")
    options = _pipeline_options(config, args, ("shrinkage",))
    check_fdr_level(config.fdr_q)
    if len(args.inputs) == 1 and args.fdr_q is not None:
        raise DomainError("--q is not read with one input file")
    for i, (name, lo, hi) in enumerate(config.bands):
        check_band((lo, hi))
        if name in [band[0] for band in config.bands[:i]]:
            raise DomainError(f"repeated band {name!r}; each may appear once")
    _check_rate_flag(args, args.inputs)
    conditions = [_load_series(path, args) for path in args.inputs]
    labels = conditions[0].channel_labels
    if len(conditions) == 2:
        if conditions[1].n_channels != conditions[0].n_channels:
            raise DomainError(
                f"conditions have different channel counts: {conditions[0].n_channels} "
                f"vs {conditions[1].n_channels}")
        for i, (left, right) in enumerate(zip(labels, conditions[1].channel_labels)):
            if left != right:
                raise DomainError(f"conditions label channel {i} differently: {left!r} "
                                  f"vs {right!r}")
        for path, series in zip(args.inputs, conditions):
            if series.n_trials < 3:  # each jackknife replicate's pipeline needs two trials
                raise InsufficientDataError(
                    f"{path}: the jackknife needs at least three trials per condition, "
                    f"got {series.n_trials}")
    for series in conditions:  # an empty band fails here, before any pipeline runs
        for _, lo, hi in config.bands:
            band_mask(FrequencyGrid(series.n_samples, series.sampling_rate), (lo, hi))
    suffixes = ("left", "right")

    # on a copy, so that the series the jackknife reads does not keep the full-series
    # periodograms alive, which no replicate reads; each band's frequencies alone are
    # inverted, and no estimate outlives its bands
    estimates = (shrinkage_pipeline(replace(series), options).estimate for series in conditions)
    per_condition = [[partial_coherence(estimate, band=(lo, hi)) for _, lo, hi in config.bands]
                     for estimate in estimates]
    for (name, _, _), per_band in zip(config.bands, zip(*per_condition)):
        for banded, suffix in zip(per_band, suffixes):
            stem = f"pcoh_{name}.csv" if len(conditions) == 1 else f"pcoh_{name}_{suffix}.csv"
            sio.write_csv(_out_path(config, stem),
                          ("channel_a", "channel_b", "value"),
                          _matrix_columns(banded.values, labels))

    if len(conditions) == 2:
        all_tests = []
        for name, lo, hi in config.bands:
            stats = [jackknife_band_stats(series, (lo, hi), options)
                     for series in conditions]
            all_tests.extend((name, test) for test in pairwise_tests(*stats))
        corrected = apply_fdr([test for _, test in all_tests], q=config.fdr_q)
        fields = ("z_left", "z_right", "se_left", "se_right", "t", "p", "rejected")
        sio.write_csv(_out_path(config, "tests.csv"), ("pair", "band", *fields),
                      ([f"{labels[test.channel_a]}-{labels[test.channel_b]}"
                        for test in corrected],
                       [band_name for band_name, _ in all_tests],
                       *([getattr(test, field) for test in corrected] for field in fields)))
        n_rejected = sum(test.rejected for test in corrected)
        print(f"{len(corrected)} tests across {len(config.bands)} bands, "
              f"{n_rejected} rejected at q={config.fdr_q} -> {config.out_dir}")
    else:
        print(f"band partial coherence for {len(config.bands)} bands -> {config.out_dir}")
    return 0


def _parse_windows(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise DomainError(f"--windows takes comma-separated integers, got {text!r}") from None


def cmd_compare(args) -> int:
    config = _load_config(args, sio.RunConfig(max_order=HARNESS_MAX_ORDER))
    estimators = tuple(s.strip() for s in args.estimators.split(",") if s.strip())
    options = _pipeline_options(config, args, estimators)
    windows = None if args.windows is None else _parse_windows(args.windows)
    sim_config = SimulationConfig(n_trials=args.trials, n_samples=args.samples,
                                  seed=config.seed)
    result = monte_carlo_compare(config=sim_config, estimators=estimators, reps=args.reps,
                                 windows=windows, options=options)

    hertz = result.grid.hertz
    names = result.estimator_names
    for filename, curves in (("mse_spectral.csv", result.spectral_mse),
                             ("mse_pcoh.csv", result.pcoh_mse)):
        sio.write_csv(_out_path(config, filename), ("frequency_hz", *names),
                      (hertz, *(curves[name] for name in names)))
    weight_names = tuple(result.mean_weight)
    if weight_names:
        sio.write_csv(_out_path(config, "mean_weight.csv"), ("frequency_hz", *weight_names),
                      (hertz, *(result.mean_weight[name] for name in weight_names)))
    print(f"{result.n_reps} replicates, estimators: {', '.join(names)} -> {config.out_dir}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "connectivity": cmd_connectivity,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SpecshrinkError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
