"""Frequency-wise shrinkage combination of parametric and nonparametric spectra.

At each frequency the combined estimator is the convex combination

    combined(w) = weight(w) * parametric(w) + (1 - weight(w)) * nonparametric(w),

where the parametric term is a fitted VAR spectrum and the nonparametric
term a smoothed periodogram.  The weight minimizes an estimated quadratic
risk built from three windowed distance curves, each a mean of squared
Hilbert-Schmidt distances over ``window`` consecutive Fourier frequencies
(wrapped around the conjugate-symmetric full circle):

* the parametric estimator's distance to the mean-periodogram pilot,
* the nonparametric estimator's distance to the same pilot,
* the separation between the two estimators.

The raw weight is ``(nonparam_risk - 0.5*(param_risk + nonparam_risk -
separation)) / separation``, truncated to [0, 1]; a zero separation
(identical estimators over the window) yields weight 0, favouring the
nonparametric estimator, though the combination is then invariant anyway.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import FrequencyGrid, SpectralEstimate, check_count, check_grid
from .errors import (DimensionError, DomainError, InsufficientDataError,
                     SpecshrinkError, PipelineError)
from .multitaper import multitaper_estimator, select_taper_count
from .periodogram import compute_periodograms, periodograms_for
from .smoothing import SmoothingConfig, smoothed_estimator
from .timeseries import MultiTrialSeries
from .var import VarModel, fit_var, select_var_order, var_spectrum

#: Default risk-window width (odd number of Fourier bins).
DEFAULT_WINDOW = 15


def _validate_window(window: int, n_samples: int | None = None):
    """Check a risk window: an odd count, and below ``n_samples`` when given."""
    check_count(window, "risk window", odd=True)
    if n_samples is not None and window >= n_samples:
        raise DomainError(
            f"risk window {window} does not fit a full circle of {n_samples} frequencies")


def _same_grid(a: SpectralEstimate, b: SpectralEstimate):
    if a.grid.n_samples != b.grid.n_samples or a.n_channels != b.n_channels:
        raise DimensionError(
            f"estimates are not comparable: ({a.grid.n_samples} samples, {a.n_channels} channels)"
            f" vs ({b.grid.n_samples} samples, {b.n_channels} channels)")


def _window_indices(window: int, grid: FrequencyGrid) -> np.ndarray:
    """Full-circle indices of each half-grid frequency's window, shape (n_freq, window)."""
    half = (window - 1) // 2
    offsets = np.arange(-half, half + 1)
    return (np.arange(grid.n_frequencies)[:, None] + offsets[None, :]) % grid.n_samples


def _windowed_distance(point: np.ndarray, other_full: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Mean over the window of ``||point(w) - other(w + w_k)||^2`` per frequency.

    One window offset at a time, into ``(n_freq, P, P)`` buffers, so memory
    does not grow with the window.  The squared norms fill an
    ``(n_freq, window)`` array whose row means are bit-identical to
    ``hs_norm_sq(point[:, None] - other_full[idx]).mean(axis=1)``.
    """
    n_freq, window = idx.shape
    diff = np.empty_like(point)
    mag = np.empty(point.shape)
    dist = np.empty((n_freq, window))
    for k in range(window):
        np.take(other_full, idx[:, k], axis=0, out=diff, mode="wrap")
        np.subtract(point, diff, out=diff)
        np.abs(diff, out=mag)
        np.square(mag, out=mag)
        dist[:, k] = mag.sum(axis=(1, 2))
    dist /= point.shape[-1]
    return dist.mean(axis=1)


def risk_vs_pilot(estimate: SpectralEstimate, pilot: SpectralEstimate, window: int) -> np.ndarray:
    """Windowed mean squared distance from an estimator to the pilot.

    At each frequency ``w`` this is the mean over the window offsets ``w_k``
    of ``||estimate(w) - pilot(w + w_k)||^2`` (normalized Hilbert-Schmidt),
    with the pilot extended to the full circle by conjugate symmetry.
    For the parametric estimator this acts as a plug-in bias-plus-variance
    proxy; for the nonparametric estimator it is a local sample variance.

    Returns a nonnegative array of length ``n_frequencies``.
    """
    _same_grid(estimate, pilot)
    _validate_window(window, estimate.grid.n_samples)
    idx = _window_indices(window, estimate.grid)
    return _windowed_distance(estimate.matrices, pilot.full_circle(), idx)


def estimator_separation(first: SpectralEstimate, second: SpectralEstimate,
                         window: int) -> np.ndarray:
    """Symmetrized windowed mean squared distance between two estimators.

    Averages the two one-sided windowed distances (each estimator measured
    against the other's conjugate-extended window), so the result is exactly
    symmetric in its arguments.  Zero wherever the estimators agree over the
    whole window.
    """
    _same_grid(first, second)
    _validate_window(window, first.grid.n_samples)
    idx = _window_indices(window, first.grid)
    one = _windowed_distance(first.matrices, second.full_circle(), idx)
    other = _windowed_distance(second.matrices, first.full_circle(), idx)
    return 0.5 * (one + other)


def shrinkage_weight(param_risk, nonparam_risk, separation):
    """Risk-minimizing weight on the parametric estimator, raw and truncated.

    Parameters
    ----------
    param_risk, nonparam_risk, separation : float or ndarray
        Nonnegative, finite risk curves (broadcast together).

    Returns
    -------
    (raw, weight)
        ``raw = (nonparam_risk - 0.5*(param_risk + nonparam_risk - separation))
        / separation`` and ``weight = clip(raw, 0, 1)``.  Where
        ``separation == 0`` both are defined as 0.  Scalars in give floats
        back.
    """
    arrays = [np.asarray(a, dtype=float) for a in (param_risk, nonparam_risk, separation)]
    for arr, name in zip(arrays, ("param_risk", "nonparam_risk", "separation")):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} contains non-finite values")
        if np.any(arr < 0):
            raise DomainError(f"{name} must be nonnegative")
    param, nonparam, sep = np.broadcast_arrays(*arrays)
    raw = np.zeros(sep.shape)
    np.divide(nonparam - 0.5 * (param + nonparam - sep), sep,
              out=raw, where=sep > 0)
    weight = np.clip(raw, 0.0, 1.0)
    if raw.ndim == 0:
        return float(raw), float(weight)
    return raw, weight


@dataclass(frozen=True)
class ShrinkageDiagnostics:
    """Per-frequency risk terms and weights behind a combined estimate.

    The raw weight curve is kept so truncation can be inspected; ``weight``
    derives the truncated curve from it.
    """

    grid: FrequencyGrid
    window: int
    param_risk: np.ndarray
    nonparam_risk: np.ndarray
    separation: np.ndarray
    weight_raw: np.ndarray

    def __post_init__(self):
        n = self.grid.n_frequencies
        for name in ("param_risk", "nonparam_risk", "separation", "weight_raw"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DimensionError(f"{name} must have shape ({n},), got {arr.shape}")
            object.__setattr__(self, name, arr)
        _validate_window(self.window, self.grid.n_samples)
        for name in ("param_risk", "nonparam_risk", "separation"):
            if np.any(getattr(self, name) < 0):
                raise DomainError(f"{name} must be nonnegative")

    @property
    def weight(self) -> np.ndarray:
        """The weight on the parametric estimate, ``clip(weight_raw, 0, 1)``."""
        return np.clip(self.weight_raw, 0.0, 1.0)


def shrinkage_diagnostics(parametric: SpectralEstimate, nonparametric: SpectralEstimate,
                          pilot: SpectralEstimate, window: int = DEFAULT_WINDOW,
                          ) -> ShrinkageDiagnostics:
    """Compute all risk curves and weights for a pair of estimators."""
    param_risk = risk_vs_pilot(parametric, pilot, window)
    nonparam_risk = risk_vs_pilot(nonparametric, pilot, window)
    separation = estimator_separation(parametric, nonparametric, window)
    raw, _ = shrinkage_weight(param_risk, nonparam_risk, separation)
    return ShrinkageDiagnostics(grid=parametric.grid, window=window,
                                param_risk=param_risk, nonparam_risk=nonparam_risk,
                                separation=separation, weight_raw=raw)


def combine_estimates(parametric: SpectralEstimate, nonparametric: SpectralEstimate,
                      weight) -> SpectralEstimate:
    """Frequency-wise convex combination of two spectral estimates.

    ``weight`` is the per-frequency coefficient on the parametric estimate
    and must lie in [0, 1] exactly.  With weight identically 1 (or 0) the
    result equals the parametric (or nonparametric) input exactly.
    """
    _same_grid(parametric, nonparametric)
    w = np.asarray(weight, dtype=float)
    if w.ndim == 0:
        w = np.full(parametric.grid.n_frequencies, float(w))
    if w.shape != (parametric.grid.n_frequencies,):
        raise DimensionError(
            f"weight must be scalar or shape ({parametric.grid.n_frequencies},), got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0) or np.any(w > 1.0):
        raise DomainError("weights must lie in [0, 1]")
    mats = (w[:, None, None] * parametric.matrices
            + (1.0 - w)[:, None, None] * nonparametric.matrices)
    return SpectralEstimate(parametric.grid, mats, tag="shrinkage")


@dataclass(frozen=True)
class PipelineOptions:
    """Tuning knobs for :func:`shrinkage_pipeline` and the :data:`ESTIMATORS`.

    ``var_order=None`` selects the order by BIC up to ``max_order``;
    ``fixed_span`` bypasses per-trial span selection; ``fixed_weight``
    combines with a constant weight in place of the estimated one (the risk
    curves are still computed and reported); ``n_tapers=None`` selects the
    multitaper count from ``taper_grid``.
    """

    window: int = DEFAULT_WINDOW
    var_order: int | None = None
    max_order: int = 10
    span_grid: tuple[int, ...] | None = None
    fixed_span: int | None = None
    fixed_weight: float | None = None
    n_tapers: int | None = None
    taper_grid: tuple[int, ...] | None = None

    def __post_init__(self):
        checked = {"window": check_count(self.window, "risk window", odd=True),
                   "max_order": check_count(self.max_order, "max_order")}
        for name, odd in (("var_order", False), ("fixed_span", True), ("n_tapers", False)):
            if getattr(self, name) is not None:
                checked[name] = check_count(getattr(self, name), name, odd=odd)
        for name, entries, odd in (("span_grid", "smoothing spans", True),
                                   ("taper_grid", "taper counts", False)):
            if getattr(self, name) is not None:
                checked[name] = check_grid(getattr(self, name), entries, odd=odd)
        if self.fixed_weight is not None and not 0.0 <= self.fixed_weight <= 1.0:
            raise DomainError(f"fixed_weight must lie in [0, 1], got {self.fixed_weight}")
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the shrinkage pipeline produced, kept for audit.

    ``estimate`` is the combined spectral estimate; the parametric and
    nonparametric inputs, the pilot, the fitted VAR model and order, the
    smoothing record, and the weight diagnostics are all retained.
    """

    estimate: SpectralEstimate
    diagnostics: ShrinkageDiagnostics
    model: VarModel
    order: int
    parametric: SpectralEstimate
    nonparametric: SpectralEstimate
    pilot: SpectralEstimate
    smoothing: SmoothingConfig


def _stage(name, func):
    """Run ``func()``; a package error in it becomes a :class:`PipelineError` naming ``name``."""
    try:
        return func()
    except SpecshrinkError as err:
        raise PipelineError(name, str(err)) from err


def _var_step(series: MultiTrialSeries, options: PipelineOptions):
    """The VAR model fitted at the given order or the one BIC selects, and its spectrum."""
    if options.var_order is not None:
        model = _stage("var_fit", lambda: fit_var(series, options.var_order))
    else:
        model = _stage("order_selection",
                       lambda: select_var_order(series, options.max_order)).model
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    return model, _stage("var_spectrum", lambda: var_spectrum(model, grid))


def _smoothing_step(series: MultiTrialSeries, options: PipelineOptions, periodograms):
    """The smoothed periodogram and its smoothing record (per-trial spans)."""
    return _stage("smoothing", lambda: smoothed_estimator(
        series, options.span_grid, options.fixed_span, periodograms=periodograms))


def shrink(parametric: SpectralEstimate, nonparametric: SpectralEstimate,
           pilot: SpectralEstimate, window: int, fixed_weight: float | None = None):
    """Weight two estimates by their windowed risks; returns ``(combined, diagnostics)``.

    A ``fixed_weight`` replaces the estimated weight, raw and truncated alike.
    """
    diagnostics = _stage("weights", lambda: shrinkage_diagnostics(
        parametric, nonparametric, pilot, window))
    if fixed_weight is not None:
        diagnostics = replace(diagnostics, weight_raw=np.full(parametric.grid.n_frequencies,
                                                              fixed_weight))
    estimate = _stage("combine", lambda: combine_estimates(
        parametric, nonparametric, diagnostics.weight))
    return estimate, diagnostics


def shrinkage_pipeline(series: MultiTrialSeries,
                       options: PipelineOptions | None = None) -> PipelineResult:
    """Run the whole estimation chain on multi-trial data.

    Stages: periodograms -> VAR order selection and fit -> VAR spectrum;
    per-trial span selection -> smoothed periodogram; windowed risk curves
    -> weights -> combined estimate.  Domain errors raised inside a stage
    are re-raised as :class:`PipelineError` naming that stage.
    """
    opts = options if options is not None else PipelineOptions()
    if series.n_trials < 2:
        raise InsufficientDataError(
            f"the shrinkage pipeline needs at least two trials, got {series.n_trials}")
    pgrams = _stage("periodogram", lambda: compute_periodograms(series))
    model, parametric = _var_step(series, opts)
    nonparametric, smoothing = _smoothing_step(series, opts, pgrams)
    estimate, diagnostics = shrink(parametric, nonparametric, pgrams.mean, opts.window,
                                   opts.fixed_weight)
    return PipelineResult(estimate=estimate, diagnostics=diagnostics, model=model,
                          order=model.order, parametric=parametric, nonparametric=nonparametric,
                          pilot=pgrams.mean, smoothing=smoothing)


def _raw_mean(series, options, periodograms=None):
    return periodograms_for(series, periodograms).mean, {}


def _smoothed(series, options, periodograms=None):
    estimate, smoothing = _smoothing_step(series, options, periodograms)
    return estimate, {"selected_spans": smoothing.selected_spans}


def _var(series, options, periodograms=None):
    model, estimate = _var_step(series, options)
    return estimate, {"var_order": model.order}


def _multitaper(series, options, periodograms=None):
    n_tapers = options.n_tapers
    if n_tapers is None:
        n_tapers = _stage("taper_selection", lambda: select_taper_count(
            series, options.taper_grid, periodograms=periodograms)).median
    return (_stage("multitaper", lambda: multitaper_estimator(series, n_tapers)),
            {"tapers": n_tapers})


def _shrinkage(series, options, periodograms=None):
    result = shrinkage_pipeline(series, options)
    return result.estimate, {"var_order": result.order,
                             "selected_spans": result.smoothing.selected_spans,
                             "window": result.diagnostics.window,
                             "weights": result.diagnostics}


#: Every estimator by its tag: ``ESTIMATORS[name](series, options, periodograms=None)``
#: returns ``(estimate, record)``, ``record`` being the choices made (``var_order``,
#: ``selected_spans``, ``window``, ``tapers``) in report order, plus the shrinkage
#: :class:`ShrinkageDiagnostics` under ``weights``.
ESTIMATORS = {"raw_mean": _raw_mean, "smoothed": _smoothed, "var": _var,
              "multitaper": _multitaper, "shrinkage": _shrinkage}
