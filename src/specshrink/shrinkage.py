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

Each curve is computed on the half grid as
``||a(w)||^2 + mean_o ||b(w+o)||^2 - 2 Re <a(w), mean_o b(w+o)>``, from window
means of ``b`` read from the half grid by reflection (conjugated where
mirrored).  Its error is at most about ``2 P^2 + window`` roundings of its
first two terms, so a curve within 1e-13 of those terms is rounding noise
and is set to 0.  The separation averages the two one-sided curves, so it
is exactly symmetric.

The raw weight is ``(nonparam_risk - 0.5*(param_risk + nonparam_risk -
separation)) / separation``, truncated to [0, 1]; a zero separation
(identical estimators over the window) yields weight 0, favouring the
nonparametric estimator, though the combination is then invariant anyway.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import FrequencyGrid, SpectralEstimate, check_count, check_grid, check_weight
from .errors import (DimensionError, DomainError, InsufficientDataError,
                     SpecshrinkError, PipelineError)
from .multitaper import multitaper_estimator
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


def _re_inner(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``Re tr(A B^*)`` of each pair of matrices along the first axis."""
    return np.einsum("ij,ij->i", first.reshape(len(first), -1).view(float),
                     second.reshape(len(second), -1).view(float))


def _window_means(estimate: SpectralEstimate, window: int):
    """Window means of an estimate's matrices and of their ``tr(A A^*)``, ``(n_freq, P, P)``
    and ``(n_freq,)``, over rows read from the half grid by reflection (module docstring)."""
    n_samples, n_freq = estimate.grid.n_samples, estimate.grid.n_frequencies
    rows = np.arange(-(window // 2), n_freq + window // 2) % n_samples
    mirrored = rows > n_samples // 2
    source = np.where(mirrored, n_samples - rows, rows)
    extended = estimate.matrices[source]
    np.conjugate(extended, out=extended, where=mirrored[:, None, None])
    sq_norms = _re_inner(estimate.matrices, estimate.matrices)[source]
    matrix_sum, sq_norm_sum = extended[:n_freq].copy(), sq_norms[:n_freq].copy()
    for start in range(1, window):
        matrix_sum += extended[start:start + n_freq]
        sq_norm_sum += sq_norms[start:start + n_freq]
    return matrix_sum / window, sq_norm_sum / window


def _risk_curve(point: SpectralEstimate, matrix_mean, sq_norm_mean) -> np.ndarray:
    """``mean_o ||point(w) - other(w + o)||^2`` (normalized) from ``other``'s
    :func:`_window_means`, by the expansion of the module docstring, zeroed within its
    rounding bound."""
    magnitude = _re_inner(point.matrices, point.matrices) + sq_norm_mean
    expanded = magnitude - 2.0 * _re_inner(point.matrices, matrix_mean)
    expanded[expanded <= 1e-13 * magnitude] = 0.0
    return expanded / point.n_channels


def estimator_separation(first: SpectralEstimate, second: SpectralEstimate,
                         window: int) -> np.ndarray:
    """Symmetrized windowed mean squared distance between two estimators.

    Averages the two one-sided windowed distances (each estimator measured
    against the other's conjugate-extended window); floating-point addition
    commutes, so the result is exactly symmetric in its arguments.  Exactly
    zero wherever the estimators agree over the whole window.
    """
    _same_grid(first, second)
    _validate_window(window, first.grid.n_samples)
    return 0.5 * (_risk_curve(first, *_window_means(second, window))
                  + _risk_curve(second, *_window_means(first, window)))


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
    """Compute all risk curves and weights for a pair of estimators.

    Each estimator's risk at a frequency ``w`` is the mean over the window
    offsets ``w_k`` of ``||estimate(w) - pilot(w + w_k)||^2`` (normalized
    Hilbert-Schmidt), with the pilot extended to the full circle by conjugate
    symmetry.  For the parametric estimator this acts as a plug-in
    bias-plus-variance proxy; for the nonparametric estimator it is a local
    sample variance.  The separation is :func:`estimator_separation`.
    """
    _same_grid(parametric, pilot)
    _validate_window(window, pilot.grid.n_samples)
    _same_grid(nonparametric, pilot)
    pilot_means = _window_means(pilot, window)  # shared by both risks
    param_risk = _risk_curve(parametric, *pilot_means)
    nonparam_risk = _risk_curve(nonparametric, *pilot_means)
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
    curves are still computed and reported); ``n_tapers=None`` has
    :func:`multitaper_estimator` select its count from ``taper_grid``.
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
        if self.fixed_weight is not None:
            checked["fixed_weight"] = check_weight(self.fixed_weight, "fixed_weight")
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the shrinkage pipeline produced, kept for audit.

    ``estimate`` is the combined spectral estimate; the parametric and
    nonparametric inputs, the pilot, the fitted VAR model, the smoothing
    record, and the weight diagnostics are all retained.
    """

    estimate: SpectralEstimate
    diagnostics: ShrinkageDiagnostics
    model: VarModel
    parametric: SpectralEstimate
    nonparametric: SpectralEstimate
    pilot: SpectralEstimate
    smoothing: SmoothingConfig

    @property
    def order(self) -> int:
        """The order of the fitted VAR model."""
        return self.model.order


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


def _smoothing_step(series: MultiTrialSeries, options: PipelineOptions):
    """The smoothed periodogram and its smoothing record (per-trial spans)."""
    return _stage("smoothing", lambda: smoothed_estimator(
        series, options.span_grid, options.fixed_span))


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
    -> weights -> combined estimate, all from the series' own periodograms.
    Domain errors raised inside a stage are re-raised as
    :class:`PipelineError` naming that stage.
    """
    opts = options if options is not None else PipelineOptions()
    if series.n_trials < 2:
        raise InsufficientDataError(
            f"the shrinkage pipeline needs at least two trials, got {series.n_trials}")
    pgrams = _stage("periodogram", lambda: series.periodograms)
    model, parametric = _var_step(series, opts)
    nonparametric, smoothing = _smoothing_step(series, opts)
    estimate, diagnostics = shrink(parametric, nonparametric, pgrams.mean, opts.window,
                                   opts.fixed_weight)
    return PipelineResult(estimate=estimate, diagnostics=diagnostics, model=model,
                          parametric=parametric, nonparametric=nonparametric,
                          pilot=pgrams.mean, smoothing=smoothing)


def _raw_mean(series, options):
    return series.periodograms.mean, {}


def _smoothed(series, options):
    estimate, smoothing = _smoothing_step(series, options)
    return estimate, {"selected_spans": smoothing.selected_spans}


def _var(series, options):
    model, estimate = _var_step(series, options)
    return estimate, {"var_order": model.order}


def _multitaper(series, options):
    estimate, selection = _stage("multitaper", lambda: multitaper_estimator(
        series, options.n_tapers, taper_grid=options.taper_grid))
    return estimate, {"tapers": options.n_tapers if selection is None else selection.median}


def _shrinkage(series, options):
    result = shrinkage_pipeline(series, options)
    return result.estimate, {"var_order": result.order,
                             "selected_spans": result.smoothing.selected_spans,
                             "window": result.diagnostics.window,
                             "weights": result.diagnostics}


#: Every estimator by its tag: ``ESTIMATORS[name](series, options)`` returns
#: ``(estimate, record)``, ``record`` being the choices made (``var_order``,
#: ``selected_spans``, ``window``, ``tapers``) in report order, plus the shrinkage
#: :class:`ShrinkageDiagnostics` under ``weights``; ``multitaper`` is one stage, its count
#: selection included.  Entries run on one series share its periodograms and trial order,
#: which the series keeps.
ESTIMATORS = {"raw_mean": _raw_mean, "smoothed": _smoothed, "var": _var,
              "multitaper": _multitaper, "shrinkage": _shrinkage}
