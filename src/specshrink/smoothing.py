"""Hann-kernel smoothing across frequency with unbiased-risk span selection.

The nonparametric estimator smooths each trial's periodogram matrices
across neighbouring Fourier frequencies with normalized cosine-squared
weights.  Each trial's smoothing span is chosen to minimize an unbiased
risk proxy: the grid-summed squared Hilbert-Schmidt distance between the
smoothed trial and a leave-one-out pilot (the mean periodogram of the
other trials).  The final estimate averages the per-trial smoothed
periodograms.

Smoothing operates on the full frequency circle implied by conjugate
symmetry, so windows near 0 and pi wrap onto reflected, conjugated
values instead of being truncated or zero-padded.

Span risks are computed in closed form.  Smoothing is a circular
convolution, so with ``F`` the frequency-axis FFT over the full circle and
``K_s`` the (real) transfer of the symmetric span-``s`` kernel, Parseval's
theorem gives the full-circle sum of squared distances for every span at
once:

    sum_j ||pilot_j - smoothed_j||^2
        = (1/T) sum_k (|F pilot|^2 - 2 K_s Re<F pilot, F own> + K_s^2 |F own|^2)_k,

with each term summed over the matrix entries.  This is the lag-window
duality of Blackman and Tukey: ``F`` of a full-circle periodogram is a
circular sample cross-covariance, and smoothing tapers it by ``K_s``.
Both the pilot and the smoothed trial are conjugate symmetric, so the
full circle counts every half-grid frequency twice except omega = 0 and,
for even T, omega = pi.  The half-grid risk therefore adds those endpoint
terms, each a kernel-weighted sum over at most ``span`` neighbours, to the
full-circle sum and halves it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SpectralEstimate, check_count, check_grid, extend_full_circle, symmetrize
from .errors import DomainError, InsufficientDataError
from .periodogram import PeriodogramSet, periodograms_for
from .timeseries import MultiTrialSeries

#: Largest span ever chosen automatically.
MAX_AUTO_SPAN = 63


@dataclass(frozen=True)
class SmoothingConfig:
    """The record of :func:`smoothed_estimator`: its checked ``span_grid`` and ``fixed_span``
    (``None`` when not given) and ``selected_spans``, the span used for each trial."""

    span_grid: tuple[int, ...] | None
    fixed_span: int | None
    selected_spans: tuple[int, ...]


def validate_span_grid(span_grid) -> tuple[int, ...]:
    """Check a candidate span grid: nonempty, odd counts, strictly increasing."""
    return check_grid(span_grid, "smoothing spans", odd=True)


def default_span_grid(n_samples: int) -> tuple[int, ...]:
    """Odd spans 3, 5, ... up to ``min(n_samples/4 rounded down to odd, 63)``."""
    top = min(n_samples // 4, MAX_AUTO_SPAN)
    if top % 2 == 0:
        top -= 1
    if top < 3:
        raise InsufficientDataError(
            f"record length {n_samples} is too short for automatic span selection; "
            "pass an explicit span_grid or fixed_span")
    return tuple(range(3, top + 1, 2))


def hann_weights(span: int) -> np.ndarray:
    """Normalized cosine-squared weights on offsets ``-(span-1)/2 .. (span-1)/2``.

    Weights are proportional to ``cos(pi*m/(span+1))**2``, strictly positive,
    symmetric, and normalized to sum to 1.  Span 1 degenerates to ``[1.0]``.
    """
    check_count(span, "smoothing span", odd=True)
    half = (span - 1) // 2
    offsets = np.arange(-half, half + 1)
    w = np.cos(np.pi * offsets / (span + 1)) ** 2
    return w / w.sum()


def _kernel_transfer(span: int, n_samples: int) -> np.ndarray:
    """FFT of the Hann kernel placed on the length-``n_samples`` circle."""
    if span >= n_samples:
        raise DomainError(
            f"span {span} does not fit a full circle of {n_samples} frequencies")
    w = hann_weights(span)
    half = (span - 1) // 2
    kernel = np.zeros(n_samples)
    kernel[np.arange(-half, half + 1) % n_samples] = w
    return np.fft.fft(kernel)


def smooth_periodogram(matrices: np.ndarray, span: int, n_samples: int) -> np.ndarray:
    """Smooth half-grid spectral matrices across frequency with a Hann kernel.

    Parameters
    ----------
    matrices : ndarray
        Half-grid matrices, shape ``(floor(n_samples/2) + 1, P, P)``.
    span : int
        Odd kernel width; 1 is the identity map.
    n_samples : int
        Length of the underlying record, fixing the full circle.

    Returns
    -------
    ndarray
        Smoothed matrices on the same half grid, Hermitian at every
        frequency (the result is symmetrized to remove FFT round-off).
    """
    check_count(span, "smoothing span", odd=True)
    full = extend_full_circle(matrices, n_samples)
    if span == 1:
        return np.array(matrices, dtype=complex)
    transfer = _kernel_transfer(span, n_samples)
    smoothed = np.fft.ifft(np.fft.fft(full, axis=0) * transfer[:, None, None], axis=0)
    return symmetrize(smoothed[: n_samples // 2 + 1])


@lru_cache(maxsize=16)
def _span_kernels(grid: tuple[int, ...], n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Real transfers ``(n_spans, T)`` and centred weights ``(n_spans, 2h+1)`` for a grid.

    ``h`` is the half-width of the widest span; narrower kernels are padded
    with zeros.  Span 1 is the identity: transfer 1 and a unit centre
    weight.  The arrays are cached, so they are returned read-only.
    """
    half = (grid[-1] - 1) // 2
    transfers = np.ones((len(grid), n_samples))
    weights = np.zeros((len(grid), 2 * half + 1))
    for i, span in enumerate(grid):
        if span > 1:
            transfers[i] = _kernel_transfer(span, n_samples).real
        h = (span - 1) // 2
        weights[i, half - h:half + h + 1] = hann_weights(span)
    transfers.flags.writeable = False
    weights.flags.writeable = False
    return transfers, weights


def span_risks(periodograms: PeriodogramSet, trial: int, span_grid) -> np.ndarray:
    """Unbiased-risk curve for one trial over the candidate spans.

    The risk of a span is ``(2*pi/T) * sum_j ||pilot(w_j) - smoothed(w_j)||^2``
    over the half grid, where the pilot is the mean periodogram of all other
    trials and the smoothed term is this trial's periodogram smoothed with
    that span.  All spans are scored from one FFT of the trial and of its
    pilot (see the module docstring).
    """
    grid = validate_span_grid(span_grid)
    n_samples = periodograms.grid.n_samples
    transfers, weights = _span_kernels(grid, n_samples)
    pilot = periodograms.leave_one_out_mean(trial)
    own = periodograms.per_trial[trial]
    n_channels = own.shape[-1]
    own_full = extend_full_circle(own, n_samples)
    pilot_full = extend_full_circle(pilot, n_samples)
    f_own = np.fft.fft(own_full, axis=0).reshape(n_samples, -1)
    f_pilot = np.fft.fft(pilot_full, axis=0).reshape(n_samples, -1)
    pilot_sq = np.sum(f_pilot.real ** 2 + f_pilot.imag ** 2)
    cross = np.sum(f_pilot.real * f_own.real + f_pilot.imag * f_own.imag, axis=1)
    own_sq = np.sum(f_own.real ** 2 + f_own.imag ** 2, axis=1)
    # Cancellation can round this sum of squares just below zero.
    full_circle = np.maximum(
        (pilot_sq - 2.0 * (transfers @ cross) + (transfers ** 2) @ own_sq) / n_samples, 0.0)

    # The full circle holds every half-grid frequency twice except omega = 0
    # and, for even T, omega = pi; add those once more and halve.
    half = (weights.shape[1] - 1) // 2
    offsets = np.arange(-half, half + 1)
    endpoints = [0, n_samples // 2] if n_samples % 2 == 0 else [0]
    for j in endpoints:
        window = own_full[(j + offsets) % n_samples].reshape(len(offsets), -1)
        diff = pilot_full[j].reshape(1, -1) - weights @ window
        full_circle += np.sum(diff.real ** 2 + diff.imag ** 2, axis=1)
    return (np.pi / n_samples) * full_circle / n_channels


def select_span(periodograms: PeriodogramSet, trial: int, span_grid) -> int:
    """The risk-minimizing span for one trial; ties go to the smaller span."""
    grid = validate_span_grid(span_grid)
    risks = span_risks(periodograms, trial, grid)
    return int(grid[int(np.argmin(risks))])


def smoothed_estimator(series: MultiTrialSeries, span_grid=None, fixed_span: int | None = None,
                       periodograms: PeriodogramSet | None = None,
                       ) -> tuple[SpectralEstimate, SmoothingConfig]:
    """Trial-averaged smoothed periodogram with per-trial span selection.

    Parameters
    ----------
    series : MultiTrialSeries
        The data; at least two trials unless ``fixed_span`` is set.
    span_grid, fixed_span : optional
        Candidate spans to select from per trial (:func:`default_span_grid`
        when omitted), or one odd span for every trial, bypassing selection.
    periodograms : PeriodogramSet, optional
        Precomputed periodograms of ``series`` (to share work with other
        estimators); computed on the fly when omitted.

    Returns
    -------
    (SpectralEstimate, SmoothingConfig)
        The estimate (tag ``"smoothed"``) and the record of the checked
        settings with ``selected_spans``, the span used for each trial.
    """
    span_grid = None if span_grid is None else validate_span_grid(span_grid)
    fixed_span = None if fixed_span is None else check_count(fixed_span, "fixed_span", odd=True)
    pgrams = periodograms_for(series, periodograms)
    n_samples = pgrams.grid.n_samples
    if fixed_span is not None:
        spans = [fixed_span] * series.n_trials
    else:
        if series.n_trials < 2:
            raise InsufficientDataError(
                "span selection needs at least two trials for its leave-one-out pilot; "
                "set fixed_span to smooth a single trial")
        grid = span_grid if span_grid is not None else default_span_grid(n_samples)
        spans = [select_span(pgrams, n, grid) for n in range(series.n_trials)]
    # Smoothing is linear: smooth each group of trials sharing a span once.
    total = np.zeros(pgrams.per_trial.shape[1:], dtype=complex)
    for span in sorted(set(spans)):
        group = np.zeros_like(total)
        for n in range(series.n_trials):
            if spans[n] == span:
                group += pgrams.per_trial[n]
        total += smooth_periodogram(group, span, n_samples)
    estimate = SpectralEstimate(pgrams.grid, total / series.n_trials, tag="smoothed")
    return estimate, SmoothingConfig(span_grid, fixed_span, tuple(spans))
