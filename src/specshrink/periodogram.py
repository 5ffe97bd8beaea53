"""Raw and trial-averaged periodogram matrices.

Conventions
-----------
The discrete Fourier transform of one channel is

    d(omega) = (2*pi)**-0.5 * sum_{t=1..T} x(t) * exp(-1j * omega * t),

with time starting at t = 1, and the periodogram matrix of one trial is

    I(omega) = d(omega) d(omega)^* / T,

evaluated on the half grid ``omega_j = 2*pi*j/T``, ``j = 0 .. floor(T/2)``.
With this scaling the periodogram of unit-variance white noise has expected
level ``1/(2*pi)`` per channel, and summing a channel's periodogram over the
full circle and multiplying by ``2*pi/T`` recovers its average squared value.
"""

from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, SpectralEstimate
from .errors import DimensionError
from .timeseries import MultiTrialSeries


def trial_dft(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Half-grid DFT of one trial, shape ``(n_channels, n_frequencies)``.

    ``values`` is the ``(n_channels, n_samples)`` block of a single trial.
    The phase factor ``exp(-1j*omega)`` converts numpy's t = 0-based
    transform to the t = 1-based convention above.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.n_samples:
        raise DimensionError(
            f"expected (n_channels, {grid.n_samples}) trial block, got {values.shape}")
    coefs = np.fft.rfft(values, axis=1)
    phase = np.exp(-1j * grid.omegas)
    return coefs * phase / np.sqrt(2.0 * np.pi)


def raw_periodogram(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Periodogram matrices ``d d^* / T`` of one trial, shape ``(n_freq, P, P)``.

    Each matrix is Hermitian positive semidefinite of rank one by
    construction.
    """
    d = trial_dft(values, grid)
    return np.einsum("pj,qj->jpq", d, np.conj(d)) / grid.n_samples


@dataclass(frozen=True)
class PeriodogramSet:
    """Per-trial periodogram matrices plus their across-trial mean.

    Attributes
    ----------
    grid : FrequencyGrid
    per_trial : ndarray
        Shape ``(n_trials, n_frequencies, P, P)``.
    mean : SpectralEstimate
        The entrywise average over trials, tagged ``"raw_mean"``.
    """

    grid: FrequencyGrid
    per_trial: np.ndarray
    mean: SpectralEstimate

    @property
    def n_trials(self) -> int:
        return self.per_trial.shape[0]

    def leave_one_out_mean(self, trial: int) -> np.ndarray:
        """Mean periodogram of all trials except ``trial``; needs >= 2 trials."""
        n = self.n_trials
        if n < 2:
            raise DimensionError("leave-one-out mean needs at least two trials")
        if not 0 <= trial < n:
            raise DimensionError(f"trial index {trial} out of range [0, {n})")
        total = self.mean.matrices * n
        return (total - self.per_trial[trial]) / (n - 1)


def compute_periodograms(series: MultiTrialSeries) -> PeriodogramSet:
    """Periodogram matrices for every trial of ``series``, plus their mean."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    per_trial = np.empty((series.n_trials, grid.n_frequencies, series.n_channels,
                          series.n_channels), dtype=complex)
    for n in range(series.n_trials):
        per_trial[n] = raw_periodogram(series.values[n], grid)
    mean = SpectralEstimate(grid, per_trial.mean(axis=0), tag="raw_mean")
    return PeriodogramSet(grid=grid, per_trial=per_trial, mean=mean)


def periodograms_for(series: MultiTrialSeries, periodograms: PeriodogramSet | None = None):
    """The periodograms of ``series``: ``periodograms`` if given and matching, else computed."""
    pgrams = periodograms if periodograms is not None else compute_periodograms(series)
    if pgrams.n_trials != series.n_trials or pgrams.grid.n_samples != series.n_samples:
        raise DimensionError("periodograms do not match the series dimensions")
    return pgrams


def mean_periodogram(series: MultiTrialSeries) -> SpectralEstimate:
    """Across-trial mean periodogram of ``series``."""
    return compute_periodograms(series).mean
