"""Per-trial DFTs, their periodogram matrices, and the trial-averaged mean.

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

Storage
-------
Every periodogram matrix is the rank-one product of a DFT vector, so
:class:`PeriodogramSet` keeps the ``(N, P, T//2 + 1)`` DFTs, N*P*(T/2+1)
complex values, instead of the N*(T/2+1)*P**2 values of the matrices, and
a pass that reads one trial's matrices builds them with
:meth:`PeriodogramSet.trial`.  Sums over trials, the mean and the
smoothing's span groups, are one batched product ``D D^* / T`` per
frequency of the summed trials' DFTs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import FrequencyGrid, SpectralEstimate
from .errors import DimensionError
from .timeseries import MultiTrialSeries

#: DFT values per batched product in :func:`periodogram_sum`: its conjugated
#: copy of the DFTs is about 128 kB, or one frequency's DFTs if those are more.
SUM_BLOCK_VALUES = 2 ** 13


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
    return _half_grid_dft(values, grid)


def _half_grid_dft(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """:func:`trial_dft` along the last axis of ``values``, any leading axes, with no
    temporary of the result's size; each row is bit-identical to its own transform."""
    coefs = np.fft.rfft(values, axis=-1)
    coefs *= np.exp(-1j * grid.omegas)
    coefs /= np.sqrt(2.0 * np.pi)
    return coefs


def _outer(d: np.ndarray, n_samples: int, out=None) -> np.ndarray:
    """Periodogram matrices ``d d^* / T`` of one trial's DFT ``d``, ``(n_freq, P, P)``,
    written into ``out`` if it is given."""
    out = np.einsum("pj,qj->jpq", d, np.conj(d), out=out)
    out /= n_samples
    return out


def raw_periodogram(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Periodogram matrices ``d d^* / T`` of one trial, shape ``(n_freq, P, P)``.

    Each matrix is Hermitian positive semidefinite of rank one by
    construction.
    """
    return _outer(trial_dft(values, grid), grid.n_samples)


def periodogram_sum(dfts: np.ndarray, n_samples: int) -> np.ndarray:
    """Sum of the periodogram matrices of the ``(n, P, n_freq)`` trial DFTs ``dfts``,
    shape ``(n_freq, P, P)``.

    At each frequency the sum is one matrix product ``D D^* / T`` of the
    ``(P, n)`` DFTs, taken over blocks of frequencies that hold about
    :data:`SUM_BLOCK_VALUES` DFT values.  The result is replaced by its
    Hermitian part, so it is exactly Hermitian.
    """
    n_trials, n_channels, n_freq = dfts.shape
    total = np.empty((n_freq, n_channels, n_channels), dtype=complex)
    step = max(SUM_BLOCK_VALUES // (n_trials * n_channels), 1)
    for start in range(0, n_freq, step):
        block = dfts[:, :, start:start + step].transpose(2, 1, 0)
        out = total[start:start + step]
        np.matmul(block, np.conj(block).transpose(0, 2, 1), out=out)
        out += np.conj(out.transpose(0, 2, 1))
    total /= 2.0 * n_samples
    return total


@dataclass(frozen=True)
class PeriodogramSet:
    """Every trial's half-grid DFT plus the across-trial mean periodogram.

    The matrices of one trial are the rank-one products of its DFT, so they
    are not stored: :meth:`trial` builds them, and :func:`periodogram_sum`
    sums any group of trials.  The set holds N*P*(T//2+1) complex values
    for the DFTs plus (T//2+1)*P**2 for the mean, P times fewer than the
    N*(T//2+1)*P**2 of every trial's matrices.

    Attributes
    ----------
    grid : FrequencyGrid
    dfts : ndarray
        Shape ``(n_trials, P, n_frequencies)``, each trial scaled as
        :func:`trial_dft` scales it.
    mean : SpectralEstimate
        The average of the trials' periodogram matrices, exactly Hermitian,
        tagged ``"raw_mean"``.
    """

    grid: FrequencyGrid
    dfts: np.ndarray
    mean: SpectralEstimate

    @property
    def n_trials(self) -> int:
        return self.dfts.shape[0]

    @cached_property
    def total(self) -> np.ndarray:
        """The sum of the trials' periodogram matrices, ``n_trials`` times the mean."""
        return self.mean.matrices * self.n_trials

    def trial(self, trial: int, out=None) -> np.ndarray:
        """Periodogram matrices of one trial, ``(n_frequencies, P, P)``, equal bit for bit to
        :func:`raw_periodogram` of that trial's values; written into ``out`` if it is given."""
        if not 0 <= trial < self.n_trials:
            raise DimensionError(f"trial index {trial} out of range [0, {self.n_trials})")
        return _outer(self.dfts[trial], self.grid.n_samples, out)

    def leave_one_out_mean(self, trial: int, out=None) -> np.ndarray:
        """Mean periodogram of all trials except ``trial``; needs >= 2 trials.  Written into
        ``out`` if it is given, with no other array of its size allocated once
        :attr:`total` has been read."""
        n = self.n_trials
        if n < 2:
            raise DimensionError("leave-one-out mean needs at least two trials")
        out = self.trial(trial, out)
        np.subtract(self.total, out, out=out)
        out /= n - 1
        return out


def compute_periodograms(series: MultiTrialSeries) -> PeriodogramSet:
    """The DFT of every trial of ``series``, plus the mean periodogram."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    dfts = _half_grid_dft(series.values, grid)
    mean = periodogram_sum(dfts, grid.n_samples)
    mean /= series.n_trials
    return PeriodogramSet(grid=grid, dfts=dfts, mean=SpectralEstimate(grid, mean, tag="raw_mean"))


def periodograms_for(series: MultiTrialSeries, periodograms: PeriodogramSet | None = None):
    """The periodograms of ``series``: ``periodograms`` if given and matching, else computed."""
    pgrams = periodograms if periodograms is not None else compute_periodograms(series)
    if pgrams.n_trials != series.n_trials or pgrams.grid.n_samples != series.n_samples:
        raise DimensionError("periodograms do not match the series dimensions")
    return pgrams


def mean_periodogram(series: MultiTrialSeries) -> SpectralEstimate:
    """Across-trial mean periodogram of ``series``."""
    return compute_periodograms(series).mean
