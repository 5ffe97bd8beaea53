"""Per-trial DFTs, the periodogram matrices they define, and the trial-averaged mean.

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
complex values, instead of the N*(T/2+1)*P**2 values of the matrices.
Sums over trials, the mean and the smoothing's span groups, are one batched
product ``D D^* / T`` per frequency of the summed trials' DFTs, taken in
canonical trial order (:attr:`MultiTrialSeries.trial_order`).  No pass
builds one trial's matrices: a trial's leave-one-out mean is
``(total - d d^* / T) / (N - 1)``, and the span and taper risks expand its
inner products into terms of the trial sum ``total`` and of ``d``.
A series computes its set once, at first use of ``MultiTrialSeries.periodograms``,
and every estimator run on the series reads it from there.  A replicate made by
``parent.leave_one_out()`` transforms no trial: it reads its rows of ``parent``'s DFTs,
formed once for all the replicates of that loop (:func:`shared_dfts`).
"""

from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, SpectralEstimate
from .timeseries import MultiTrialSeries

#: DFT values per batched product in :func:`periodogram_sum`: its conjugated
#: copy of the DFTs is about 128 kB, or one frequency's DFTs if those are more.
SUM_BLOCK_VALUES = 2 ** 13


def _half_grid_dft(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Half-grid DFTs, in the convention above, along the last axis of ``values``, any
    leading axes, with no temporary of the result's size; each row is bit-identical to its
    own transform.  The phase factor :attr:`FrequencyGrid.phase` converts numpy's
    t = 0-based transform to the t = 1-based convention; a real series' Nyquist DFT is
    real."""
    coefs = np.fft.rfft(values, axis=-1)
    coefs *= grid.phase
    coefs /= np.sqrt(2.0 * np.pi)
    return coefs


def shared_dfts(series: MultiTrialSeries):
    """``(dfts, kept)``: the DFTs of every trial of ``parent`` for a replicate made by
    ``parent.leave_one_out()`` (:meth:`~.MultiTrialSeries.shared`), else None."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    return series.shared("dfts", None, lambda parent: _half_grid_dft(parent.values, grid))


def periodogram_sum(dfts: np.ndarray, trials, n_samples: int) -> np.ndarray:
    """Sum of the periodogram matrices of the trials ``trials`` (indices into the first
    axis of the ``(N, P, n_freq)`` trial DFTs ``dfts``), shape ``(n_freq, P, P)``.

    At each frequency the sum is one matrix product ``D D^* / T`` of the
    ``(P, n)`` DFTs of the ``n`` trials, in the order ``trials`` lists them,
    taken over blocks of frequencies that hold about :data:`SUM_BLOCK_VALUES`
    DFT values.  The result is replaced by its Hermitian part, so it is
    exactly Hermitian.
    """
    n_channels, n_freq = dfts.shape[1:]
    total = np.empty((n_freq, n_channels, n_channels), dtype=complex)
    step = max(SUM_BLOCK_VALUES // (len(trials) * n_channels), 1)
    for start in range(0, n_freq, step):
        block = dfts[trials, :, start:start + step].transpose(2, 1, 0)
        out = total[start:start + step]
        np.matmul(block, np.conj(block).transpose(0, 2, 1), out=out)
        out += np.conj(out.transpose(0, 2, 1))
    total /= 2.0 * n_samples
    return total


@dataclass(frozen=True)
class PeriodogramSet:
    """Every trial's half-grid DFT plus the across-trial mean periodogram.

    The matrices of one trial are the rank-one products of its DFT, so they
    are not stored: :func:`periodogram_sum` sums any group of trials, and
    the leave-one-out risks are expanded in :attr:`total` and the DFTs.  The
    set holds N*P*(T//2+1) complex values for the DFTs plus (T//2+1)*P**2
    for the mean, P times fewer than the N*(T//2+1)*P**2 of every trial's
    matrices.

    Attributes
    ----------
    grid : FrequencyGrid
    dfts : ndarray
        Shape ``(n_trials, P, n_frequencies)``, each trial's DFT in the convention
        of the module docstring.
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

    @property
    def total(self) -> np.ndarray:
        """The sum of the trials' periodogram matrices, ``n_trials`` times the mean, formed
        at each use so that a kept set holds only the DFTs and the mean."""
        return self.mean.matrices * self.n_trials


def compute_periodograms(series: MultiTrialSeries) -> PeriodogramSet:
    """The DFT of every trial of ``series`` (a leave-one-out replicate's rows of
    :func:`shared_dfts`) plus the mean periodogram, summed in its ``trial_order``
    (:func:`periodogram_sum`)."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    shared = shared_dfts(series)
    dfts = _half_grid_dft(series.values, grid) if shared is None else shared[0][shared[1]]
    mean = periodogram_sum(dfts, series.trial_order, grid.n_samples)
    mean /= len(dfts)
    return PeriodogramSet(grid=grid, dfts=dfts, mean=SpectralEstimate(grid, mean, tag="raw_mean"))
