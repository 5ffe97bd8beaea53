"""Sine-taper multitaper estimation with unbiased-risk taper-count selection.

Used as a competitor estimator in the Monte Carlo comparison harness.
Sine tapers are exactly orthonormal in closed form, so no eigen-solver is
needed.  The number of tapers is selected per trial by the same
leave-one-out unbiased-risk rule used for smoothing spans; the harness
uses the lower median of the per-trial selections.

Both the selection and the estimate do their per-trial work on every
available core (:func:`~specshrink.core.map_trials`) and reduce it in trial
order, so their results do not depend on the number of cores.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, SpectralEstimate, check_count, check_grid, map_trials
from .errors import DomainError, InsufficientDataError
from .periodogram import PeriodogramSet, periodograms_for
from .timeseries import MultiTrialSeries

#: Largest taper count tried by the default selection grid.  Mirrors the
#: smoothing-span cap: an m-taper sine bank concentrates on roughly the same
#: frequency band as a span-m kernel, so both nonparametric routes search the
#: same range of effective bandwidths.
MAX_AUTO_TAPERS = 63

#: Frequencies per block of one trial's taper inner products in
#: :func:`select_taper_count`: a block of ``(m, m)`` complex matrices takes
#: about 1 MB at ``m = 63``, against 8.2 MB for all 129 frequencies at T = 256.
GRAM_BLOCK = 16

#: ``numpy.fft.rfft`` writes into a given array from numpy 2.0 on.
_RFFT_TAKES_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def sine_tapers(n_samples: int, n_tapers: int) -> np.ndarray:
    """The first ``n_tapers`` sine tapers of length ``n_samples``, shape ``(n_tapers, n_samples)``.

    Taper ``a`` is ``sqrt(2/(T+1)) * sin(pi*a*t/(T+1))`` for ``t = 1..T``;
    the family is orthonormal in closed form.
    """
    if check_count(n_tapers, "n_tapers") >= n_samples:
        raise DomainError(f"need 1 <= n_tapers < n_samples, got {n_tapers} for T={n_samples}")
    t = np.arange(1, n_samples + 1)
    a = np.arange(1, n_tapers + 1)
    return np.sqrt(2.0 / (n_samples + 1)) * np.sin(np.pi * np.outer(a, t) / (n_samples + 1))


def _view(work: np.ndarray, shape, dtype=float, start: int = 0) -> np.ndarray:
    """An array of ``shape`` and ``dtype`` over the float buffer ``work``, from its
    ``start``-th float on."""
    size = math.prod(shape) * np.dtype(dtype).itemsize // work.itemsize
    return work[start:start + size].view(dtype).reshape(shape)


def _tapered_dfts(values: np.ndarray, tapers: np.ndarray, phase: np.ndarray,
                  work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half-grid DFTs of one trial under every taper, written into ``out``, shape
    ``(n_freq, m, P)``, and returned.

    ``phase`` is ``exp(-1j * grid.omegas)[:, None, None]``, which moves
    numpy's t = 0-based transform to the t = 1-based convention.  The
    tapered series are laid out time first in the float buffer ``work`` and
    transformed along that axis, so the result comes out C-contiguous for
    the per-frequency products without a transposed copy.
    """
    tapered = _view(work, (values.shape[1], len(tapers), values.shape[0]))
    np.multiply(tapers.T[:, :, None], values.T[:, None, :], out=tapered)
    if _RFFT_TAKES_OUT:
        np.fft.rfft(tapered, axis=0, out=out)
    else:
        out[...] = np.fft.rfft(tapered, axis=0)
    out *= phase
    return out


def multitaper_estimator(series: MultiTrialSeries, n_tapers: int) -> SpectralEstimate:
    """Trial-averaged multitaper spectral estimate with ``n_tapers`` sine tapers.

    Per trial the estimate averages ``(2*pi)**-1 d_a d_a^*`` over tapers
    ``a = 1..n_tapers`` (unit-norm tapers absorb the usual 1/T); trials are
    then averaged.  Hermitian PSD by construction.  The trials' sums are
    added in trial order, so the result is the same for any number of cores.
    """
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    tapers = sine_tapers(series.n_samples, n_tapers)
    phase = np.exp(-1j * grid.omegas)[:, None, None]
    acc = np.zeros((grid.n_frequencies, series.n_channels, series.n_channels), dtype=complex)
    dft_shape = (grid.n_frequencies, n_tapers, series.n_channels)

    def scratch():  # the tapered series, then the DFTs' conjugates, share ``work``
        work = np.empty(max(series.n_samples, 2 * grid.n_frequencies) * math.prod(dft_shape[1:]))
        return work, np.empty(dft_shape, dtype=complex), np.empty_like(acc)

    def trial_sum(n, space):
        work, d, part = space
        _tapered_dfts(series.values[n], tapers, phase, work, d)
        conj = np.conj(d, out=_view(work, dft_shape, complex))
        return np.matmul(d.transpose(0, 2, 1), conj, out=part)  # (n_freq, P, m) @ (n_freq, m, P)

    for part in map_trials(trial_sum, series.n_trials, scratch):
        acc += part
    acc /= 2.0 * np.pi * n_tapers * series.n_trials
    return SpectralEstimate(grid, acc, tag="multitaper")


def default_taper_grid(n_samples: int) -> tuple[int, ...]:
    """Candidate taper counts ``1 .. min(n_samples // 4, 63)``, capped at ``n_samples - 1``."""
    top = min(max(n_samples // 4, 1), MAX_AUTO_TAPERS, n_samples - 1)
    return tuple(range(1, top + 1))


def validate_taper_grid(taper_grid, n_samples: int) -> tuple[int, ...]:
    """Check a taper-count grid: nonempty counts, strictly increasing, below ``n_samples``."""
    grid = check_grid(taper_grid, "taper counts")
    if grid[-1] >= n_samples:
        raise DomainError(f"taper counts must satisfy 1 <= m < {n_samples}, got {grid}")
    return grid


@dataclass(frozen=True)
class TaperSelection:
    """Per-trial selected taper counts, their lower median, and the risk curves."""

    per_trial: tuple[int, ...]
    median: int
    risks: np.ndarray  # (n_trials, len(grid))


def select_taper_count(series: MultiTrialSeries,
                       taper_grid=None,
                       periodograms: PeriodogramSet | None = None) -> TaperSelection:
    """Unbiased-risk taper-count selection, per trial.

    For each trial, picks the count in ``taper_grid`` minimizing the
    grid-summed squared Hilbert-Schmidt distance between the leave-one-out
    mean periodogram (pilot) and that trial's multitaper estimate; ties go
    to the smaller count.  ``median`` is the lower median of the per-trial
    selections and is what the comparison harness uses.
    """
    if series.n_trials < 2:
        raise InsufficientDataError("taper-count selection needs at least two trials")
    grid_counts = validate_taper_grid(
        taper_grid if taper_grid is not None else default_taper_grid(series.n_samples),
        series.n_samples)
    pgrams = periodograms_for(series, periodograms)
    n_freq = pgrams.grid.n_frequencies
    phase = np.exp(-1j * pgrams.grid.omegas)[:, None, None]
    tapers = sine_tapers(series.n_samples, grid_counts[-1])
    m = len(tapers)
    scale = 2.0 * np.pi / series.n_samples
    counts = np.asarray(grid_counts)

    # The m-taper estimate is a prefix mean of rank-1 terms d_a d_a^*, so the
    # grid-summed squared distance to the pilot expands into prefix sums of
    # pairwise taper inner products and pilot quadratic forms; this avoids
    # materialising one (n_freq, P, P) matrix per taper and candidate count.
    p = series.n_channels
    pgrams.total  # the cached trial sum is built here, not by the first worker to need it

    def scratch():
        # One trial's steps use ``work`` in turn: the tapered series, a Gram
        # block with its conjugate DFTs, the pilot products, the pilot's squares.
        work = np.empty(max(series.n_samples * m * p, 2 * GRAM_BLOCK * m * (p + m),
                            2 * n_freq * m * p, 2 * n_freq * p * p))
        return work, np.empty((n_freq, m, p), dtype=complex), np.empty((n_freq, p, p), dtype=complex)

    def trial_risks(n, space):
        work, d, pilot = space
        pgrams.leave_one_out_mean(n, out=pilot)
        _tapered_dfts(series.values[n], tapers, phase, work, d)
        conj_block = _view(work, (GRAM_BLOCK, m, p), complex)
        block = _view(work, (GRAM_BLOCK, m, m), complex, start=2 * conj_block.size)
        inner_sq = np.zeros(2 * m * m)  # sum over frequencies of |<d_a, d_b>|^2, re and im
        for start in range(0, n_freq, GRAM_BLOCK):
            part = d[start:start + GRAM_BLOCK]
            conj = np.conj(part, out=conj_block[:len(part)])
            inner = np.matmul(conj, part.transpose(0, 2, 1), out=block[:len(part)])
            flat = inner.view(float).reshape(len(part), -1)
            flat *= flat  # not einsum, which holds the interpreter lock
            inner_sq += flat.sum(axis=0)
        gram = np.cumsum(np.cumsum(inner_sq.reshape(m, m, 2).sum(axis=-1), axis=0), axis=1)
        # Re(conj(d) * q) summed is the float views' product summed, with no conjugate copy.
        pilot_d = np.matmul(d, pilot.transpose(0, 2, 1), out=_view(work, d.shape, complex))
        pilot_d = pilot_d.view(float)
        pilot_d *= d.view(float)
        quad = np.cumsum(pilot_d.sum(axis=(0, 2)))
        squares = _view(work, (2, *pilot.shape))
        re_sq, im_sq = np.square(pilot.real, out=squares[0]), np.square(pilot.imag, out=squares[1])
        re_sq += im_sq
        pilot_sq = float(np.sum(re_sq))
        dist = (pilot_sq
                - quad[counts - 1] / (np.pi * counts)
                + np.diag(gram)[counts - 1] / (2.0 * np.pi * counts) ** 2)
        return scale * np.maximum(dist, 0.0) / series.n_channels

    risks = np.stack(list(map_trials(trial_risks, series.n_trials, scratch)))
    chosen = [grid_counts[i] for i in np.argmin(risks, axis=1)]
    median = sorted(chosen)[(len(chosen) - 1) // 2]
    return TaperSelection(per_trial=tuple(chosen), median=median, risks=risks)
