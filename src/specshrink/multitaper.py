"""Sine-taper multitaper estimation with unbiased-risk taper-count selection.

Used as a competitor estimator in the Monte Carlo comparison harness.
Sine tapers are exactly orthonormal in closed form, so no eigen-solver is
needed.  The number of tapers is selected per trial by the same
leave-one-out unbiased-risk rule used for smoothing spans; the harness
uses the lower median of the per-trial selections.

Both the selection and the estimate do their per-trial work on every
available core (:func:`~specshrink.core.map_trials`) and visit the trials in
canonical order (:attr:`MultiTrialSeries.trial_order`), so their results
depend neither on the number of cores nor on the order of the trials.  The
estimate's trial sum, one ``(n_freq, P, P)`` array of all-taper products,
is formed from the same tapered DFTs the selection scores, so the selection
also sums them at the top of its grid and, when the selected count is the grid
top, keeps that sum for the estimate (:attr:`TaperSelection.trial_sum`): each
trial's tapered DFTs are then computed once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, SpectralEstimate, check_count, check_grid, map_trials
from .errors import DimensionError, DomainError, InsufficientDataError
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

    ``phase`` is ``grid.phase[:, None, None]`` (:attr:`FrequencyGrid.phase`), which
    moves numpy's t = 0-based transform to the t = 1-based convention.  The
    tapered series are laid out time first in the float buffer ``work`` and
    transformed along that axis, so the result comes out C-contiguous for
    the per-frequency products without a transposed copy.
    """
    tapered = _view(work, (values.shape[1], len(tapers), values.shape[0]))
    np.multiply(tapers.T[:, :, None], values.T[:, None, :], out=tapered)
    np.fft.rfft(tapered, axis=0, out=out)
    out *= phase
    return out


def multitaper_estimator(series: MultiTrialSeries, n_tapers: int, *,
                         trial_sum: np.ndarray | None = None) -> SpectralEstimate:
    """Trial-averaged multitaper spectral estimate with ``n_tapers`` sine tapers.

    Per trial the estimate averages ``(2*pi)**-1 d_a d_a^*`` over tapers
    ``a = 1..n_tapers`` (unit-norm tapers absorb the usual 1/T); trials are
    then averaged.  Hermitian PSD by construction.  The trials' sums are
    added in canonical trial order, so the result is the same for any number
    of cores and any order of the trials.

    ``trial_sum``, if given, is that sum before the averaging, ``sum_n sum_a
    d_a d_a^*`` of shape ``(n_freq, P, P)``, as :attr:`TaperSelection.trial_sum`
    holds it; the estimate then reads no trial.  Formed here when None, bit for
    bit the same.
    """
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    tapers = sine_tapers(series.n_samples, n_tapers)  # checks n_tapers, sum given or not
    sum_shape = (grid.n_frequencies, series.n_channels, series.n_channels)
    if trial_sum is None:
        trial_sum = _taper_product_sum(series, tapers, grid.phase[:, None, None])
    elif trial_sum.shape != sum_shape:
        raise DimensionError(f"a trial sum of {series.n_channels}-channel taper products "
                             f"must be {sum_shape}, got {trial_sum.shape}")
    return SpectralEstimate(grid, trial_sum / (2.0 * np.pi * n_tapers * series.n_trials),
                            tag="multitaper")


def _taper_product_sum(series: MultiTrialSeries, tapers: np.ndarray,
                       phase: np.ndarray) -> np.ndarray:
    """``sum_n D_n^T conj(D_n)``, shape ``(n_freq, P, P)``, over the trials in canonical
    order, with ``D_n`` trial ``n``'s ``(n_freq, m, P)`` DFTs under ``tapers``."""
    n_freq = len(phase)
    acc = np.zeros((n_freq, series.n_channels, series.n_channels), dtype=complex)
    dft_shape = (n_freq, len(tapers), series.n_channels)
    order = series.trial_order

    def scratch():  # the tapered series, then the DFTs' conjugates, share ``work``
        work = np.empty(max(series.n_samples, 2 * n_freq) * math.prod(dft_shape[1:]))
        return work, np.empty(dft_shape, dtype=complex), np.empty_like(acc)

    def trial_sum(k, space):
        work, d, part = space
        _tapered_dfts(series.values[order[k]], tapers, phase, work, d)
        conj = np.conj(d, out=_view(work, dft_shape, complex))
        return np.matmul(d.transpose(0, 2, 1), conj, out=part)  # (n_freq, P, m) @ (n_freq, m, P)

    for part in map_trials(trial_sum, series.n_trials, scratch):
        acc += part
    return acc


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
    """Per-trial selected taper counts, their lower median, the risk curves, and the
    trials' summed taper products for the median.

    ``trial_sum`` is what :func:`multitaper_estimator` sums for ``n_tapers = median``, bit
    for bit, and takes as its ``trial_sum``; None when the median is below the grid top.
    """

    per_trial: tuple[int, ...]
    median: int
    risks: np.ndarray  # (n_trials, len(grid))
    trial_sum: np.ndarray | None  # (n_freq, P, P)


def select_taper_count(series: MultiTrialSeries, taper_grid=None) -> TaperSelection:
    """Unbiased-risk taper-count selection, per trial.

    For each trial, picks the count in ``taper_grid`` minimizing the
    grid-summed squared Hilbert-Schmidt distance between the leave-one-out
    mean periodogram (pilot) and that trial's multitaper estimate; ties go
    to the smaller count.  ``median`` is the lower median of the per-trial
    selections and is what the comparison harness uses.  The pilot comes from the
    series' own periodograms (:attr:`MultiTrialSeries.periodograms`).

    The trials are transformed in canonical order, and each one's all-taper
    products ``D^T conj(D)`` at the top count are added into ``trial_sum`` as
    :func:`multitaper_estimator` adds them, kept if the median is the top count;
    the risk rows stay in input order.
    """
    if series.n_trials < 2:
        raise InsufficientDataError("taper-count selection needs at least two trials")
    grid_counts = validate_taper_grid(
        taper_grid if taper_grid is not None else default_taper_grid(series.n_samples),
        series.n_samples)
    pgrams = series.periodograms
    n_freq = pgrams.grid.n_frequencies
    phase = pgrams.grid.phase[:, None, None]
    n_trials, p, n_samples = series.values.shape
    tapers = sine_tapers(n_samples, grid_counts[-1])
    m = len(tapers)
    counts = np.asarray(grid_counts)
    order = series.trial_order

    # The m-taper estimate is a prefix mean of rank-1 terms d_a d_a^*, so the
    # grid-summed squared distance to the pilot expands into prefix sums of
    # pairwise taper inner products and pilot quadratic forms; this avoids
    # materialising one (n_freq, P, P) matrix per taper and candidate count.
    # The pilot (total - e e^* / T) / (N - 1), with e trial n's periodogram DFT,
    # is not built either: its quadratic forms are
    # (d_a^* total d_a - |e^* d_a|^2 / T) / (N - 1), and its squared norm is
    # (||total||^2 - 2 e^* total e / T + ||e||^4 / T^2) / (N - 1)^2.
    total = pgrams.total
    # A BLAS dot of this size wakes OpenBLAS's threads, whose spinning then
    # slows the workers (by about a third at 40 x 12 x 256); a sum does not.
    total_sq = float(np.sum(np.square(total.view(float))))

    def scratch():
        # One trial's steps use ``work`` in turn: the tapered series, the products
        # with ``total``, a Gram block with its conjugate DFTs.  The all-taper
        # products fill the end of ``work``, which the Gram blocks leave alone.
        work = np.empty(max(n_samples * m * p, 2 * n_freq * m * p,
                            2 * GRAM_BLOCK * m * (p + m) + 2 * total.size))
        return work, np.empty((n_freq, m, p), dtype=complex), np.empty((n_freq, m, 1), dtype=complex)

    def trial_risks(k, space):
        work, d, proj = space
        n = order[k]
        e = np.ascontiguousarray(pgrams.dfts[n].T)[:, :, None]  # (n_freq, P, 1)
        _tapered_dfts(series.values[n], tapers, phase, work, d)
        # Re(conj(x) * y) summed is the float views' product summed, with no conjugate copy.
        total_d = np.matmul(d, total.transpose(0, 2, 1), out=_view(work, d.shape, complex))
        total_d = total_d.view(float)
        total_d *= d.view(float)
        total_quad = total_d.sum(axis=(0, 2))
        conj_block = _view(work, (GRAM_BLOCK, m, p), complex)
        block = _view(work, (GRAM_BLOCK, m, m), complex, start=2 * conj_block.size)
        products = _view(work, total.shape, complex, start=work.size - 2 * total.size)
        inner_sq = np.zeros(2 * m * m)  # sum over frequencies of |<d_a, d_b>|^2, re and im
        for start in range(0, n_freq, GRAM_BLOCK):
            part = d[start:start + GRAM_BLOCK]
            conj = np.conj(part, out=conj_block[:len(part)])
            inner = np.matmul(conj, part.transpose(0, 2, 1), out=block[:len(part)])
            flat = inner.view(float).reshape(len(part), -1)
            flat *= flat  # not einsum, which holds the interpreter lock
            inner_sq += flat.sum(axis=0)
            np.matmul(part.transpose(0, 2, 1), conj, out=products[start:start + GRAM_BLOCK])
            # conj(e^* d_a), which has the modulus of e^* d_a
            np.matmul(conj, e[start:start + GRAM_BLOCK], out=proj[start:start + GRAM_BLOCK])
        gram = np.cumsum(np.cumsum(inner_sq.reshape(m, m, 2).sum(axis=-1), axis=0), axis=1)
        proj_sq = proj.view(float)
        proj_sq *= proj_sq
        quad = np.cumsum((total_quad - proj_sq.sum(axis=(0, 2)) / n_samples)
                         / (n_trials - 1))
        e_sq = np.square(e.view(float)).sum(axis=(1, 2))  # ||e||^2 at each frequency
        pilot_sq = ((total_sq - 2.0 * np.vdot(e, np.matmul(total, e)).real / n_samples
                     + e_sq @ e_sq / n_samples ** 2) / (n_trials - 1) ** 2)
        dist = (pilot_sq
                - quad[counts - 1] / (np.pi * counts)
                + np.diag(gram)[counts - 1] / (2.0 * np.pi * counts) ** 2)
        return (2.0 * np.pi / n_samples) * np.maximum(dist, 0.0) / p, products

    risks = np.empty((n_trials, len(grid_counts)))
    trial_sum = np.zeros_like(total)
    for n, (row, products) in zip(order, map_trials(trial_risks, n_trials, scratch)):
        risks[n] = row
        trial_sum += products
    chosen = [grid_counts[i] for i in np.argmin(risks, axis=1)]
    median = sorted(chosen)[(len(chosen) - 1) // 2]
    return TaperSelection(per_trial=tuple(chosen), median=median, risks=risks,
                          trial_sum=trial_sum if median == grid_counts[-1] else None)
