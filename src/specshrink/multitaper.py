"""Sine-taper multitaper estimation with unbiased-risk taper-count selection.

Used as a competitor estimator in the Monte Carlo comparison harness.
Sine tapers are exactly orthonormal in closed form, so no eigen-solver is
needed.  The number of tapers is selected per trial by the same
leave-one-out unbiased-risk rule used for smoothing spans; the estimate
uses the lower median of the per-trial selections.

Both the selection and the estimate do their per-trial work on every
available core (:func:`~specshrink.core.map_trials`) and visit the trials in
canonical order (:attr:`MultiTrialSeries.trial_order`), so their results
depend neither on the number of cores nor on the order of the trials.  The
estimate's trial sum, one ``(n_freq, P, P)`` array of all-taper products,
is formed from the same tapered DFTs the selection scores, so the selection
also sums them at the top of its grid.  When :func:`multitaper_estimator`
selects its own count and the median is the grid top, it reads that sum
from the selection: each trial's tapered DFTs are then computed once.
"""

from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, SpectralEstimate, check_count, check_grid, map_trials
from .errors import DomainError, InsufficientDataError
from .timeseries import MultiTrialSeries

#: Largest taper count tried by the default selection grid.  Mirrors the
#: smoothing-span cap: an m-taper sine bank concentrates on roughly the same
#: frequency band as a span-m kernel, so both nonparametric routes search the
#: same range of effective bandwidths.
MAX_AUTO_TAPERS = 63

#: Frequencies per block of one trial's per-frequency work in :func:`select_taper_count`
#: (taper inner products, products with the periodogram total) and of its all-taper
#: products on both routes.  A block of ``(m, m)`` complex matrices takes about 1 MB at
#: ``m = 63``, against 8.2 MB for all 129 frequencies at T = 256; its buffer also holds
#: the tapered series that :func:`_tapered_dfts` transforms, as many tapers at a time as
#: fit.  Blocks of 8 or 4 frequencies take less memory but slow the scan.
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


def _trial_space(n_freq: int, n_samples: int, n_tapers: int, n_channels: int):
    """A worker's buffers for one trial's transform and all-taper products: its DFTs
    ``(n_freq, m, P)``, its products ``(n_freq, P, P)``, a Gram block's buffer of
    ``GRAM_BLOCK * m * m`` complex numbers, large enough for at least one tapered
    series (:func:`_tapered_dfts`), and a block of conjugate DFTs ``(GRAM_BLOCK, m, P)``."""
    taper_shape = (n_tapers, n_channels)
    return (np.empty((n_freq, *taper_shape), dtype=complex),
            np.empty((n_freq, n_channels, n_channels), dtype=complex),
            np.empty(max(GRAM_BLOCK * n_tapers ** 2, -(-n_samples * n_channels // 2)),
                     dtype=complex),
            np.empty((GRAM_BLOCK, *taper_shape), dtype=complex))


def _tapered_dfts(values: np.ndarray, tapers: np.ndarray, phase: np.ndarray,
                  buffer: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half-grid DFTs of one trial under every taper, written into ``out``, shape
    ``(n_freq, m, P)``, and returned.

    ``phase`` is ``grid.phase[:, None, None]`` (:attr:`FrequencyGrid.phase`), which
    moves numpy's t = 0-based transform to the t = 1-based convention.  The
    tapered series are formed in the float view of ``buffer``, a Gram block's
    (:func:`_trial_space`), as many tapers at a time as it holds, laid out time
    first and transformed along that axis into their tapers' columns of ``out``.
    So no full-length tapered series is held, and the result comes out
    C-contiguous for the per-frequency products without a transposed copy.
    """
    n_channels, n_samples = values.shape
    floats = buffer.view(float)
    chunk = floats.size // (n_samples * n_channels)
    for start in range(0, len(tapers), chunk):
        part = tapers[start:start + chunk]
        tapered = floats[:n_samples * len(part) * n_channels].reshape(
            n_samples, len(part), n_channels)
        np.multiply(part.T[:, :, None], values.T[:, None, :], out=tapered)
        np.fft.rfft(tapered, axis=0, out=out[:, start:start + len(part)])
    out *= phase
    return out


def _conj_blocks(d: np.ndarray, conj_block: np.ndarray):
    """``(frequencies, block, conj(block))`` for each ``GRAM_BLOCK`` frequencies of the
    DFTs ``d``, the conjugates written into ``conj_block``."""
    for start in range(0, len(d), GRAM_BLOCK):
        block = d[start:start + GRAM_BLOCK]
        yield (slice(start, start + len(block)), block,
               np.conj(block, out=conj_block[:len(block)]))


def _taper_product_sum(series: MultiTrialSeries, tapers: np.ndarray,
                       phase: np.ndarray) -> np.ndarray:
    """``sum_n D_n^T conj(D_n)``, shape ``(n_freq, P, P)``, over the trials in canonical
    order, with ``D_n`` trial ``n``'s ``(n_freq, m, P)`` DFTs under ``tapers``."""
    n_freq = len(phase)
    order = series.trial_order

    def scratch():
        return _trial_space(n_freq, series.n_samples, len(tapers), series.n_channels)

    def trial_sum(k, space):
        d, products, buffer, conj_block = space
        _tapered_dfts(series.values[order[k]], tapers, phase, buffer, d)
        for freqs, block, conj in _conj_blocks(d, conj_block):  # (P, m) @ (m, P)
            np.matmul(block.transpose(0, 2, 1), conj, out=products[freqs])
        return products

    acc = np.zeros((n_freq, series.n_channels, series.n_channels), dtype=complex)
    for products in map_trials(trial_sum, series.n_trials, scratch):
        acc += products
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
    """Per-trial selected taper counts, their lower median, and the risk curves."""

    per_trial: tuple[int, ...]
    median: int
    risks: np.ndarray  # (n_trials, len(grid))

    #: The trials' summed all-taper products, ``(n_freq, P, P)``, when ``median`` is the
    #: grid top, for :func:`multitaper_estimator`.  Not a field, so a selection made in
    #: any other way (``replace``, ...) has none.
    _trial_sum = None


def select_taper_count(series: MultiTrialSeries, taper_grid=None) -> TaperSelection:
    """Unbiased-risk taper-count selection, per trial.

    For each trial, picks the count in ``taper_grid`` minimizing the
    grid-summed squared Hilbert-Schmidt distance between the leave-one-out
    mean periodogram (pilot) and that trial's multitaper estimate; ties go
    to the smaller count.  ``median`` is the lower median of the per-trial
    selections and is the count :func:`multitaper_estimator` selects.  The pilot
    comes from the series' own periodograms (:attr:`MultiTrialSeries.periodograms`).

    The trials are transformed in canonical order, and their all-taper products
    ``D^T conj(D)`` at the top count summed as :func:`multitaper_estimator` sums them,
    for it to read when the median is the top count; the risk rows stay in input order.
    Each worker's space holds one trial's DFTs, its all-taper products and its
    projections onto its periodogram DFT, ``(n_freq, m, 1)``; everything else a
    trial's risks need is formed ``GRAM_BLOCK`` frequencies at a time, in buffers of
    that size.  Sums over frequencies run in frequency order, as over the whole grid.
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
        # The trial's periodogram DFT conjugated onto its tapers' DFTs, and a block of
        # products with ``total`` below a row that carries the earlier blocks' sum.
        return _trial_space(n_freq, n_samples, m, p) + (
            np.empty((n_freq, m, 1), dtype=complex),
            np.empty((GRAM_BLOCK + 1, m, p), dtype=complex))

    def trial_risks(k, space):
        d, products, buffer, conj_block, proj, total_rows = space
        n = order[k]
        e = np.ascontiguousarray(pgrams.dfts[n].T)[:, :, None]  # (n_freq, P, 1)
        _tapered_dfts(series.values[n], tapers, phase, buffer, d)
        gram_block = buffer[:GRAM_BLOCK * m * m].reshape(GRAM_BLOCK, m, m)
        total_sum = np.empty(2 * m * p)  # sum over frequencies of Re(conj(d) * (d total^T))
        inner_sq = np.zeros(2 * m * m)  # sum over frequencies of |<d_a, d_b>|^2, re and im
        for freqs, part, conj in _conj_blocks(d, conj_block):
            # Re(conj(x) * y) summed is the float views' product summed, with no conjugate
            # copy.  The block's rows add to the sum row in frequency order, as one sum
            # over axis 0 of all frequencies adds them.
            rows = total_rows[:len(part) + 1]
            np.matmul(part, total[freqs].transpose(0, 2, 1), out=rows[1:])
            terms = rows.view(float).reshape(len(rows), -1)
            terms[1:] *= part.view(float).reshape(len(part), -1)
            np.sum(terms if freqs.start else terms[1:], axis=0, out=total_sum)
            terms[0] = total_sum
            inner = np.matmul(conj, part.transpose(0, 2, 1), out=gram_block[:len(part)])
            flat = inner.view(float).reshape(len(part), -1)
            flat *= flat  # not einsum, which holds the interpreter lock
            inner_sq += flat.sum(axis=0)
            np.matmul(part.transpose(0, 2, 1), conj, out=products[freqs])
            # conj(e^* d_a), which has the modulus of e^* d_a
            np.matmul(conj, e[freqs], out=proj[freqs])
        # sum(axis=(0, 2)) as two single-axis sums, which numpy forms several times faster
        total_quad = total_sum.reshape(m, -1).sum(axis=1)
        gram = np.cumsum(np.cumsum(inner_sq.reshape(m, m, 2).sum(axis=-1), axis=0), axis=1)
        proj_sq = proj.view(float)
        proj_sq *= proj_sq
        proj_quad = proj_sq.reshape(n_freq, -1).sum(axis=0).reshape(m, -1).sum(axis=1)
        quad = np.cumsum((total_quad - proj_quad / n_samples) / (n_trials - 1))
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
    selection = TaperSelection(per_trial=tuple(chosen), median=median, risks=risks)
    if median == grid_counts[-1]:
        object.__setattr__(selection, "_trial_sum", trial_sum)
    return selection


def multitaper_estimator(series: MultiTrialSeries, n_tapers: int | None = None, *,
                         taper_grid=None) -> tuple[SpectralEstimate, TaperSelection | None]:
    """Trial-averaged multitaper spectral estimate, and the taper selection it used.

    Per trial the estimate averages ``(2*pi)**-1 d_a d_a^*`` over sine tapers
    ``a = 1..n_tapers`` (unit-norm tapers absorb the usual 1/T); trials are
    then averaged.  Hermitian PSD by construction.  The trials' sums are
    added in canonical trial order, so the result is the same for any number
    of cores and any order of the trials.

    Without ``n_tapers`` the count is ``select_taper_count(series, taper_grid).median``,
    and that selection is returned; with it, ``taper_grid`` is not read and the
    selection is None.  A selected count gives bit for bit the estimate of that count
    given; at the grid top the estimate reads the selection's trial sum.
    """
    selection, trial_sum = None, None
    if n_tapers is None:
        selection = select_taper_count(series, taper_grid)
        n_tapers, trial_sum = selection.median, selection._trial_sum
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    if trial_sum is None:
        trial_sum = _taper_product_sum(series, sine_tapers(series.n_samples, n_tapers),
                                       grid.phase[:, None, None])
    return (SpectralEstimate(grid, trial_sum / (2.0 * np.pi * n_tapers * series.n_trials),
                             tag="multitaper"), selection)
