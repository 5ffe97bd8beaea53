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

Span risks are computed in closed form, in the lag domain.  A full-circle
periodogram is entrywise conjugate symmetric, so its frequency-axis DFT
``F`` is real: ``F = hfft(half grid)``, a circular sample cross-covariance
read straight off the half grid.  Smoothing is a circular convolution, so
with ``K_s`` the (real, even) transfer of the symmetric span-``s`` kernel,
Parseval's theorem gives the full-circle sum of squared distances for
every span at once:

    sum_j ||pilot_j - smoothed_j||^2
        = (1/T) sum_k (<F pilot, F pilot> - 2 K_s <F pilot, F own> + K_s^2 <F own, F own>)_k,

with each inner product taken over the matrix entries at lag ``k``.  This
is the lag-window duality of Blackman and Tukey: smoothing tapers the
cross-covariance by ``K_s``.  The transform is linear, so with ``F_total``
the transform of the trial sum the pilot's transform is
``(F_total - F own) / (N - 1)``: one transform per trial and one of the
sum give every term from the per-lag products ``<F_total, F own>`` and
``<F own, F own>``.  Entry ``(q, p)`` of ``F`` is entry ``(p, q)``
reversed in lag and ``K_s`` is even, so the sums over entries run over the
upper triangle with off-diagonal entries counted twice.

The same duality smooths: an entry's smoothed half grid is ``rfft(K_s irfft(half
grid))``, that is ``conj(rfft(K_s F)) / T``; the lower triangle is the upper's
conjugate and the diagonal real, so the result is exactly Hermitian.

A trial's transform needs no conjugation or rescaling of its own: entry
``(p, q)`` of its periodogram is ``d_p conj(d_q) / T``, and
``hfft(d_p conj(d_q) / T) = irfft(conj(d_p) d_q)`` (``hfft`` conjugates its
input and ``irfft`` divides by ``T``), so each trial's entries are one
product of its DFT rows and one ``irfft``.

Both the pilot and the smoothed trial are conjugate symmetric, so the
full circle counts every half-grid frequency twice except omega = 0 and,
for even T, omega = pi.  The half-grid risk therefore adds those endpoint
terms, each a kernel-weighted sum over at most ``span`` neighbours read
from the half grid by reflection, to the full-circle sum and halves it.
At an endpoint the offsets ``+o`` and ``-o`` read the same reflected
value, so each kernel is folded onto offsets ``0 .. half`` (weight ``w_0``,
then ``2 w_o``), and one matrix product smooths both endpoints of every
entry for every span.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SpectralEstimate, check_count, check_grid
from .errors import DimensionError, DomainError, InsufficientDataError
from .periodogram import periodogram_sum, shared_dfts
from .timeseries import MultiTrialSeries

#: Smallest and largest spans ever chosen automatically.
MIN_AUTO_SPAN = 3
MAX_AUTO_SPAN = 63

#: Bytes up to which :func:`_stacked_terms` keeps every trial's lag transform ``f_own``
#: (``N * P*(P+1)/2 * T`` doubles: 19 MB at 120 x 12 x 256, 173 MB at 40 x 32 x 1024);
#: above it each replicate transforms its trials again.
F_OWN_CAP_BYTES = 1 << 25


@dataclass(frozen=True)
class SmoothingConfig:
    """The record of :func:`smoothed_estimator`: its checked ``span_grid`` and ``fixed_span``
    (``None`` when not given) and ``selected_spans``, the span used for each trial."""

    span_grid: tuple[int, ...] | None
    fixed_span: int | None
    selected_spans: tuple[int, ...]


def default_span_grid(n_samples: int) -> tuple[int, ...]:
    """Odd spans from ``MIN_AUTO_SPAN`` up to ``min(n_samples/4 rounded down to odd,
    MAX_AUTO_SPAN)``."""
    top = min(n_samples // 4, MAX_AUTO_SPAN)
    if top % 2 == 0:
        top -= 1
    if top < MIN_AUTO_SPAN:
        raise InsufficientDataError(
            f"record length {n_samples} is too short for automatic span selection; "
            "pass an explicit span_grid or fixed_span")
    return tuple(range(MIN_AUTO_SPAN, top + 1, 2))


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
    """Real FFT of the even Hann kernel placed on the length-``n_samples`` circle."""
    if span >= n_samples:
        raise DomainError(
            f"span {span} does not fit a full circle of {n_samples} frequencies")
    w = hann_weights(span)
    half = (span - 1) // 2
    kernel = np.zeros(n_samples)
    kernel[np.arange(-half, half + 1) % n_samples] = w
    return np.fft.fft(kernel).real


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
        Smoothed matrices on the same half grid, exactly Hermitian at every
        frequency (smoothed in the lag domain; see the module docstring).
    """
    check_count(span, "smoothing span", odd=True)
    matrices = np.asarray(matrices, dtype=complex)
    if matrices.ndim != 3 or matrices.shape != (n_samples // 2 + 1,) + matrices.shape[1:2] * 2:
        raise DimensionError(f"shape {matrices.shape} is not a half grid of {n_samples} samples")
    if span == 1:
        return matrices.copy()
    rows, cols = np.triu_indices(matrices.shape[-1])
    lagged = np.fft.irfft(matrices[:, rows, cols].T, n=n_samples, axis=-1)
    upper = np.fft.rfft(lagged * _kernel_transfer(span, n_samples), axis=-1).T
    upper.imag[:, rows == cols] = 0.0
    smoothed = np.empty_like(matrices)
    smoothed[:, cols, rows] = np.conj(upper)
    smoothed[:, rows, cols] = upper  # last, so the diagonal keeps a +0 imaginary part
    return smoothed


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
            transfers[i] = _kernel_transfer(span, n_samples)
        h = (span - 1) // 2
        weights[i, half - h:half + h + 1] = hann_weights(span)
    transfers.flags.writeable = False
    weights.flags.writeable = False
    return transfers, weights


class _TrialTerms:
    """The terms of :func:`span_risks` that depend on one trial alone, for a span grid and a
    data shape: calling it on a trial's DFT ``d`` returns ``(f_own, own_sq, own_ends,
    smoothed)``.

    Entry ``(q, p)`` of a lagged covariance is entry ``(p, q)`` reversed in lag and every
    transfer is even in lag, so the upper triangle, with off-diagonal entries scaled by
    sqrt(2), gives every sum over entries.  A trial's triangle is built straight from ``d``
    and its sqrt(2)-scaled copy, one row per entry, so its lag transform ``f_own`` is a plain
    ``irfft``; ``own_sq`` is its squared norm at each lag.  ``own_ends`` is the triangle's
    real part at the endpoints omega = 0 and, for even T, omega = pi, divided by T, and
    ``smoothed`` is that at each endpoint smoothed with every span, from the reflected rows
    of :attr:`window_rows` and the kernels folded onto offsets ``0 .. half`` (module
    docstring).
    """

    def __init__(self, grid: tuple[int, ...], n_samples: int, n_channels: int):
        self.key = (grid, n_samples, n_channels)
        self.n_samples = n_samples
        self.transfers, weights = _span_kernels(grid, n_samples)
        self.rows, self.cols = np.triu_indices(n_channels)
        diagonal = self.rows == self.cols
        self.scaled_cols = np.where(diagonal, self.cols, self.cols + n_channels)
        self.scale = np.where(diagonal, 1.0, np.sqrt(2.0))[:, None]
        # At the endpoints the pilot and the smoothed trial are real (the kernel is symmetric
        # and each reflected entry is a conjugate), and offsets +o and -o read the same
        # reflected row, so each kernel folds onto offsets 0 .. half with weights doubled
        # above 0.
        self.half = (weights.shape[1] - 1) // 2
        self.folded = weights[:, self.half:] * np.where(np.arange(self.half + 1) > 0, 2.0, 1.0)
        self.endpoints = np.array([0, n_samples // 2] if n_samples % 2 == 0 else [0])
        circle = (self.endpoints[:, None] + np.arange(self.half + 1)) % n_samples
        self.window_rows = np.minimum(circle, n_samples - circle)

    def transform(self, d: np.ndarray):
        """A trial's upper triangle and its lag transform ``f_own``, from its DFT ``d``."""
        own = np.conj(d)[self.rows]
        own *= np.concatenate((d, np.sqrt(2.0) * d))[self.scaled_cols]
        # irfft(conj(d_p) d_q) is hfft(d_p conj(d_q) / T): the entry's lag transform.
        return own, np.fft.irfft(own, n=self.n_samples, axis=-1)

    def __call__(self, d: np.ndarray):
        own, f_own = self.transform(d)
        own_sq = np.einsum("ek,ek->k", f_own, f_own)
        own_ends = own.real[:, self.window_rows] / self.n_samples
        smoothed = own_ends.reshape(-1, self.half + 1) @ self.folded.T
        return f_own, own_sq, own_ends[:, :, 0], smoothed


def _stacked_terms(terms: _TrialTerms, dfts: np.ndarray):
    """The ``terms`` of every trial of ``dfts``, each stacked over the trials, with ``f_own``
    None where it would take more than :data:`F_OWN_CAP_BYTES`."""
    n_trials = len(dfts)
    keep = n_trials * len(terms.rows) * terms.n_samples * 8 <= F_OWN_CAP_BYTES
    f_own = stacks = None
    for n, (trial_f_own, *rest) in enumerate(map(terms, dfts)):
        if stacks is None:
            f_own = np.empty((n_trials,) + trial_f_own.shape) if keep else None
            stacks = [np.empty((n_trials,) + term.shape) for term in rest]
        if keep:
            f_own[n] = trial_f_own
        for stack, term in zip(stacks, rest):
            stack[n] = term
    return f_own, *stacks


def span_risks(series: MultiTrialSeries, span_grid) -> np.ndarray:
    """Unbiased-risk curves of every trial over the candidate spans, ``(n_trials, n_spans)``.

    The risk of a span for trial ``n`` is
    ``(2*pi/T) * sum_j ||pilot_n(w_j) - smoothed_n(w_j)||^2`` over the half
    grid, where the pilot is the mean periodogram of all other trials and
    the smoothed term is trial ``n``'s periodogram smoothed with that span, both
    from the series' ``periodograms``.  One lag-domain transform per trial, plus one
    of the trial sum, scores every span of every trial (see the module docstring);
    trials are streamed one at a time.  A replicate made by ``parent.leave_one_out()``
    reads its trials' own terms (:class:`_TrialTerms`) from those of ``parent``'s trials,
    formed once for all the replicates of that loop (:func:`_stacked_terms`), bit for bit
    the same.
    """
    grid = check_grid(span_grid, "smoothing spans", odd=True)
    periodograms = series.periodograms
    n_trials = periodograms.n_trials
    if n_trials < 2:
        raise InsufficientDataError(
            "span selection needs at least two trials for its leave-one-out pilot; "
            "set fixed_span to smooth a single trial")
    n_samples = periodograms.grid.n_samples
    terms = _TrialTerms(grid, n_samples, periodograms.dfts.shape[1])
    transfers_sq = terms.transfers ** 2
    total = periodograms.total[:, terms.rows, terms.cols].T * terms.scale
    f_total = np.fft.hfft(total, n=n_samples, axis=-1)
    total_sq = np.einsum("ek,ek->", f_total, f_total)
    # The full circle holds every half-grid frequency twice except omega = 0
    # and, for even T, omega = pi; add those once more.
    total_ends = total.real[:, terms.endpoints]

    per_trial = map(terms, periodograms.dfts)
    # a replicate reads its trials' rows of the terms formed from its parent's DFTs
    shared = series.shared("span terms", terms.key,
                           lambda parent: _stacked_terms(terms, shared_dfts(series)[0]))
    if shared is not None:
        (every_f_own, every_sq, every_ends, every_smoothed), kept = shared
        per_trial = ((terms.transform(d)[1] if every_f_own is None else every_f_own[n],
                      every_sq[n], every_ends[n], every_smoothed[n])
                     for d, n in zip(periodograms.dfts, kept))
    risks = np.empty((n_trials, len(grid)))
    for n, (f_own, own_sq, own_ends, smoothed) in enumerate(per_trial):
        own_total = np.einsum("ek,ek->k", f_own, f_total)
        # The pilot's transform is (f_total - f_own) / (N - 1).
        cross = (own_total - own_sq) / (n_trials - 1)
        pilot_sq = (total_sq - 2.0 * own_total.sum() + own_sq.sum()) / (n_trials - 1) ** 2
        # Cancellation can round this sum of squares just below zero.
        risks[n] = np.maximum(
            (pilot_sq - 2.0 * (terms.transfers @ cross) + transfers_sq @ own_sq) / n_samples,
            0.0)
        pilot = (total_ends - own_ends) / (n_trials - 1)
        diff = pilot[..., None] - smoothed.reshape(pilot.shape + (len(grid),))
        risks[n] += np.einsum("eis,eis->s", diff, diff)
    return (np.pi / n_samples) * risks / periodograms.dfts.shape[1]


def smoothed_estimator(series: MultiTrialSeries, span_grid=None, fixed_span: int | None = None,
                       ) -> tuple[SpectralEstimate, SmoothingConfig]:
    """Trial-averaged smoothed periodogram with per-trial span selection.

    Parameters
    ----------
    series : MultiTrialSeries
        The data; at least two trials unless ``fixed_span`` is set.
    span_grid, fixed_span : optional
        Candidate spans to select from per trial (:func:`default_span_grid`
        when omitted), or one odd span for every trial, bypassing selection.

    Returns
    -------
    (SpectralEstimate, SmoothingConfig)
        The estimate (tag ``"smoothed"``) and the record of the checked
        settings with ``selected_spans``, the span used for each trial.  The
        periodograms are the series' own (:attr:`MultiTrialSeries.periodograms`).
    """
    span_grid = None if span_grid is None else check_grid(span_grid, "smoothing spans", odd=True)
    fixed_span = None if fixed_span is None else check_count(fixed_span, "fixed_span", odd=True)
    pgrams = series.periodograms
    n_samples = pgrams.grid.n_samples
    if fixed_span is not None:
        spans = [fixed_span] * series.n_trials
    else:
        grid = span_grid if span_grid is not None else default_span_grid(n_samples)
        # argmin takes the first minimum, so ties go to the smaller span.
        risks = span_risks(series, grid)
        spans = [grid[i] for i in np.argmin(risks, axis=1)]
    # Smoothing is linear: smooth each group of trials sharing a span once.  A
    # group of every trial is the set's own trial sum.
    total = np.zeros_like(pgrams.mean.matrices)
    for span in sorted(set(spans)):
        members = [n for n in series.trial_order if spans[n] == span]
        group = (pgrams.total if len(members) == series.n_trials
                 else periodogram_sum(pgrams.dfts, members, n_samples))
        total += smooth_periodogram(group, span, n_samples)
    estimate = SpectralEstimate(pgrams.grid, total / series.n_trials, tag="smoothed")
    return estimate, SmoothingConfig(span_grid, fixed_span, tuple(spans))
