"""Multi-trial time series container and per-trial preprocessing."""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import canonical_trial_order, check_count, check_rate
from .errors import DegenerateChannelError, DimensionError, DomainError, InsufficientDataError


@dataclass(frozen=True)
class MultiTrialSeries:
    """``n_trials`` independent records of ``n_channels`` over ``n_samples`` points.

    Attributes
    ----------
    values : ndarray
        Real data, shape ``(n_trials, n_channels, n_samples)``, coerced to
        float64 and kept as a read-only view, so ``series.values[...] = v``
        raises ``ValueError``.  An array that is already float64 and
        C-contiguous is not copied: the caller must not change it afterwards,
        or the cached :attr:`periodograms` and :attr:`trial_order` go stale.
    sampling_rate : float
        Samples per second.
    channel_labels : tuple of str
        One label per channel; defaults to ``ch00, ch01, ...``.

    :attr:`periodograms` and :attr:`trial_order` are computed at first use and kept, so
    every stage run on the series shares them; a series made from it computes its own.
    """

    values: np.ndarray
    sampling_rate: float = 1.0
    channel_labels: tuple[str, ...] = ()

    #: What a leave-one-out replicate reads of the per-trial pieces that the jackknife built
    #: once for the whole set (:func:`~specshrink.connectivity.jackknife_band_stats`): each
    #: kept trial's DFT row, lag products and span-risk terms, the one thing set from outside
    #: on a replicate.  None on every other series; it is not a field, so a series made from
    #: a replicate has none.
    trial_pieces = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise DimensionError(f"values must be (n_trials, n_channels, n_samples), got {vals.shape}")
        n_trials, n_channels, n_samples = vals.shape
        if n_trials < 1 or n_channels < 1:
            raise DimensionError(f"need at least one trial and one channel, got {vals.shape}")
        if n_samples < 2:
            raise InsufficientDataError(f"need n_samples >= 2, got {n_samples}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("values contain NaN or infinity")
        object.__setattr__(self, "sampling_rate", check_rate(self.sampling_rate))
        labels = tuple(self.channel_labels) or tuple(f"ch{p:02d}" for p in range(n_channels))
        if len(labels) != n_channels:
            raise DimensionError(f"{len(labels)} labels for {n_channels} channels")
        vals = vals.view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @property
    def n_samples(self) -> int:
        return self.values.shape[2]

    @cached_property
    def periodograms(self):
        """The :class:`~specshrink.periodogram.PeriodogramSet` of the trials."""
        from .periodogram import compute_periodograms  # periodogram.py imports this module
        return compute_periodograms(self)

    @cached_property
    def trial_order(self) -> np.ndarray:
        """:func:`~specshrink.core.canonical_trial_order` of the trials: the order every
        sum over trials uses, so no result depends on the order they are listed in."""
        return canonical_trial_order(self.values)

    def drop_trial(self, index: int) -> "MultiTrialSeries":
        """A copy with one trial removed (for leave-one-out resampling)."""
        index = check_count(index, "trial index", low=0)
        if index >= self.n_trials:
            raise DimensionError(f"trial index {index} out of range [0, {self.n_trials})")
        if self.n_trials < 2:
            raise InsufficientDataError("cannot drop the only trial")
        keep = np.delete(self.values, index, axis=0)
        return replace(self, values=keep)


def detrend(series: MultiTrialSeries, order: int = 1) -> MultiTrialSeries:
    """Remove a per-trial, per-channel polynomial trend of the given degree.

    Degree 0 removes the mean, degree 1 a straight line, and so on.  The fit
    is an exact least-squares projection computed against an orthonormal
    polynomial basis in time, so polynomial inputs of degree <= ``order``
    come back as (numerical) zero.
    """
    order = check_count(order, "polynomial degree", low=0)
    n_samples = series.n_samples
    if n_samples <= order + 1:
        raise InsufficientDataError(
            f"need n_samples > degree + 1 to detrend; got {n_samples} samples for degree {order}")
    # Orthonormal basis of polynomials on a centred time axis keeps the
    # projection well conditioned for high degrees.
    t = np.linspace(-1.0, 1.0, n_samples)
    basis = np.vander(t, order + 1, increasing=True)
    q, _ = np.linalg.qr(basis)
    coefs = series.values @ q            # (n_trials, n_channels, order + 1)
    residual = coefs @ q.T               # the fitted trend, replaced by what it leaves
    np.subtract(series.values, residual, out=residual)
    return replace(series, values=residual)


def standardize(series: MultiTrialSeries) -> MultiTrialSeries:
    """Scale each (trial, channel) record to zero mean and unit sample variance.

    Variance uses the ``n - 1`` divisor.  A constant record has no scale to
    normalise by and raises :class:`DegenerateChannelError` naming the first
    offending trial and channel.
    """
    vals = series.values
    spread = np.ptp(vals, axis=2)
    sd = np.std(vals, axis=2, ddof=1)
    bad = (spread == 0.0) | (sd == 0.0)
    if np.any(bad):
        trial, channel = np.argwhere(bad)[0]
        raise DegenerateChannelError(
            f"channel {series.channel_labels[channel]!r} is constant in trial {trial}; "
            "cannot standardize a zero-variance record")
    scaled = vals - vals.mean(axis=2, keepdims=True)
    scaled /= sd[:, :, None]
    return replace(series, values=scaled)
