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
    The replicates that one :meth:`leave_one_out` loop makes also share the work that
    depends on one trial alone (:meth:`shared`), for as long as that loop or one of its
    replicates lives.
    """

    values: np.ndarray
    sampling_rate: float = 1.0
    channel_labels: tuple[str, ...] = ()

    #: ``(parent, kept, store)`` of a replicate made by ``parent.leave_one_out()``.  Not a
    #: field, so a series made from it in any other way (``replace``, :func:`detrend`, ...)
    #: has none.
    _origin = None

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
        """A copy with one trial removed, sharing nothing with this series."""
        index = check_count(index, "trial index", low=0)
        if index >= self.n_trials:
            raise DimensionError(f"trial index {index} out of range [0, {self.n_trials})")
        if self.n_trials < 2:
            raise InsufficientDataError("cannot drop the only trial")
        return replace(self, values=np.delete(self.values, index, axis=0))

    def leave_one_out(self):
        """Yield ``drop_trial(i)`` for ``i = 0 .. n_trials - 1``, the replicates of a
        leave-one-out loop, which share what :meth:`shared` forms for all the trials.

        The shared work lives in a store held by this generator and its replicates alone,
        so nothing is kept on this series and the store dies with the loop.  The generator
        holds no replicate while it builds the next one.
        """
        store = {}  # kind: (key, value)
        trials = np.arange(self.n_trials)
        for index in range(self.n_trials):
            replicate = self.drop_trial(index)
            object.__setattr__(replicate, "_origin", (self, np.delete(trials, index), store))
            yield replicate
            del replicate  # so that this frame does not hold it while the next is built

    def shared(self, kind: str, key, build):
        """``(build(parent), kept)`` for a replicate made by ``parent.leave_one_out()``, with
        ``kept`` the indices of its trials among ``parent``'s; None for any other series.

        ``build(parent)`` forms a piece of work for every trial of ``parent`` at once.  It
        runs once per ``kind`` and ``key`` in one loop, and its value is kept in that loop's
        store for every replicate; a new ``key`` for a ``kind`` replaces the old value,
        which is dropped first.
        """
        if self._origin is None:
            return None
        parent, kept, store = self._origin
        if kind not in store or store[kind][0] != key:
            store.pop(kind, None)  # free the old value before the new one is built
            store[kind] = (key, build(parent))
        return store[kind][1], kept


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

    Variance uses the ``n - 1`` divisor.  Each record is first scaled by the power of two
    that brings its largest magnitude into ``[1/2, 1)``, which is exact, so the result is
    the same for the record at any scale at which its values are normal floats, and its
    variance neither overflows nor underflows to zero.  A constant record has no scale to normalise
    by and raises :class:`DegenerateChannelError` naming the first offending trial and
    channel.
    """
    vals = series.values
    high, low = vals.max(axis=2), vals.min(axis=2)
    bad = high == low
    if np.any(bad):
        trial, channel = np.argwhere(bad)[0]
        raise DegenerateChannelError(
            f"channel {series.channel_labels[channel]!r} is constant in trial {trial}; "
            "cannot standardize a zero-variance record")
    _, exponent = np.frexp(np.maximum(high, -low))
    scaled = np.ldexp(vals, -exponent[:, :, None])
    for start in range(0, len(scaled), 16):  # blocks of trials keep the temporaries small
        block = scaled[start:start + 16]
        sd = np.std(block, axis=2, ddof=1, keepdims=True)
        block -= block.mean(axis=2, keepdims=True)
        block /= sd
    return replace(series, values=scaled)
