"""Sine-taper multitaper estimation with unbiased-risk taper-count selection.

Used as a competitor estimator in the Monte Carlo comparison harness.
Sine tapers are exactly orthonormal in closed form, so no eigen-solver is
needed.  The number of tapers is selected per trial by the same
leave-one-out unbiased-risk rule used for smoothing spans; the harness
uses the lower median of the per-trial selections.
"""

from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, SpectralEstimate
from .errors import DimensionError, DomainError, InsufficientDataError
from .periodogram import PeriodogramSet, compute_periodograms
from .timeseries import MultiTrialSeries

#: Largest taper count tried by the default selection grid.  Mirrors the
#: smoothing-span cap: an m-taper sine bank concentrates on roughly the same
#: frequency band as a span-m kernel, so both nonparametric routes search the
#: same range of effective bandwidths.
MAX_AUTO_TAPERS = 63


@dataclass(frozen=True)
class TaperBank:
    """A family of orthonormal tapers, shape ``(n_tapers, n_samples)``."""

    n_samples: int
    n_tapers: int
    tapers: np.ndarray

    def __post_init__(self):
        tapers = np.ascontiguousarray(self.tapers, dtype=float)
        if tapers.shape != (self.n_tapers, self.n_samples):
            raise DimensionError(
                f"tapers must have shape ({self.n_tapers}, {self.n_samples}), got {tapers.shape}")
        object.__setattr__(self, "tapers", tapers)


def sine_tapers(n_samples: int, n_tapers: int) -> TaperBank:
    """The first ``n_tapers`` sine tapers of length ``n_samples``.

    Taper ``a`` is ``sqrt(2/(T+1)) * sin(pi*a*t/(T+1))`` for ``t = 1..T``;
    the family is orthonormal in closed form.
    """
    if not 1 <= n_tapers < n_samples:
        raise DomainError(f"need 1 <= n_tapers < n_samples, got {n_tapers} for T={n_samples}")
    t = np.arange(1, n_samples + 1)
    a = np.arange(1, n_tapers + 1)
    tapers = np.sqrt(2.0 / (n_samples + 1)) * np.sin(np.pi * np.outer(a, t) / (n_samples + 1))
    return TaperBank(n_samples=n_samples, n_tapers=n_tapers, tapers=tapers)


def _tapered_dfts(values: np.ndarray, bank: TaperBank, grid: FrequencyGrid) -> np.ndarray:
    """Half-grid DFTs of one trial under every taper, shape ``(m, P, n_freq)``."""
    tapered = bank.tapers[:, None, :] * values[None, :, :]
    return np.fft.rfft(tapered, axis=-1) * np.exp(-1j * grid.omegas)


def multitaper_estimator(series: MultiTrialSeries, n_tapers: int) -> SpectralEstimate:
    """Trial-averaged multitaper spectral estimate with ``n_tapers`` sine tapers.

    Per trial the estimate averages ``(2*pi)**-1 d_a d_a^*`` over tapers
    ``a = 1..n_tapers`` (unit-norm tapers absorb the usual 1/T); trials are
    then averaged.  Hermitian PSD by construction.
    """
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    bank = sine_tapers(series.n_samples, n_tapers)
    acc = np.zeros((grid.n_frequencies, series.n_channels, series.n_channels), dtype=complex)
    for n in range(series.n_trials):
        d = np.ascontiguousarray(_tapered_dfts(series.values[n], bank, grid).transpose(2, 1, 0))
        acc += d @ np.conj(d).transpose(0, 2, 1)  # (n_freq, P, m) @ (n_freq, m, P)
    acc /= 2.0 * np.pi * n_tapers * series.n_trials
    return SpectralEstimate(grid, acc, tag="multitaper")


def default_taper_grid(n_samples: int) -> tuple[int, ...]:
    """Candidate taper counts ``1 .. min(n_samples // 4, 63)``, capped at ``n_samples - 1``."""
    top = min(max(n_samples // 4, 1), MAX_AUTO_TAPERS, n_samples - 1)
    return tuple(range(1, top + 1))


def validate_taper_grid(taper_grid, n_samples: int) -> tuple[int, ...]:
    """Check a taper-count grid: nonempty integers, strictly increasing, inside ``1..T-1``."""
    grid = tuple(taper_grid)
    if not grid:
        raise DomainError("taper grid is empty")
    bad = next((m for m in grid
                if not isinstance(m, (int, np.integer)) or isinstance(m, bool)), None)
    if bad is not None:
        raise DomainError(f"taper counts must be integers, got {bad!r}")
    grid = tuple(int(m) for m in grid)
    if any(m < 1 or m >= n_samples for m in grid):
        raise DomainError(f"taper counts must satisfy 1 <= m < {n_samples}, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"taper grid must be strictly increasing, got {grid}")
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
    pgrams = periodograms if periodograms is not None else compute_periodograms(series)
    if pgrams.n_trials != series.n_trials or pgrams.grid.n_samples != series.n_samples:
        raise DimensionError("periodograms do not match the series dimensions")
    grid = pgrams.grid
    bank = sine_tapers(series.n_samples, max(grid_counts))
    scale = 2.0 * np.pi / series.n_samples
    counts = np.asarray(grid_counts)

    # The m-taper estimate is a prefix mean of rank-1 terms d_a d_a^*, so the
    # grid-summed squared distance to the pilot expands into prefix sums of
    # pairwise taper inner products and pilot quadratic forms; this avoids
    # materialising one (n_freq, P, P) matrix per taper and candidate count.
    risks = np.empty((series.n_trials, len(grid_counts)))
    chosen = []
    for n in range(series.n_trials):
        pilot = pgrams.leave_one_out_mean(n)
        d = np.ascontiguousarray(_tapered_dfts(series.values[n], bank, grid).transpose(2, 0, 1))
        inner = np.conj(d) @ d.transpose(0, 2, 1)  # (n_freq, m, m) taper inner products
        flat = inner.view(float).reshape(grid.n_frequencies, -1)
        inner_sq = np.einsum("ji,ji->i", flat, flat).reshape(bank.n_tapers, bank.n_tapers, 2).sum(axis=-1)
        gram = np.cumsum(np.cumsum(inner_sq, axis=0), axis=1)
        quad = np.cumsum((np.conj(d) * (d @ pilot.transpose(0, 2, 1))).sum(axis=(0, 2)).real)
        pilot_sq = float(np.sum(pilot.real**2 + pilot.imag**2))
        dist = (pilot_sq
                - quad[counts - 1] / (np.pi * counts)
                + np.diag(gram)[counts - 1] / (2.0 * np.pi * counts) ** 2)
        risks[n] = scale * np.maximum(dist, 0.0) / series.n_channels
        chosen.append(int(grid_counts[int(np.argmin(risks[n]))]))
    median = sorted(chosen)[(len(chosen) - 1) // 2]
    return TaperSelection(per_trial=tuple(chosen), median=median, risks=risks)
