"""Coherence, partial coherence, band summaries, and two-condition inference.

The inference stack follows the usual resampling route for multi-trial
spectral connectivity: band-averaged partial coherence on the combined
(shrinkage) estimate, variance-stabilized with ``atanh(sqrt(rho))``,
jackknifed over trials for standard errors, compared across conditions
with Welch t statistics, and corrected jointly with Benjamini-Hochberg
step-up FDR.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import stdtr

from .core import FrequencyGrid, SpectralEstimate, exact_sum, hermitian_cond, symmetrize
from .errors import (DegenerateChannelError, DimensionError, DomainError,
                     EmptyBandError, InsufficientDataError, NearSingularError,
                     PipelineError, SpecshrinkError)
from .shrinkage import PipelineOptions, shrinkage_pipeline
from .timeseries import MultiTrialSeries

#: Condition-number guard for inverting spectral matrices.
INVERSION_COND_LIMIT = 1e12

CONNECTIVITY_KINDS = ("coherence", "partial_coherence")

#: Slack allowed above 1.0 for floating-point overshoot of coherence values.
UPPER_SLACK = 1e-10


@dataclass(frozen=True)
class ConnectivityResult:
    """Symmetric connectivity matrices, per frequency or band-averaged.

    ``values`` has shape ``(n_frequencies, P, P)`` when ``grid`` is set, or
    ``(P, P)`` for a band average (with ``band`` holding the Hz range).
    Entries lie in [0, 1] up to floating-point slack; the diagonal is fixed
    at 1 by convention and carries no information.
    """

    kind: str
    values: np.ndarray
    grid: FrequencyGrid | None = None
    band: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in CONNECTIVITY_KINDS:
            raise DomainError(f"kind must be one of {CONNECTIVITY_KINDS}, got {self.kind!r}")
        vals = np.ascontiguousarray(self.values, dtype=float)
        expected_ndim = 3 if self.grid is not None else 2
        if vals.ndim != expected_ndim or vals.shape[-1] != vals.shape[-2]:
            raise DimensionError(f"values have shape {vals.shape}, expected "
                                 f"{expected_ndim}-d square-matrix stack")
        if self.grid is not None and vals.shape[0] != self.grid.n_frequencies:
            raise DimensionError(f"{vals.shape[0]} matrices for {self.grid.n_frequencies} "
                                 "grid frequencies")
        if not np.array_equal(vals, np.swapaxes(vals, -1, -2)):
            raise DomainError("connectivity matrices must be exactly symmetric")
        if np.any(vals < 0.0) or np.any(vals > 1.0 + UPPER_SLACK):
            raise DomainError("connectivity values must lie in [0, 1] (plus tolerance)")
        object.__setattr__(self, "values", vals)

    @property
    def n_channels(self) -> int:
        return self.values.shape[-1]


def _real_diagonal(matrices: np.ndarray) -> np.ndarray:
    return np.real(np.diagonal(matrices, axis1=-2, axis2=-1))


def coherence(estimate: SpectralEstimate) -> ConnectivityResult:
    """Magnitude-squared coherence ``|f_pq|**2 / (f_pp * f_qq)`` per frequency.

    The input is symmetrized first, so the result is exactly symmetric.
    Raises :class:`DegenerateChannelError` if any autospectrum is not
    strictly positive.
    """
    mats = symmetrize(estimate.matrices)
    diag = _real_diagonal(mats)
    if np.any(diag <= 0.0):
        j, p = np.argwhere(diag <= 0.0)[0]
        raise DegenerateChannelError(
            f"autospectrum of channel {p} is not positive at frequency index {j}; "
            "coherence is undefined")
    vals = np.abs(mats) ** 2 / (diag[:, :, None] * diag[:, None, :])
    di = np.arange(estimate.n_channels)
    vals[:, di, di] = 1.0
    return ConnectivityResult(kind="coherence", values=vals, grid=estimate.grid)


def partial_coherence(estimate: SpectralEstimate) -> ConnectivityResult:
    """Partial coherence from the inverse spectral matrix, per frequency.

    With ``g = f**-1`` (symmetrized), the partial coherence of channels p
    and q is ``|g_pq|**2 / (g_pp * g_qq)`` -- the squared modulus of the
    normalized negative inverse, measuring direct linear association after
    removing the other channels.  The diagonal is set to 1 by convention.

    Raises
    ------
    NearSingularError
        If some frequency's matrix is singular or has condition number
        above :data:`INVERSION_COND_LIMIT`.  No regularization is applied;
        a failure here should be addressed by a better-conditioned estimator.
    """
    mats = symmetrize(estimate.matrices)
    conds = hermitian_cond(mats)
    worst = int(np.argmax(np.where(np.isfinite(conds), conds, np.inf)))
    if not np.all(np.isfinite(conds)) or conds[worst] > INVERSION_COND_LIMIT:
        raise NearSingularError(
            f"spectral matrix at frequency index {worst} "
            f"(omega = {estimate.grid.omegas[worst]:.6g} rad/sample) has condition number "
            f"{conds[worst]:.3g}, above the inversion guard {INVERSION_COND_LIMIT:.0e}")
    inv = symmetrize(np.linalg.inv(mats))
    diag = _real_diagonal(inv)
    if np.any(diag <= 0.0):
        j = int(np.argwhere(diag <= 0.0)[0][0])
        raise NearSingularError(
            f"inverse spectral matrix lost positivity at frequency index {j}; "
            "the estimate is too ill-conditioned for partial coherence")
    vals = np.abs(inv) ** 2 / (diag[:, :, None] * diag[:, None, :])
    di = np.arange(estimate.n_channels)
    vals[:, di, di] = 1.0
    return ConnectivityResult(kind="partial_coherence", values=vals, grid=estimate.grid)


def check_band(band) -> tuple[float, float]:
    """A band's ``(lo, hi)`` edges in Hz as floats; they must be finite with ``lo <= hi``."""
    lo, hi = float(band[0]), float(band[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"invalid band [{lo}, {hi}]")
    return lo, hi


def band_mask(grid: FrequencyGrid, band) -> np.ndarray:
    """Which grid frequencies lie inside a Hz band (endpoints inclusive); :class:`DomainError`
    if the grid has no sampling rate, :class:`EmptyBandError` if no frequency lies inside."""
    lo, hi = check_band(band)
    hertz = grid.hertz
    mask = (hertz >= lo) & (hertz <= hi)
    if not np.any(mask):
        raise EmptyBandError(f"no Fourier frequencies inside [{lo}, {hi}] Hz "
                             f"at sampling rate {grid.sampling_rate}")
    return mask


def band_average(result: ConnectivityResult, band: tuple[float, float]) -> ConnectivityResult:
    """Average a per-frequency result over the grid frequencies of :func:`band_mask`."""
    if result.grid is None:
        raise DimensionError("result is already band-averaged")
    band = check_band(band)
    vals = result.values[band_mask(result.grid, band)].mean(axis=0)
    return ConnectivityResult(kind=result.kind, values=vals, grid=None, band=band)


def fisher_z(rho):
    """Variance-stabilizing transform ``atanh(sqrt(rho))`` for squared-coherence values.

    Accepts scalars or arrays with entries in ``[0, 1)``; strictly
    increasing, zero at zero.
    """
    arr = np.asarray(rho, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError("fisher_z needs values in [0, 1)")
    out = np.arctanh(np.sqrt(arr))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BandStats:
    """Jackknife summary of band-averaged partial coherence on the z scale.

    ``mean_z`` and ``se`` are P x P symmetric matrices (diagonal zero);
    ``n_trials`` is the number of leave-one-out replicates.
    """

    mean_z: np.ndarray
    se: np.ndarray
    n_trials: int
    band: tuple[float, float]


def jackknife_band_stats(series: MultiTrialSeries, band: tuple[float, float],
                         options: PipelineOptions | None = None) -> BandStats:
    """Leave-one-trial-out jackknife of band-averaged partial coherence.

    For each left-out trial the full shrinkage pipeline is rerun on the
    remaining trials, partial coherence is band-averaged and Fisher-z
    transformed; the function returns the replicate mean and the jackknife
    standard error ``sqrt((n-1)/n * sum((z_i - mean)**2))`` per channel
    pair.  Replicates are reduced with exactly rounded sums, and the VAR fit
    inside each replicate does not depend on trial order; the periodogram
    mean and the smoothing still sum trials in order, so permuting the trials
    can move the result in its last bits.  A replicate that fails raises
    :class:`PipelineError` whose stage names the left-out trial.
    """
    n = series.n_trials
    if n < 2:
        raise InsufficientDataError("jackknife needs at least two trials")
    replicates = []
    for leave_out in range(n):
        try:
            result = shrinkage_pipeline(series.drop_trial(leave_out), options)
            banded = band_average(partial_coherence(result.estimate), band)
            vals = banded.values.copy()
            np.fill_diagonal(vals, 0.0)
            replicates.append(fisher_z(vals))
        except SpecshrinkError as err:
            raise PipelineError(f"jackknife without trial {leave_out}", str(err)) from err
    stack = np.stack(replicates)
    mean_z = exact_sum(stack) / n
    se = np.sqrt((n - 1) / n * exact_sum((stack - mean_z) ** 2))
    return BandStats(mean_z=mean_z, se=se, n_trials=n, band=(float(band[0]), float(band[1])))


def welch_t(stats_a, stats_b):
    """Welch two-sample t test from (mean, SE, n) summaries.

    Returns ``(t, df, p)`` with ``t = (mean_a - mean_b)/sqrt(se_a**2 +
    se_b**2)``, Welch-Satterthwaite degrees of freedom, and a two-sided
    p-value.  If both SEs are zero the statistic degenerates: equal means
    give ``(0, inf, 1)``; unequal means give ``(+-inf, inf, 0)``.
    """
    mean_a, se_a, n_a = stats_a
    mean_b, se_b, n_b = stats_b
    for se in (se_a, se_b):
        if not math.isfinite(se) or se < 0.0:
            raise DomainError(f"standard errors must be finite and >= 0, got {se}")
    for n in (n_a, n_b):
        if n < 2:
            raise DomainError(f"each condition needs n >= 2 replicates, got {n}")
    if se_a == 0.0 and se_b == 0.0:
        if mean_a == mean_b:
            return 0.0, math.inf, 1.0
        return math.copysign(math.inf, mean_a - mean_b), math.inf, 0.0
    t = (mean_a - mean_b) / math.hypot(se_a, se_b)
    va, vb = se_a ** 2, se_b ** 2
    df = (va + vb) ** 2 / (va ** 2 / (n_a - 1) + vb ** 2 / (n_b - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return float(t), float(df), p


def check_fdr_level(q: float):
    """Raise :class:`DomainError` unless the FDR level ``q`` lies in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")


def bh_fdr(pvalues, q: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg step-up rejection flags at FDR level ``q``.

    Sorts the p-values, finds the largest rank ``k`` with
    ``p_(k) <= k*q/m``, and rejects the ``k`` smallest; the returned boolean
    array is aligned with the input order (stable under ties).
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1:
        raise DimensionError(f"pvalues must be one-dimensional, got shape {p.shape}")
    if p.size and (not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0)):
        raise DomainError("p-values must lie in [0, 1]")
    check_fdr_level(q)
    m = p.size
    rejected = np.zeros(m, dtype=bool)
    if m == 0:
        return rejected
    order = np.argsort(p, kind="stable")
    passing = np.nonzero(p[order] <= q * np.arange(1, m + 1) / m)[0]
    if passing.size:
        rejected[order[: passing[-1] + 1]] = True
    return rejected


@dataclass(frozen=True)
class PairTest:
    """One channel pair's between-condition test in one band."""

    channel_a: int
    channel_b: int
    band: tuple[float, float]
    z_left: float
    z_right: float
    se_left: float
    se_right: float
    t: float
    df: float
    p: float
    rejected: bool | None = None


def pairwise_tests(stats_left: BandStats, stats_right: BandStats) -> list[PairTest]:
    """Welch tests for every channel pair between two conditions (one band)."""
    if stats_left.mean_z.shape != stats_right.mean_z.shape:
        raise DimensionError("conditions have different channel counts")
    if stats_left.band != stats_right.band:
        raise DomainError(f"band mismatch: {stats_left.band} vs {stats_right.band}")
    n_channels = stats_left.mean_z.shape[0]
    tests = []
    for a in range(n_channels):
        for b in range(a + 1, n_channels):
            t, df, p = welch_t(
                (stats_left.mean_z[a, b], stats_left.se[a, b], stats_left.n_trials),
                (stats_right.mean_z[a, b], stats_right.se[a, b], stats_right.n_trials))
            tests.append(PairTest(
                channel_a=a, channel_b=b, band=stats_left.band,
                z_left=float(stats_left.mean_z[a, b]), z_right=float(stats_right.mean_z[a, b]),
                se_left=float(stats_left.se[a, b]), se_right=float(stats_right.se[a, b]),
                t=t, df=df, p=p))
    return tests


def apply_fdr(tests, q: float = 0.05) -> list[PairTest]:
    """Fill the ``rejected`` flags of a batch of tests with a joint BH correction."""
    tests = list(tests)
    flags = bh_fdr([test.p for test in tests], q)
    return [replace(test, rejected=bool(flag)) for test, flag in zip(tests, flags)]
