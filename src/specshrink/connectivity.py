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

from .core import (FrequencyGrid, SpectralEstimate, _is_real, certified_inverse, check_real,
                   hermitian_cond, symmetrize)
from .errors import (DegenerateChannelError, DimensionError, DomainError,
                     EmptyBandError, InsufficientDataError, NearSingularError,
                     PipelineError, SpecshrinkError)
from .periodogram import _half_grid_dft
from .shrinkage import PipelineOptions, shrinkage_pipeline
from .timeseries import MultiTrialSeries
from .var import _lag_products

#: Condition-number guard for inverting spectral matrices.
INVERSION_COND_LIMIT = 1e12

CONNECTIVITY_KINDS = ("coherence", "partial_coherence")

#: Slack allowed above 1.0 for floating-point overshoot of coherence values.
UPPER_SLACK = 1e-10

#: The FDR level when none is given.
DEFAULT_FDR_Q = 0.05

#: Bytes up to which :func:`jackknife_band_stats` keeps every trial's lag-domain span-risk
#: transform ``f_own`` (``N * P*(P+1)/2 * T`` doubles: 19 MB at 120 x 12 x 256, 173 MB at
#: 40 x 32 x 1024); above it each replicate transforms its trials again.
F_OWN_CAP_BYTES = 1 << 25


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
        _check_values(vals)
        object.__setattr__(self, "values", vals)

    @property
    def n_channels(self) -> int:
        return self.values.shape[-1]


def _check_values(vals: np.ndarray):
    """:class:`DomainError` unless connectivity matrices are exactly symmetric with entries
    in [0, 1] (plus :data:`UPPER_SLACK`)."""
    if not np.array_equal(vals, np.swapaxes(vals, -1, -2)):
        raise DomainError("connectivity matrices must be exactly symmetric")
    if np.any(vals < 0.0) or np.any(vals > 1.0 + UPPER_SLACK):
        raise DomainError("connectivity values must lie in [0, 1] (plus tolerance)")


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


def partial_coherence(estimate: SpectralEstimate, *, band=None) -> ConnectivityResult:
    """Partial coherence from the inverse spectral matrix, per frequency or over a band.

    With ``g = f**-1`` (symmetrized), the partial coherence of channels p
    and q is ``|g_pq|**2 / (g_pp * g_qq)`` -- the squared modulus of the
    normalized negative inverse, measuring direct linear association after
    removing the other channels.  The diagonal is set to 1 by convention.
    The inversion guard is certified from the inverses themselves
    (:func:`~specshrink.core.certified_inverse`); the exact condition
    numbers are computed only when that bound does not certify.

    With ``band``, a Hz range ``(lo, hi)``, only the grid frequencies of
    :func:`band_mask` are inverted, guarded and averaged, and the result is their
    band average, bit for bit ``band_average(partial_coherence(estimate), band)``.
    A matrix outside the band is not inverted, so it cannot raise.

    Raises
    ------
    NearSingularError
        If some frequency's matrix (in the band, when one is given) is singular
        or has condition number above :data:`INVERSION_COND_LIMIT`; the message
        names its grid frequency index and omega.  No regularization is applied;
        a failure here should be addressed by a better-conditioned estimator.
    """
    grid = estimate.grid
    frequencies = np.arange(grid.n_frequencies)
    if band is not None:
        band = check_band(band)
        frequencies = frequencies[band_mask(grid, band)]
    mats = symmetrize(estimate.matrices if band is None else estimate.matrices[frequencies])
    inverse = certified_inverse(mats, INVERSION_COND_LIMIT)
    if inverse is None:  # the bound did not certify: compute the exact condition numbers
        conds = hermitian_cond(mats)
        worst = int(np.argmax(np.where(np.isfinite(conds), conds, np.inf)))
        if not np.all(np.isfinite(conds)) or conds[worst] > INVERSION_COND_LIMIT:
            index = int(frequencies[worst])
            raise NearSingularError(
                f"spectral matrix at frequency index {index} "
                f"(omega = {grid.omegas[index]:.6g} rad/sample) has condition number "
                f"{conds[worst]:.3g}, above the inversion guard {INVERSION_COND_LIMIT:.0e}")
        inverse = np.linalg.inv(mats)
    inv = symmetrize(inverse)
    diag = _real_diagonal(inv)
    if np.any(diag <= 0.0):
        index = int(frequencies[np.argwhere(diag <= 0.0)[0][0]])
        raise NearSingularError(
            f"inverse spectral matrix lost positivity at frequency index {index}; "
            "the estimate is too ill-conditioned for partial coherence")
    vals = np.abs(inv) ** 2 / (diag[:, :, None] * diag[:, None, :])
    di = np.arange(estimate.n_channels)
    vals[:, di, di] = 1.0
    if band is None:
        return ConnectivityResult(kind="partial_coherence", values=vals, grid=grid)
    _check_values(vals)
    return ConnectivityResult(kind="partial_coherence", values=vals.mean(axis=0), band=band)


def check_band(band) -> tuple[float, float]:
    """A band's ``(lo, hi)`` edges in Hz as floats: two real numbers (``int``, ``float`` or
    numpy numbers, not ``bool``), finite, with ``lo <= hi``.  Else :class:`DomainError`."""
    edges = tuple(band) if np.iterable(band) else ()
    if len(edges) != 2 or not all(_is_real(edge) for edge in edges):
        raise DomainError(f"a band is two numbers (lo, hi) in Hz, got {band!r}")
    lo, hi = float(edges[0]), float(edges[1])
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


class _TrialPieces:
    """Every piece of a leave-one-out replicate of ``series`` that depends on one trial
    alone, each formed once for all the trials: the trials' DFT rows, their VAR lag products
    (:func:`~specshrink.var._lag_products`, at the highest order asked so far) and their
    span-risk terms (:class:`~specshrink.smoothing._TrialTerms`, for the last span grid
    asked; ``f_own`` only while :data:`F_OWN_CAP_BYTES` holds it).  A replicate reads them
    through :meth:`drop`, and each of its sums over trials adds its kept trials' pieces in
    its own canonical order, so it is bit for bit the replicate that computes everything
    itself."""

    def __init__(self, series: MultiTrialSeries):
        self.series = series
        self.dfts = _half_grid_dft(series.values,
                                   FrequencyGrid(series.n_samples, series.sampling_rate))
        self.lags = None
        self.span = None  # (terms key, f_own or None, own_sq, own_ends, smoothed)

    def drop(self, index: int) -> MultiTrialSeries:
        """``series.drop_trial(index)`` holding its kept trials' rows of these pieces as its
        :attr:`~specshrink.timeseries.MultiTrialSeries.trial_pieces`."""
        replicate = self.series.drop_trial(index)
        kept = np.delete(np.arange(self.series.n_trials), index)
        object.__setattr__(replicate, "trial_pieces", _KeptPieces(self, kept))
        return replicate

    def lag_products(self, top: int, kept: np.ndarray) -> np.ndarray:
        """The kept trials' lag products up to lag ``top``, ``(len(kept), top+1, P, P)``."""
        if self.lags is None or self.lags.shape[1] <= top:
            self.lags = np.concatenate(list(_lag_products(
                self.series.values, np.arange(self.series.n_trials), top)))
        return self.lags[kept, :top + 1]

    def span_terms(self, terms, kept: np.ndarray):
        """Yield the kept trials' ``terms`` in order, transforming a trial again only where
        ``f_own`` is not kept."""
        if self.span is None or self.span[0] != terms.key:
            self.span = None  # drop the old grid's terms first
            n_trials = len(self.dfts)
            keep = n_trials * len(terms.rows) * terms.n_samples * 8 <= F_OWN_CAP_BYTES
            f_own = stacks = None
            for n, (trial_f_own, *rest) in enumerate(map(terms, self.dfts)):
                if stacks is None:
                    f_own = np.empty((n_trials,) + trial_f_own.shape) if keep else None
                    stacks = [np.empty((n_trials,) + term.shape) for term in rest]
                if keep:
                    f_own[n] = trial_f_own
                for stack, term in zip(stacks, rest):
                    stack[n] = term
            self.span = (terms.key, f_own, *stacks)
        _, f_own, own_sq, own_ends, smoothed = self.span
        for n in kept:
            yield (terms.transform(self.dfts[n])[1] if f_own is None else f_own[n],
                   own_sq[n], own_ends[n], smoothed[n])


class _KeptPieces:
    """What one replicate reads of :class:`_TrialPieces`: the pieces of its kept trials,
    indexed like the replicate's own trials."""

    def __init__(self, pieces: _TrialPieces, kept: np.ndarray):
        self.pieces, self.kept = pieces, kept

    def dfts(self) -> np.ndarray:
        return self.pieces.dfts[self.kept]

    def lag_products(self, top: int) -> np.ndarray:
        return self.pieces.lag_products(top, self.kept)

    def span_terms(self, terms):
        return self.pieces.span_terms(terms, self.kept)


def jackknife_band_stats(series: MultiTrialSeries, band: tuple[float, float],
                         options: PipelineOptions | None = None) -> BandStats:
    """Leave-one-trial-out jackknife of band-averaged partial coherence.

    For each left-out trial the full shrinkage pipeline is rerun on the
    remaining trials, partial coherence is inverted and averaged over the
    band's frequencies alone (``partial_coherence(..., band=band)``) and Fisher-z
    transformed; the function returns the replicate mean and the jackknife
    standard error ``sqrt((n-1)/n * sum((z_i - mean)**2))`` per channel
    pair.  Every sum over trials, in each replicate and over the replicates,
    runs in canonical trial order (:attr:`MultiTrialSeries.trial_order`), so
    permuting the trials changes no bit of the result.

    Each call first forms, once for all the trials, every piece that depends on
    one trial alone (:class:`_TrialPieces`): the DFTs, the VAR lag products and
    the span-risk terms.  Each replicate is ``series.drop_trial(i)`` holding its
    kept trials' pieces (:attr:`MultiTrialSeries.trial_pieces`) and computes the
    rest as any series does, its trial order and trial sums and all that follows,
    so it is bit for bit ``shrinkage_pipeline(series.drop_trial(i), options)``.
    The pieces live for the call only; nothing is kept on ``series``.

    Fewer than three trials raise :class:`InsufficientDataError` and a band that
    holds no Fourier frequency raises :class:`EmptyBandError`, both before any
    replicate runs; a replicate that fails raises :class:`PipelineError`
    whose stage names the left-out trial.  A replicate's spectral matrix that
    cannot be inverted outside the band raises nothing.
    """
    n = series.n_trials
    if n < 3:  # each replicate's pipeline needs two trials
        raise InsufficientDataError(f"the jackknife needs at least three trials, got {n}")
    band = check_band(band)
    band_mask(FrequencyGrid(series.n_samples, series.sampling_rate), band)
    pieces = _TrialPieces(series)
    replicates = []
    for leave_out in range(n):
        try:
            # one expression, so that no replicate's pipeline result outlives it
            vals = partial_coherence(shrinkage_pipeline(pieces.drop(leave_out), options).estimate,
                                     band=band).values.copy()
            np.fill_diagonal(vals, 0.0)
            replicates.append(fisher_z(vals))
        except SpecshrinkError as err:
            raise PipelineError(f"jackknife without trial {leave_out}", str(err)) from err
    stack = np.stack(replicates)[series.trial_order]
    mean_z = stack.sum(axis=0) / n
    se = np.sqrt((n - 1) / n * ((stack - mean_z) ** 2).sum(axis=0))
    return BandStats(mean_z=mean_z, se=se, n_trials=n, band=band)


#: Coefficients ``B_2k / (2k (2k - 1))``, k = 1..7, of Stirling's series for
#: ``log Gamma(z)`` (A&S 6.1.40); at z >= 10 the next term is below 3e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_tail(z: float) -> float:
    """``log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2)`` for ``z >= 10``."""
    w = 1.0 / (z * z)
    total = 0.0
    for coef in reversed(_STIRLING):
        total = total * w + coef
    return total / z


def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2) = log(pi)/2 - log(Gamma(a + 1/2) / Gamma(a))``.

    Below ``a = 10`` the ratio is a difference of ``math.lgamma`` values.  Above,
    that difference would keep only the absolute precision of ``lgamma(a)``
    (up to 6e-12 relative in a p-value at ``df = 2000``), so the ratio comes from
    Stirling's series written without large cancelling terms.
    """
    if a < 10.0:
        ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:
        ratio = ((a - 0.5) * math.log1p(0.5 / a) + 0.5 * math.log(a + 0.5) - 0.5
                 + _stirling_tail(a + 0.5) - _stirling_tail(a))
    return 0.5 * math.log(math.pi) - ratio


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction ``F`` of ``I_x(a, b) = x**a y**b F / (a B(a, b))``
    (A&S 26.5.8), given ``x`` and ``y = 1 - x`` each to full relative precision.

    Evaluated by the modified Lentz method on the fraction's odd contraction,
    whose partial denominators ``1 + d_2m + d_2m+1`` are rational in ``a, b``
    and whichever of ``x`` or ``y`` is below 1/2: near ``x = 1`` the usual form
    ``1 + d_k`` cancels to about ``y``.  For ``x < (a + 1) / (a + b + 2)``
    it converges within about 75 terms at any ``a + b`` up to 5e11.
    """
    tiny = 1e-300
    near_one = x > 0.5
    f = ((1.0 - b + (a + b) * y) if near_one else (a + 1.0 - (a + b) * x)) / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, 1000):
        k = a + 2 * m
        num = ((a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * x * x
               / ((k - 2.0) * (k - 1.0) ** 2 * k))
        q = k * k - 1.0
        n = a * a + a * b + 2 * a * m - a - b + 2 * m * m
        den = ((q - n) + n * y if near_one else q - n * x) / q
        d = den + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = den + num / c
        c = c if abs(c) > tiny else tiny
        step = c * d
        f *= step
        if abs(step - 1.0) <= 2.0 ** -52:
            break
    return 1.0 / f


def _t_two_sided(t: float, df: float) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom.

    The tail is the regularized incomplete beta function ``I_x(df/2, 1/2)``
    at ``x = df / (df + t**2)`` (A&S 26.7.1), from its continued fraction
    (:func:`_beta_fraction`), or as ``1 - I_y(1/2, df/2)`` at
    ``y = t**2 / (df + t**2)`` where that converges faster; ``y`` is formed
    from ``t**2``, not as ``1 - x``, so small ``|t|`` loses no digits.  The
    prefactor ``x**a y**b / B(a, b)`` is taken in logs from ``log1p``.
    ``df = inf`` gives the normal tail ``erfc(|t| / sqrt(2))``.
    """
    t = abs(t)
    if math.isinf(df):
        return math.erfc(t / math.sqrt(2.0))
    t2 = t * t
    if t2 == 0.0:
        return 1.0  # 1 - O(|t|) rounds to 1
    a = 0.5 * df
    # Once t**2 overflows, x = df / t**2 to far below one rounding.
    log_x = -math.log1p(t2 / df) if t2 < math.inf else math.log(df) - 2.0 * math.log(t)
    log_y = -math.log1p(df / t2)
    x, y = 1.0 / (1.0 + t2 / df), 1.0 / (1.0 + df / t2)
    front = math.exp(a * log_x + 0.5 * log_y - _log_beta_half(a))
    if t2 * (df + 2.0) > 3.0 * df:  # x < (a + 1) / (a + b + 2) with b = 1/2
        return front * _beta_fraction(a, 0.5, x, y) / a
    return 1.0 - front * _beta_fraction(0.5, a, y, x) / 0.5


def welch_t(stats_a, stats_b):
    """Welch two-sample t test from (mean, SE, n) summaries.

    Returns ``(t, df, p)`` with ``t = (mean_a - mean_b)/sqrt(se_a**2 +
    se_b**2)``, Welch-Satterthwaite degrees of freedom, and a two-sided
    p-value.  If both SEs are zero the statistic degenerates: equal means
    give ``(0, inf, 1)``; unequal means give ``(+-inf, inf, 0)``.

    The p-value is Student's t tail as a regularized incomplete beta
    function, evaluated with ``math`` alone by a continued fraction
    (:func:`_t_two_sided`).  For ``df`` in [1, 1e4] and ``|t|`` in
    [1e-8, 40] it is within 1e-12 relative of a 40-digit value wherever
    ``p >= 1e-300``; ``df`` is at most ``n_a + n_b - 2``.
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
    return float(t), float(df), _t_two_sided(float(t), float(df))


def check_fdr_level(q: float):
    """Raise :class:`DomainError` unless the FDR level ``q`` is a real number
    (:func:`~specshrink.core.check_real`) in (0, 1)."""
    if not 0.0 < check_real(q, "q") < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")


def bh_fdr(pvalues, q: float = DEFAULT_FDR_Q) -> np.ndarray:
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


def apply_fdr(tests, q: float = DEFAULT_FDR_Q) -> list[PairTest]:
    """Fill the ``rejected`` flags of a batch of tests with a joint BH correction."""
    tests = list(tests)
    flags = bh_fdr([test.p for test in tests], q)
    return [replace(test, rejected=bool(flag)) for test, flag in zip(tests, flags)]
