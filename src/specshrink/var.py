"""Multi-trial least-squares vector autoregression and its spectral matrix.

The VAR(K) model of a P-channel series is

    X(t) = sum_{k=1..K} coefs[k] X(t-k) + Z(t),  Z(t) ~ (0, noise_cov).

Fitting conditions on the first K observations of each trial (the
regression runs over t = K+1..T, effective length T' = T-K) and pools the
normal equations across trials.  The innovation covariance uses the
degrees-of-freedom divisor ``N*T' - P*K``.  Order selection minimizes a
Bayesian information criterion over candidate orders.

Both steps work from one quantity, the trial sum of the moments of the
stacked lags ``(X(t), X(t-1), ..., X(t-K))``: its lower-right block is the
regressor Gram matrix, its first block row the cross moments, and the
residual covariance is a Schur complement of the Gram block
(:func:`_regression`).  That moment is block-Toeplitz up to edge terms, so
it is assembled (:func:`_order_moment`) from one ``P x P`` sum per lag,
``C(d) = sum_n sum_t x_n(t) x_n(t-d).T``, less the products of the first
and the last ``K`` samples that order ``K``'s regression leaves out
(:func:`_lag_sums`); no stacked-lag product is formed.  The sums visit the
trials in the series'
:attr:`~specshrink.timeseries.MultiTrialSeries.trial_order`, their byte
order, which the series keeps and which is the same sequence of trials for
any input order, so fits and criterion values are bit-identical under any
permutation of the trials.  No sum depends on the highest order formed, so
the order scan, which assembles every candidate from one set of sums,
scores each order from the moment :func:`fit_var` forms for it and hands
:func:`fit_var` the chosen order's moment, so the fit reads no trial again.
The scan takes each order's log determinant from the last ``P`` pivots of
one Cholesky factor of that moment (:func:`_cholesky_logdet`), which agrees
with the fitted covariance's to rounding; only the chosen order is solved.
An order that no factor can score is fitted by :func:`fit_var` from its
moment instead, and scored by the ``slogdet`` of the fitted covariance.

Two condition-number guards protect the linear algebra: each candidate's
regressor Gram matrix (warn above :data:`GRAM_COND_WARN`, fail above
:data:`GRAM_COND_FAIL`) and the transfer matrix at every frequency (fail
above :data:`TRANSFER_COND_LIMIT`).  Both are first certified by a bound:
one Cholesky factor of the top order's Gram, shifted down by twice the
margin the bound needs, bounds every order's condition
(:func:`_grams_certified`), and the inverse the spectrum needs anyway bounds
each transfer matrix's (:func:`~specshrink.core.certified_inverse`).  Exact
condition numbers are computed only where a bound does not certify (the scan
then fits every order with :func:`fit_var`, which checks its Gram exactly),
so every warning and error is the one the exact guard gives.
"""

import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (FrequencyGrid, SpectralEstimate, certified_inverse, check_count,
                   hermitian_cond, symmetrize, validate_spectral)
from .errors import (DimensionError, DomainError, InsufficientDataError,
                     NearSingularError, RankDeficiencyError)
from .timeseries import MultiTrialSeries

#: Condition-number thresholds for the regressor Gram matrix.
GRAM_COND_WARN = 1e10
GRAM_COND_FAIL = 1e14

#: Condition-number guard for inverting the transfer matrix per frequency.
TRANSFER_COND_LIMIT = 1e12


@dataclass(frozen=True)
class VarModel:
    """Coefficients and innovation covariance of a fitted (or specified) VAR.

    Attributes
    ----------
    coefs : ndarray
        Lag coefficients, shape ``(order, P, P)``; ``coefs[k-1]`` multiplies
        ``X(t-k)``.  An empty first axis is a pure white-noise model.
    noise_cov : ndarray
        Innovation covariance, shape ``(P, P)``, symmetric PSD.
    """

    coefs: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        coefs = np.ascontiguousarray(self.coefs, dtype=float)
        noise = np.ascontiguousarray(self.noise_cov, dtype=float)
        if coefs.ndim != 3 or coefs.shape[1] != coefs.shape[2]:
            raise DimensionError(f"coefs must be (order, P, P), got {coefs.shape}")
        p = coefs.shape[1]
        if noise.shape != (p, p):
            raise DimensionError(f"noise_cov must be ({p}, {p}), got {noise.shape}")
        if not (np.all(np.isfinite(coefs)) and np.all(np.isfinite(noise))):
            raise DomainError("model parameters contain non-finite entries")
        health = validate_spectral(noise)
        if not health.hermitian_ok:
            raise DomainError("noise_cov is not symmetric")
        if not health.psd_ok:
            raise DomainError("noise_cov is not positive semidefinite")
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "noise_cov", noise)

    @property
    def order(self) -> int:
        return self.coefs.shape[0]

    @property
    def n_channels(self) -> int:
        return self.coefs.shape[1]

    def companion(self) -> np.ndarray:
        """The ``(order*P, order*P)`` companion matrix of the lag recursion."""
        k, p = self.order, self.n_channels
        if k == 0:
            return np.zeros((0, 0))
        top = self.coefs.transpose(1, 0, 2).reshape(p, k * p)
        below = np.eye((k - 1) * p, k * p)
        return np.vstack([top, below])

    def spectral_radius(self) -> float:
        """Largest eigenvalue magnitude of the companion matrix; < 1 means stable."""
        if self.order == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.companion()))))

    @property
    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0


def _sample_shortfall(shape: tuple[int, int, int], order: int) -> str | None:
    """Why a VAR of ``order`` has too few regression samples for data of
    ``shape`` ``(N, P, T)``, or None if it has enough."""
    n_trials, n_channels, n_samples = shape
    eff = n_samples - order
    if eff < 1:
        return f"order {order} leaves no regression samples at T={n_samples}"
    n_params = n_channels * order
    if n_trials * eff <= n_params:
        return f"need n_trials*(T-order) > P*order; got {n_trials}*{eff} <= {n_params}"
    return None


def _gram_cond(gram: np.ndarray) -> float:
    """The condition number of a regressor Gram matrix; :class:`RankDeficiencyError`
    if it exceeds :data:`GRAM_COND_FAIL`."""
    cond = hermitian_cond(gram)
    if not np.isfinite(cond) or cond > GRAM_COND_FAIL:
        raise RankDeficiencyError(
            f"regressor Gram matrix condition number {cond:.3g} exceeds {GRAM_COND_FAIL:.0e}; "
            "check for constant or duplicated channels")
    return cond


def _regression(moment: np.ndarray, n_channels: int, dof: int):
    """``(coef_flat, noise)`` of the regression in a lag moment ``(P*(k+1), P*(k+1))``: the
    ``(P, P*k)`` coefficients ``(G**-1 C.T).T``, with ``G`` the regressor Gram (the lower-right
    block) and ``C`` the cross moments, blocked by lag, X(t-1) first, and the symmetrized Schur
    complement ``(S_yy - C G**-1 C.T) / dof``.  An exactly fitted channel leaves only rounding
    error there, so negative eigenvalues are set to zero.  :func:`fit_var` checks ``G``'s
    condition first (:func:`_gram_cond`); a subnormal Gram can pass it and solve to values
    that are not finite, which raise :class:`RankDeficiencyError`."""
    gram, cross = moment[n_channels:, n_channels:], moment[:n_channels, n_channels:]
    with np.errstate(all="ignore"):
        solved = np.linalg.solve(gram, cross.T)
        noise = (moment[:n_channels, :n_channels] - cross @ solved) / dof
    if not (np.all(np.isfinite(solved)) and np.all(np.isfinite(noise))):
        raise RankDeficiencyError(
            "the VAR regression gave non-finite values; the input's scale may be the cause")
    noise = 0.5 * (noise + noise.T)
    eigs, vecs = np.linalg.eigh(noise)
    if eigs[0] < 0.0:
        noise = (vecs * np.maximum(eigs, 0.0)) @ vecs.T
        noise = 0.5 * (noise + noise.T)
    return solved.T, noise


def fit_var(series: MultiTrialSeries, order: int, *, moment: np.ndarray | None = None
            ) -> VarModel:
    """Pooled least-squares VAR fit across all trials.

    Parameters
    ----------
    series : MultiTrialSeries
        Data with ``N*(T-order) > P*order`` effective observations.
    order : int
        Number of lags, at least 1.
    moment : ndarray, optional
        The series' lag moment for ``order``, ``(P*(order+1), P*(order+1))``,
        as :func:`select_var_order` has formed it; the fit then reads no trial.
        Formed here when omitted, bit for bit the same.

    Returns
    -------
    VarModel
        Coefficients from the pooled normal equations and the residual
        covariance with divisor ``N*(T-order) - P*order``.

    Notes
    -----
    The normal equations and the residual covariance come from one lag
    moment (:func:`_order_moment`), assembled from per-lag and edge sums over
    the trials in the order the series keeps
    (:attr:`~specshrink.timeseries.MultiTrialSeries.trial_order`), by
    :func:`_regression`.  So permuting the trials leaves the fit bit-identical,
    and its moment is bit for bit the one the order scan scores for ``order``.
    """
    order = check_count(order, "VAR order")
    if (shortfall := _sample_shortfall(series.values.shape, order)) is not None:
        raise InsufficientDataError(shortfall)
    n_trials, n_channels, n_samples = series.values.shape
    if moment is None:
        moment = _order_moment(_series_lag_sums(series, order), order)
    elif moment.shape != (n_channels * (order + 1),) * 2:
        raise DimensionError(f"an order-{order} lag moment of {n_channels} channels must be "
                             f"{(n_channels * (order + 1),) * 2}, got {moment.shape}")
    dof = n_trials * (n_samples - order) - n_channels * order
    cond = _gram_cond(moment[n_channels:, n_channels:])
    coef_flat, noise = _regression(moment, n_channels, dof)
    if cond > GRAM_COND_WARN:  # warn at the first frame outside this module
        level, frame = 2, sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__") == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(f"regressor Gram matrix is ill-conditioned (cond {cond:.3g})",
                      RuntimeWarning, stacklevel=level)
    coefs = coef_flat.reshape(n_channels, order, n_channels).transpose(1, 0, 2)
    return VarModel(coefs=coefs, noise_cov=noise)


@dataclass(frozen=True)
class OrderSelection:
    """Chosen VAR order, the information-criterion value per candidate, and
    the model fitted at the chosen order."""

    criterion: tuple[float, ...]
    model: VarModel

    @property
    def order(self) -> int:
        """The chosen order, that of :attr:`model`."""
        return self.model.order


#: Bytes of trial data and lag products that each block of :func:`_lag_sums` holds at once.
_BLOCK_BYTES = 1 << 19


@lru_cache(maxsize=None)
def _edge_index(top: int):
    """``(head, tail)``, each ``(top, top+1)``: entry ``[a, d]`` is where :func:`_lag_sums` finds
    the pair of edge samples ``(a, a - d)`` (head) or ``(a, a + d)`` (tail) among the ``top**2``
    pairs flattened, or ``top**2``, the zero block, where there is no such pair."""
    later, lag = np.arange(top)[:, None], np.arange(top + 1)
    index = tuple(np.where((other >= 0) & (other < top), later * top + other, top * top)
                  for other in (later - lag, later + lag))
    for array in index:  # shared by every call
        array.flags.writeable = False
    return index


def _lag_products(values: np.ndarray, trials, top: int):
    """Yield, block by block in the order of ``trials``, each trial's products
    ``sum_{s=d..T-1} x_n(s) x_n(s-d).T`` for ``d = 0..top``, shape ``(n, top+1, P, P)``: one
    ``P x P`` product per trial and lag, over blocks of about :data:`_BLOCK_BYTES` of trials.
    Each product depends on its trial and lag alone, not on ``top`` or the block."""
    n_channels, n_samples = values.shape[1:]
    block = max(1, _BLOCK_BYTES // (8 * n_channels * (n_samples + (top + 1) * n_channels)))
    for lo in range(0, len(trials), block):
        chunk = values[trials[lo:lo + block]]
        prods = np.empty((len(chunk), top + 1, n_channels, n_channels))
        for lag in range(top + 1):
            np.matmul(chunk[:, :, lag:], chunk[:, :, :n_samples - lag].swapaxes(1, 2),
                      out=prods[:, lag])
        yield prods


def _lag_sums(values: np.ndarray, trials: np.ndarray, top: int, products=None):
    """The sums over ``trials`` that every lag moment up to order ``top`` is assembled from
    (:func:`_order_moment`): ``(lags, heads, tails)``.

    ``lags[d]`` is ``C(d) = sum_n sum_{s=d..T-1} x_n(s) x_n(s-d).T``, the trials'
    :func:`_lag_products` added in the order of ``trials``, one trial after another.
    ``products``, when given, holds every trial's products, ``(N, top+1, P, P)`` indexed like
    ``values``, as :func:`_lag_products` forms them; the sum then forms none.
    ``heads[m, d]`` is ``sum_{s=d..m-1} sum_n x_n(s) x_n(s-d).T`` and ``tails[i, d]`` is
    ``sum_{s=T-i..T-1} sum_n x_n(s) x_n(s-d).T``, both ``(top+1, top+1, P, P)``: prefix and
    suffix sums along the block diagonals of the trial-summed products of the first and of
    the last ``top`` samples, each one ``P x N`` by ``N x P`` product over ``trials`` in order.
    No entry depends on ``top``: each is the same sum of the same products for any ``top``
    that has it.
    """
    n_trials, n_channels, n_samples = values.shape
    lags = np.zeros((top + 1, n_channels, n_channels))
    if products is None:
        per_trial = (prod for block in _lag_products(values, trials, top) for prod in block)
    else:
        per_trial = (products[n] for n in trials)
    for prod in per_trial:
        lags += prod
    sums = []
    # the first samples forward and the last samples backward from T-1, so that in both the
    # pair (a, b) is sum_n e_n(a) e_n(b).T, and lag d takes the pairs whose first sample is
    # d steps after the second
    edges = (values[trials, :, :top], np.flip(values[trials, :, n_samples - top:], axis=2))
    for edge, index in zip(edges, _edge_index(top)):
        rows = np.ascontiguousarray(edge.transpose(2, 1, 0))  # (top, P, N)
        pairs = np.empty((top * top + 1, n_channels, n_channels))
        np.matmul(rows[:, None], rows.swapaxes(1, 2)[None, :],
                  out=pairs[:-1].reshape(top, top, n_channels, n_channels))
        pairs[-1] = 0.0
        steps = pairs[index]
        total = np.empty((top + 1, top + 1, n_channels, n_channels))
        total[0] = 0.0
        for m in range(top):  # faster than np.cumsum along this axis, and as sequential
            np.add(total[m], steps[m], out=total[m + 1])
        sums.append(total)
    return lags, *sums


def _series_lag_sums(series: MultiTrialSeries, top: int):
    """:func:`_lag_sums` over the series' :attr:`~.MultiTrialSeries.trial_order`; a replicate
    made by ``parent.leave_one_out()`` reads its rows of ``parent``'s :func:`_lag_products` up
    to ``top``, formed once for all the replicates of that loop
    (:meth:`~.MultiTrialSeries.shared`)."""
    shared = series.shared("lag products", top, lambda parent: np.concatenate(list(
        _lag_products(parent.values, np.arange(parent.n_trials), top))))
    return _lag_sums(series.values, series.trial_order, top,
                     None if shared is None else shared[0][shared[1]])


@lru_cache(maxsize=None)
def _block_index(order: int):
    """``(rows, cols, lags, heads)`` of the upper blocks ``(i, j)``, ``i <= j``, of an
    order's lag moment: ``lags = j - i`` and ``heads = order - i``."""
    rows, cols = np.triu_indices(order + 1)
    index = rows, cols, cols - rows, order - rows
    for array in index:  # shared by every call
        array.flags.writeable = False
    return index


def _order_moment(sums, order: int) -> np.ndarray:
    """Order ``order``'s lag moment ``(P*(order+1), P*(order+1))`` from :func:`_lag_sums` of a
    ``top >= order``: the trial sum of the moments of the stacked lags
    ``z(t) = (X(t), X(t-1), ..., X(t-order))`` over ``t = order..T-1``.

    Block ``(i, j)``, ``i <= j``, ``d = j - i``, is
    ``C(d) - sum_{s=d..order-1-i} x(s) x(s-d).T - sum_{s=T-i..T-1} x(s) x(s-d).T``, the
    products that ``t = order..T-1`` leaves out of ``C(d)`` at the head and at the tail; block
    ``(j, i)`` is its transpose, so the moment is exactly symmetric.  The result depends only
    on the sums' entries up to ``order``, so it is the same for every ``top``.
    """
    lags, heads, tails = sums
    n_channels = lags.shape[1]
    rows, cols, lag, head = _block_index(order)
    upper = lags[lag] - heads[head, lag] - tails[rows, lag]
    moment = np.empty((order + 1, n_channels, order + 1, n_channels))
    moment[cols, :, rows] = upper.swapaxes(1, 2)
    moment[rows, :, cols] = upper
    return moment.reshape(n_channels * (order + 1), n_channels * (order + 1))


def _lag_moments(series: MultiTrialSeries, top: int):
    """Yield ``(k, moment)`` for ``k = 1..top``: the trial sum of the moments of the stacked
    lags ``z_k(t) = (X(t), X(t-1), ..., X(t-k))`` over ``t = k..T-1``, ``(P*(k+1), P*(k+1))``.

    Every order is assembled (:func:`_order_moment`) from one set of per-lag and edge sums
    (:func:`_lag_sums`) over the series' :attr:`~.MultiTrialSeries.trial_order`, so no
    stacked-lag product is formed.  The trials are summed in the same sequence whatever order
    they come in, so no moment depends on the trial order, every moment is exactly symmetric,
    and order ``k``'s moment is bit for bit the one :func:`fit_var` forms for order ``k``.
    """
    sums = _series_lag_sums(series, top)
    for k in range(1, top + 1):
        yield k, _order_moment(sums, k)


def _grams_certified(values: np.ndarray, top_moment: np.ndarray, top: int) -> bool:
    """Whether a bound puts every candidate order's Gram condition 16 times below
    :data:`GRAM_COND_WARN`, from the top order's moment alone.

    Order ``k``'s Gram is a leading block of the top order's Gram ``G`` plus the
    Gram part of the moments of its stacked lags ``z_k(t)`` at ``t = k..top-1``,
    which is PSD with a 2-norm of at most ``head_mass = ||heads||_F**2``, the sum
    of ``||z_top(t)||**2`` over ``t < top`` with samples before a trial's start
    taken as zero.  By interlacing, its smallest eigenvalue is at least ``G``'s,
    and by Weyl its largest is at most ``G``'s plus that norm, so
    ``cond_k <= (||G||_F + head_mass) / lmin(G)``.  That is below
    ``GRAM_COND_WARN / 16`` once ``lmin(G) > tau = 16 * (||G||_F + head_mass) /
    GRAM_COND_WARN``, and one Cholesky factor of ``G - 2*tau*I`` proves it: the
    factor exists only if ``lmin(G) > 2*tau`` less its backward error, about
    ``n**2 * eps * ||G||``, which is far below ``tau``.  Where the factor fails,
    the bound does not certify, and each order's exact :func:`_gram_cond` in its
    :func:`fit_var` decides, so where it holds no order's fit would warn or raise.
    """
    n_channels = values.shape[1]
    lead = values[:, :, :top]
    gram = top_moment[n_channels:, n_channels:]
    with np.errstate(all="ignore"):
        # sample t < top of a trial sits in the head rows of top - t lags
        head_mass = np.einsum("nct,nct,t->", lead, lead, np.arange(top, 0, -1.0))
        tau = 16.0 * (np.linalg.norm(gram) + head_mass) / GRAM_COND_WARN
    if not np.isfinite(tau):  # numpy's factor does not raise on entries that are not finite
        return False
    try:
        np.linalg.cholesky(gram - 2.0 * tau * np.eye(len(gram)))
    except np.linalg.LinAlgError:
        return False
    return True


def _pivot_floor(size: int) -> float:
    """The share of its diagonal entry below which a trailing pivot**2 of a ``size x size``
    lag moment's Cholesky factor may be rounding alone, where the regressor Gram ``G`` has
    a condition number of at most ``GRAM_COND_WARN / 16``.

    The factor is exact for the moment plus some ``E`` with
    ``|E_ij| <= g * sqrt(M_ii * M_jj)``, ``g = (size+1)*eps``.  A response's pivot**2 is its
    residual sum of squares ``S_jj`` after the regression on ``G``, whose coefficients
    ``b`` have ``b' G b <= M_jj``, so ``E`` moves ``S_jj`` by at most
    ``g * M_jj * (1 + sqrt(size * cond(G)))**2``.
    """
    eps = np.finfo(float).eps
    return (size + 1) * eps * (1.0 + np.sqrt(size * GRAM_COND_WARN / 16)) ** 2


def _cholesky_logdet(moment: np.ndarray, n_channels: int) -> float | None:
    """``log det`` of the Schur complement ``S_yy - C G**-1 C.T`` of a lag moment, as twice
    the sum of the logs of the last ``P`` pivots of one Cholesky factor of the moment
    with the ``X(t)`` block last, or None where the factor fails or a trailing pivot**2 is
    within :func:`_pivot_floor` of zero, where the factor cannot tell it from rounding."""
    reverse = moment[::-1, ::-1]
    try:
        factor = np.linalg.cholesky(reverse)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(factor)[-n_channels:]
    floor = _pivot_floor(len(moment)) * np.diagonal(reverse)[-n_channels:]
    with np.errstate(all="ignore"):
        logdet = 2.0 * np.sum(np.log(pivots))
        scored = np.isfinite(logdet) and np.all(pivots * pivots > floor)
    return logdet if scored else None


def select_var_order(series: MultiTrialSeries, max_order: int) -> OrderSelection:
    """Pick the VAR order in ``1..max_order`` minimizing the BIC.

    The criterion for order ``k`` is
    ``log det(noise_cov(k)) + log(N*T)/(N*T) * k * P**2``; ties break toward
    the smaller order, and a covariance whose determinant is not positive
    scores ``inf``.  Every order is scored from one set of per-lag and edge
    sums over the trials (:func:`_lag_moments`): ``noise_cov(k)`` is the Schur
    complement ``(S_yy - C G**-1 C.T) / (N*(T-k) - P*k)`` of the order's
    moment, the covariance :func:`fit_var` fits from that moment.  Where one
    shifted Cholesky factor of the top order's Gram certifies every order's
    Gram condition below the warning level (:func:`_grams_certified`), each
    order's ``log det`` is twice the sum of the logs of the last ``P`` pivots
    of one Cholesky factor of its moment with the ``X(t)`` block last, less
    ``P * log(N*(T-k) - P*k)`` (:func:`_cholesky_logdet`): no solve,
    eigendecomposition or ``slogdet``, and it agrees with the fitted
    covariance's ``slogdet`` to rounding.  Every other order (all of them where
    the certificate fails, and any whose factor fails or has a trailing pivot
    within a rounding bound of zero, :func:`_pivot_floor`) is fitted by
    :func:`fit_var` from its moment and scored by the ``slogdet`` of its
    covariance, so the warnings and errors are those of fitting every order,
    in ascending order.  The moments are trial sums in canonical trial order,
    so the scan is bit-identical under any permutation of the trials.  The
    selection carries the chosen order's model: the scan's fit where it has
    one, else one :func:`fit_var` of the scan's moment, which reads no trial.
    """
    max_order = check_count(max_order, "max_order")
    values = series.values
    n_trials, n_channels, n_samples = values.shape
    total = n_trials * n_samples
    penalty_unit = np.log(total) / total * n_channels ** 2
    top = 0
    while top < max_order and _sample_shortfall(values.shape, top + 1) is None:
        top += 1
    moments = list(_lag_moments(series, top))
    certified = bool(moments) and _grams_certified(values, moments[-1][1], top)
    criterion, fits = [], {}
    for k, moment in moments:
        logdet = _cholesky_logdet(moment, n_channels) if certified else None
        if logdet is not None:
            dof = n_trials * (n_samples - k) - n_channels * k
            criterion.append(logdet - n_channels * np.log(dof) + penalty_unit * k)
            continue
        fits[k] = fit_var(series, k, moment=moment)
        sign, logdet = np.linalg.slogdet(fits[k].noise_cov)
        criterion.append(np.inf if sign <= 0 else logdet + penalty_unit * k)
    if top < max_order:
        raise InsufficientDataError(_sample_shortfall(values.shape, top + 1))
    order = 1 + int(np.argmin(criterion))
    if order not in fits:
        fits[order] = fit_var(series, order, moment=moments[order - 1][1])
    return OrderSelection(criterion=tuple(criterion), model=fits[order])


def var_spectrum(model: VarModel, grid: FrequencyGrid) -> SpectralEstimate:
    """Spectral density matrix of a VAR model on a frequency grid.

    Evaluates ``(2*pi)**-1 * A(w)**-1 noise_cov A(w)**-H`` with the transfer
    matrix ``A(w) = I - sum_k coefs[k] exp(-1j*w*k)`` at every grid
    frequency.  The condition guard is certified from the inverses
    themselves (:func:`~specshrink.core.certified_inverse`); the exact
    condition numbers, one SVD per frequency, are computed only when that
    bound does not certify.

    Raises
    ------
    NearSingularError
        If ``A(w)`` is singular or has condition number above 1e12 at some
        frequency (a root on or near the unit circle).
    """
    order, p = model.order, model.n_channels
    # exp(-1j*w*k) as powers of FrequencyGrid.phase, so the Nyquist transfer is exactly real
    phase = np.cumprod(np.repeat(grid.phase[:, None], order, axis=1), axis=1)  # (n_freq, order)
    transfer = np.eye(p) - np.einsum("jk,kpq->jpq", phase, model.coefs.astype(complex))
    inv = certified_inverse(transfer, TRANSFER_COND_LIMIT)
    if inv is None:  # the bound did not certify: compute the exact condition numbers
        conds = np.linalg.cond(transfer)
        worst = int(np.argmax(conds))
        if not np.all(np.isfinite(conds)) or conds[worst] > TRANSFER_COND_LIMIT:
            raise NearSingularError(
                f"VAR transfer matrix is near singular at frequency index {worst} "
                f"(omega = {grid.omegas[worst]:.6g} rad/sample, condition {conds[worst]:.3g}); "
                "the model has a root at or near the unit circle")
        inv = np.linalg.inv(transfer)
    spec = (inv @ model.noise_cov.astype(complex)) @ np.conj(inv).transpose(0, 2, 1)
    spec /= 2.0 * np.pi
    return SpectralEstimate(grid, symmetrize(spec), tag="var")
