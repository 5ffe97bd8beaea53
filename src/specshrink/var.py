"""Multi-trial least-squares vector autoregression and its spectral matrix.

The VAR(K) model of a P-channel series is

    X(t) = sum_{k=1..K} coefs[k] X(t-k) + Z(t),  Z(t) ~ (0, noise_cov).

Fitting conditions on the first K observations of each trial (the
regression runs over t = K+1..T, effective length T' = T-K) and pools the
normal equations across trials.  The innovation covariance uses the
degrees-of-freedom divisor ``N*T' - P*K``.  Order selection minimizes a
Bayesian information criterion over candidate orders.  It scores every
candidate from one pass over the trials: each order's normal equations are
a leading block of the moments of the stacked lags, and the criterion needs
only the log-determinant of the residual covariance, a Schur complement of
that block.  Only the chosen order is then fitted by :func:`fit_var`.

Both reductions over trials are free of the trial order.  :func:`fit_var`
sums the per-trial moments with :func:`~specshrink.core.exact_sum`, which is
correctly rounded.  The order scan, whose moments only rank the orders, sums
them with BLAS products in :func:`~specshrink.core.canonical_trial_order`,
which visits the same sequence of trials for any input order.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (FrequencyGrid, SpectralEstimate, canonical_trial_order, check_count,
                   exact_sum, hermitian_cond, symmetrize, validate_spectral)
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


def _regression_blocks(values: np.ndarray, order: int):
    """Response ``X(t)`` and stacked lagged regressors for one trial.

    Returns ``(response, regressors)`` with shapes ``(P, T')`` and
    ``(P*order, T')``; regressor rows are blocked by lag, X(t-1) first.
    """
    n_samples = values.shape[1]
    response = values[:, order:]
    regressors = np.concatenate(
        [values[:, order - k:n_samples - k] for k in range(1, order + 1)], axis=0)
    return response, regressors


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


def _warn_if_ill_conditioned(cond: float):
    """Warn, at the caller of the public function, above :data:`GRAM_COND_WARN`."""
    if cond > GRAM_COND_WARN:
        warnings.warn(f"regressor Gram matrix is ill-conditioned (cond {cond:.3g})",
                      RuntimeWarning, stacklevel=3)


def fit_var(series: MultiTrialSeries, order: int) -> VarModel:
    """Pooled least-squares VAR fit across all trials.

    Parameters
    ----------
    series : MultiTrialSeries
        Data with ``N*(T-order) > P*order`` effective observations.
    order : int
        Number of lags, at least 1.

    Returns
    -------
    VarModel
        Coefficients from the pooled normal equations and the residual
        covariance with divisor ``N*(T-order) - P*order``.

    Notes
    -----
    Per-trial moment matrices are reduced with exactly rounded summation,
    so permuting trial order leaves the fit bit-identical.
    """
    order = check_count(order, "VAR order")
    if (shortfall := _sample_shortfall(series.values.shape, order)) is not None:
        raise InsufficientDataError(shortfall)
    n_trials, n_channels, n_samples = series.values.shape
    eff = n_samples - order
    n_params = n_channels * order

    # Trials stream through two passes, so only one trial's regressor block
    # is alive at a time; the per-trial moments are stacked for exact_sum.
    # ``regs @ regs.T`` is computed as a symmetric rank-k update, so each
    # per-trial Gram is exactly symmetric: sum its upper triangle and mirror.
    upper = np.triu_indices(n_params)
    grams = np.empty((n_trials, upper[0].size))
    crosses = np.empty((n_trials, n_channels, n_params))
    for n, values in enumerate(series.values):
        resp, regs = _regression_blocks(values, order)
        grams[n] = (regs @ regs.T)[upper]
        crosses[n] = resp @ regs.T
    gram = np.empty((n_params, n_params))
    gram[upper] = exact_sum(grams)
    gram.T[upper] = gram[upper]
    cross = exact_sum(crosses)
    del grams, crosses

    _warn_if_ill_conditioned(_gram_cond(gram))
    coef_flat = np.linalg.solve(gram, cross.T).T  # (P, P*order)

    resid_ssps = np.empty((n_trials, n_channels, n_channels))
    for n, values in enumerate(series.values):
        resp, regs = _regression_blocks(values, order)
        r = resp - coef_flat @ regs
        # ``.copy()`` keeps this a general matrix product; ``r @ r.T`` would
        # switch to a symmetric rank-k update and change the low bits of
        # ``noise_cov``.
        resid_ssps[n] = r @ r.copy().T
    resid_ssp = exact_sum(resid_ssps)
    noise = resid_ssp / (n_trials * eff - n_params)
    coefs = coef_flat.reshape(n_channels, order, n_channels).transpose(1, 0, 2)
    return VarModel(coefs=coefs, noise_cov=0.5 * (noise + noise.T))


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


def _lag_moments(values: np.ndarray, top: int):
    """Yield ``(k, moment)`` for ``k = 1..top``: the trial sum of the moments of the stacked
    lags ``z_k(t) = (X(t), X(t-1), ..., X(t-k))`` over ``t = k..T-1``, ``(P*(k+1), P*(k+1))``.

    The trials are summed in :func:`~specshrink.core.canonical_trial_order`.  One pass adds
    each trial's products of ``z_top(t)`` for ``t >= top`` into one buffer, whose leading
    block is order ``k``'s sum over those samples; order ``k`` then adds the products of its
    ``top - k`` head samples ``t = k..top-1``, stacked over the trials in the same order.
    Every sum visits the same sequence of trials whatever order they come in, so no moment
    depends on the trial order.  Each product is a symmetric rank-k update, so every moment
    is exactly symmetric.
    """
    n_trials, n_channels, n_samples = values.shape
    dim = n_channels * (top + 1)
    trials = canonical_trial_order(values)
    tail = np.zeros((dim, dim))
    for n in trials:
        x = values[n]
        lagged = np.concatenate([x[:, top - j:n_samples - j] for j in range(top + 1)])
        tail += lagged @ lagged.T
    # row t of a trial's head is z_top(t) for t < top, zero before the trial starts
    lead = values[trials, :, :top]
    heads = np.zeros((n_trials, top, dim))
    for j in range(top):
        heads[:, j:, j * n_channels:(j + 1) * n_channels] = lead[:, :, :top - j].swapaxes(1, 2)
    for k in range(1, top + 1):
        size = n_channels * (k + 1)
        moment = tail[:size, :size].copy()
        if k < top:
            head = heads[:, k:, :size].reshape(-1, size)
            moment += head.T @ head
        yield k, moment


def select_var_order(series: MultiTrialSeries, max_order: int) -> OrderSelection:
    """Pick the VAR order in ``1..max_order`` minimizing the BIC.

    The criterion for order ``k`` is
    ``log det(noise_cov(k)) + log(N*T)/(N*T) * k * P**2``; ties break toward
    the smaller order, and a covariance whose determinant is not positive
    scores ``inf``.  Every order is scored from one pass over the trials
    (:func:`_lag_moments`): ``noise_cov(k)`` is the Schur complement
    ``(S_yy - C G**-1 C.T) / (N*(T-k) - P*k)`` of the order's moment, with
    ``G**-1 C.T`` solved against the regressor Gram ``G``.  Each order keeps
    :func:`fit_var`'s sample-size and Gram-condition checks, and the moments
    are trial sums in canonical trial order, so the scan is bit-identical
    under any permutation of the trials.  Only the chosen order is then
    fitted by :func:`fit_var`, and the selection carries that model, so
    callers need not refit it.  The criterion values agree with scoring each
    :func:`fit_var` model to within rounding.
    """
    max_order = check_count(max_order, "max_order")
    n_trials, n_channels, n_samples = series.values.shape
    total = n_trials * n_samples
    penalty_unit = np.log(total) / total * n_channels ** 2
    top = 0
    while top < max_order and _sample_shortfall(series.values.shape, top + 1) is None:
        top += 1
    criterion, conds, order = [], [], None
    try:
        for k, moment in _lag_moments(series.values, top):
            gram, cross = moment[n_channels:, n_channels:], moment[:n_channels, n_channels:]
            conds.append(_gram_cond(gram))
            schur = moment[:n_channels, :n_channels] - cross @ np.linalg.solve(gram, cross.T)
            noise = schur / (n_trials * (n_samples - k) - n_channels * k)
            sign, logdet = np.linalg.slogdet(0.5 * (noise + noise.T))
            criterion.append(np.inf if sign <= 0 else logdet + penalty_unit * k)
        if top < max_order:
            raise InsufficientDataError(_sample_shortfall(series.values.shape, top + 1))
        order = 1 + int(np.argmin(criterion))
    finally:  # warn as fitting every order would, also when the scan raises
        for k, cond in enumerate(conds, 1):
            if k != order:  # fit_var warns for the chosen order
                _warn_if_ill_conditioned(cond)
    return OrderSelection(criterion=tuple(criterion), model=fit_var(series, order))


def var_spectrum(model: VarModel, grid: FrequencyGrid) -> SpectralEstimate:
    """Spectral density matrix of a VAR model on a frequency grid.

    Evaluates ``(2*pi)**-1 * A(w)**-1 noise_cov A(w)**-H`` with the transfer
    matrix ``A(w) = I - sum_k coefs[k] exp(-1j*w*k)`` at every grid
    frequency.

    Raises
    ------
    NearSingularError
        If ``A(w)`` is singular or has condition number above 1e12 at some
        frequency (a root on or near the unit circle).
    """
    order, p = model.order, model.n_channels
    lags = np.arange(1, order + 1)
    phase = np.exp(-1j * np.outer(grid.omegas, lags))  # (n_freq, order)
    transfer = np.eye(p) - np.einsum("jk,kpq->jpq", phase, model.coefs.astype(complex))
    conds = np.linalg.cond(transfer)
    worst = int(np.argmax(conds))
    if not np.all(np.isfinite(conds)) or conds[worst] > TRANSFER_COND_LIMIT:
        raise NearSingularError(
            f"VAR transfer matrix is near singular at frequency index {worst} "
            f"(omega = {grid.omegas[worst]:.6g} rad/sample, condition {conds[worst]:.3g}); "
            "the model has a root at or near the unit circle")
    inv = np.linalg.inv(transfer)
    spec = np.einsum("jpq,qr,jsr->jps", inv, model.noise_cov.astype(complex),
                     np.conj(inv), optimize=True) / (2.0 * np.pi)
    return SpectralEstimate(grid, symmetrize(spec), tag="var")
