"""Multi-trial least-squares vector autoregression and its spectral matrix.

The VAR(K) model of a P-channel series is

    X(t) = sum_{k=1..K} coefs[k] X(t-k) + Z(t),  Z(t) ~ (0, noise_cov).

Fitting conditions on the first K observations of each trial (the
regression runs over t = K+1..T, effective length T' = T-K) and pools the
normal equations across trials.  The innovation covariance uses the
degrees-of-freedom divisor ``N*T' - P*K``.  Order selection minimizes a
Bayesian information criterion over candidate orders.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .core import (FrequencyGrid, SpectralEstimate, check_count, exact_sum, hermitian_cond,
                   symmetrize, validate_spectral)
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
    n_trials, n_channels, n_samples = series.values.shape
    eff = n_samples - order
    if eff < 1:
        raise InsufficientDataError(f"order {order} leaves no regression samples at T={n_samples}")
    n_params = n_channels * order
    if n_trials * eff <= n_params:
        raise InsufficientDataError(
            f"need n_trials*(T-order) > P*order; got {n_trials}*{eff} <= {n_params}")

    blocks = [_regression_blocks(series.values[n], order) for n in range(n_trials)]
    # ``regs @ regs.T`` is computed as a symmetric rank-k update, so each
    # per-trial Gram is exactly symmetric: sum its upper triangle and mirror.
    upper = np.triu_indices(n_params)
    gram = np.empty((n_params, n_params))
    gram[upper] = exact_sum(np.stack([(regs @ regs.T)[upper] for _, regs in blocks]))
    gram.T[upper] = gram[upper]
    cross = exact_sum(np.stack([resp @ regs.T for resp, regs in blocks]))

    cond = hermitian_cond(gram)
    if not np.isfinite(cond) or cond > GRAM_COND_FAIL:
        raise RankDeficiencyError(
            f"regressor Gram matrix condition number {cond:.3g} exceeds {GRAM_COND_FAIL:.0e}; "
            "check for constant or duplicated channels")
    if cond > GRAM_COND_WARN:
        warnings.warn(f"regressor Gram matrix is ill-conditioned (cond {cond:.3g})",
                      RuntimeWarning, stacklevel=2)
    try:
        factor = sla.cho_factor(gram)
    except np.linalg.LinAlgError as err:  # pragma: no cover - guarded by cond check
        raise RankDeficiencyError(f"regressor Gram matrix is singular: {err}") from err
    coef_flat = sla.cho_solve(factor, cross.T).T  # (P, P*order)

    resids = (resp - coef_flat @ regs for resp, regs in blocks)
    # ``.copy()`` keeps this a general matrix product; ``r @ r.T`` would switch
    # to a symmetric rank-k update and change the low bits of ``noise_cov``.
    resid_ssp = exact_sum(np.stack([r @ r.copy().T for r in resids]))
    noise = resid_ssp / (n_trials * eff - n_params)
    coefs = coef_flat.reshape(n_channels, order, n_channels).transpose(1, 0, 2)
    return VarModel(coefs=coefs, noise_cov=0.5 * (noise + noise.T))


@dataclass(frozen=True)
class OrderSelection:
    """Chosen VAR order, the information-criterion value per candidate, and
    the model fitted at the chosen order."""

    order: int
    criterion: tuple[float, ...]
    model: VarModel


def select_var_order(series: MultiTrialSeries, max_order: int) -> OrderSelection:
    """Pick the VAR order in ``1..max_order`` minimizing the BIC.

    The criterion for order ``k`` is
    ``log det(noise_cov(k)) + log(N*T)/(N*T) * k * P**2``; ties break toward
    the smaller order.  The selection carries the model fitted at the
    chosen order, so callers need not refit it.
    """
    check_count(max_order, "max_order")
    n_trials, n_channels, n_samples = series.values.shape
    total = n_trials * n_samples
    penalty_unit = np.log(total) / total * n_channels ** 2
    models, values = [], []
    for k in range(1, max_order + 1):
        model = fit_var(series, k)
        sign, logdet = np.linalg.slogdet(model.noise_cov)
        models.append(model)
        values.append(np.inf if sign <= 0 else logdet + penalty_unit * k)
    order = 1 + int(np.argmin(values))
    return OrderSelection(order=order, criterion=tuple(values), model=models[order - 1])


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
