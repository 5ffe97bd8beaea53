"""Seeded benchmark-process generators and the Monte Carlo comparison harness.

The benchmark process is a 12-channel mixture of two independent parts: a
first-order vector moving average with a two-block coefficient structure,
and a diagonal fifth-order vector autoregression.  Trials are generated
independently with per-trial seeds derived deterministically from the
master seed, so trial sets are reproducible and independent of generation
order.

The harness simulates replicate datasets, runs each requested estimator,
and records per-frequency squared-distance curves to the exact mixture
spectrum, both for the spectral matrices themselves and for the derived
partial-coherence matrices, plus the mean shrinkage-weight curve.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .connectivity import partial_coherence
from .core import (FrequencyGrid, SpectralEstimate, check_count, check_rate, check_real,
                   hs_norm_sq, symmetrize)
from .errors import (DimensionError, DomainError, PipelineError, SpecshrinkError,
                     UnstableModelError)
from .shrinkage import ESTIMATORS, PipelineOptions, _validate_window, shrink
from .timeseries import MultiTrialSeries
from .var import VarModel, var_spectrum


def _entropy(seed) -> tuple[int, ...]:
    """Normalize a seed (a non-negative int or a sequence of them, not bools) to an entropy
    tuple."""
    try:
        entropy = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    except TypeError:
        entropy = (seed,)
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 0
               for s in entropy):
        raise DomainError(
            f"seed must be a non-negative int or a sequence of them, got {seed!r}")
    return tuple(int(s) for s in entropy)


# Quoted: evaluated at import, the annotation would load numpy.random into every CLI call.
def _generator(entropy: tuple[int, ...]) -> "np.random.Generator":
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _noise_factor(noise_cov: np.ndarray) -> np.ndarray:
    noise = np.asarray(noise_cov, dtype=float)
    if noise.ndim != 2 or noise.shape[0] != noise.shape[1]:
        raise DimensionError(f"noise covariance must be square, got shape {noise.shape}")
    try:
        return np.linalg.cholesky(noise)
    except np.linalg.LinAlgError as err:
        raise DomainError("noise covariance must be symmetric positive definite") from err


def _simulate_var_trials(coefs, noise_cov, n_samples: int, burn_in: int, seeds) -> np.ndarray:
    """One realization of a stable VAR per seed, shape ``(len(seeds), P, n_samples)``.

    Each trial draws its innovations from its own generator, so a trial
    does not depend on the others; one recursion then advances every trial,
    one stacked product per time step covering every lag.
    """
    model = VarModel(coefs=np.asarray(coefs, dtype=float), noise_cov=noise_cov)
    radius = model.spectral_radius()
    if radius >= 1.0:
        raise UnstableModelError(
            f"cannot simulate: companion spectral radius {radius:.6f} >= 1")
    n_samples = check_count(n_samples, "n_samples")
    burn_in = check_count(burn_in, "burn_in", low=0)
    order, p = model.order, model.n_channels
    chol = _noise_factor(model.noise_cov)
    total = burn_in + n_samples
    x = np.empty((total, len(seeds), p))
    for n, seed in enumerate(seeds):
        x[:, n] = _generator(_entropy(seed)).standard_normal((total, p)) @ chol.T
    lags = model.coefs.transpose(0, 2, 1)
    for t in range(1, total):
        k = min(order, t)
        # Every lag's product in one call, x(t-1) first, added in that order.
        for product in np.matmul(x[t - 1::-1][:k], lags[:k]):
            x[t] += product
    return x[burn_in:].transpose(1, 2, 0).copy()


def simulate_vma(ma_coef, noise_cov, n_samples: int, seed=0) -> np.ndarray:
    """One realization of ``X(t) = Z(t) + ma_coef Z(t-1)``, shape ``(P, n_samples)``.

    Exact: a single presample innovation is drawn, so no burn-in is needed.
    """
    theta = np.asarray(ma_coef, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise DimensionError(f"ma_coef must be square, got shape {theta.shape}")
    n_samples = check_count(n_samples, "n_samples")
    chol = _noise_factor(noise_cov)
    if chol.shape[0] != theta.shape[0]:
        raise DimensionError("ma_coef and noise covariance dimensions differ")
    rng = _generator(_entropy(seed))
    innovations = rng.standard_normal((n_samples + 1, theta.shape[0])) @ chol.T
    x = innovations[1:] + innovations[:-1] @ theta.T
    return x.T.copy()


def benchmark_ma_coef() -> np.ndarray:
    """The 12x12 moving-average coefficient: two copies of a 6x6 block."""
    block = np.array([
        [0.00,  0.20,  0.15,  0.15,  0.00, -0.15],
        [0.20,  0.00, -0.20,  0.00,  0.00,  0.00],
        [-0.15, 0.20,  0.00,  0.00,  0.00,  0.00],
        [0.00,  0.00,  0.00,  0.00,  0.20,  0.15],
        [0.00,  0.00,  0.00,  0.20,  0.00, -0.20],
        [0.00,  0.00,  0.00, -0.15,  0.20,  0.00],
    ], dtype=float)
    out = np.zeros((12, 12))
    out[:6, :6] = block
    out[6:, 6:] = block
    return out


def benchmark_ar_coefs() -> np.ndarray:
    """The diagonal lag coefficients of the benchmark AR part, shape (5, 12, 12)."""
    eye = np.eye(12)
    return np.stack([0.75 * eye, -0.20 * eye, 0.0 * eye, -0.15 * eye, -0.05 * eye])


@dataclass(frozen=True)
class SimulationConfig:
    """Benchmark mixture configuration; the defaults are the standard process.

    A trial is ``ma_weight * X_ma + ar_weight * X_ar`` with the two parts
    generated independently.  ``seed`` is the master entropy; trial ``n``
    uses derived entropy ``(*seed, n, 0)`` for the moving-average part and
    ``(*seed, n, 1)`` for the autoregressive part.
    """

    n_trials: int = 120
    n_samples: int = 256
    ma_weight: float = 0.65
    ar_weight: float = 0.35
    ma_coef: np.ndarray = field(default_factory=benchmark_ma_coef)
    ar_coefs: np.ndarray = field(default_factory=benchmark_ar_coefs)
    noise_cov: np.ndarray = field(default_factory=lambda: np.eye(12))
    burn_in: int = 500
    seed: int | tuple = 0
    sampling_rate: float = 256.0

    def __post_init__(self):
        ma = np.ascontiguousarray(self.ma_coef, dtype=float)
        ar = np.ascontiguousarray(self.ar_coefs, dtype=float)
        noise = np.ascontiguousarray(self.noise_cov, dtype=float)
        if ma.ndim != 2 or ma.shape[0] != ma.shape[1]:
            raise DimensionError(f"ma_coef must be square, got {ma.shape}")
        p = ma.shape[0]
        if ar.ndim != 3 or ar.shape[1:] != (p, p):
            raise DimensionError(f"ar_coefs must be (order, {p}, {p}), got {ar.shape}")
        if noise.shape != (p, p):
            raise DimensionError(f"noise_cov must be ({p}, {p}), got {noise.shape}")
        for name, low in (("n_trials", 1), ("n_samples", 2), ("burn_in", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low=low))
        for name in ("ma_weight", "ar_weight"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        object.__setattr__(self, "sampling_rate", check_rate(self.sampling_rate))
        _entropy(self.seed)
        object.__setattr__(self, "ma_coef", ma)
        object.__setattr__(self, "ar_coefs", ar)
        object.__setattr__(self, "noise_cov", noise)

    @property
    def n_channels(self) -> int:
        return self.ma_coef.shape[0]


def simulate_var(coefs, noise_cov, n_samples: int, burn_in: int = SimulationConfig.burn_in,
                 seed=0) -> np.ndarray:
    """One realization of a stable VAR, shape ``(P, n_samples)``.

    The recursion starts from a zero state and discards the first
    ``burn_in`` samples; innovations are Gaussian from a generator seeded
    with ``seed``.  Raises :class:`UnstableModelError` when the companion
    spectral radius is >= 1.
    """
    return _simulate_var_trials(coefs, noise_cov, n_samples, burn_in, [seed])[0]


def simulate_mixture(config: SimulationConfig | None = None) -> MultiTrialSeries:
    """Independent trials of the mixture process described by ``config``."""
    cfg = config if config is not None else SimulationConfig()
    base = _entropy(cfg.seed)
    ma_parts = np.stack([simulate_vma(cfg.ma_coef, cfg.noise_cov, cfg.n_samples,
                                      seed=base + (n, 0)) for n in range(cfg.n_trials)])
    ar_parts = _simulate_var_trials(cfg.ar_coefs, cfg.noise_cov, cfg.n_samples, cfg.burn_in,
                                    [base + (n, 1) for n in range(cfg.n_trials)])
    trials = cfg.ma_weight * ma_parts + cfg.ar_weight * ar_parts
    return MultiTrialSeries(values=trials, sampling_rate=cfg.sampling_rate)


def vma_spectrum(ma_coef, noise_cov, grid: FrequencyGrid) -> SpectralEstimate:
    """Exact spectral matrix of a first-order vector moving average.

    ``f(w) = (2*pi)**-1 * B(w) noise_cov B(w)^*`` with
    ``B(w) = I + ma_coef * exp(-1j*w)``.
    """
    theta = np.asarray(ma_coef, dtype=float)
    noise = np.asarray(noise_cov, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1] or noise.shape != theta.shape:
        raise DimensionError("ma_coef and noise_cov must be square with equal shapes")
    p = theta.shape[0]
    transfer = np.eye(p)[None, :, :] + grid.phase[:, None, None] * theta[None, :, :]
    spec = np.einsum("jpq,qr,jsr->jps", transfer, noise.astype(complex),
                     np.conj(transfer), optimize=True) / (2.0 * np.pi)
    return SpectralEstimate(grid, symmetrize(spec), tag="truth")


def true_mixture_spectrum(config: SimulationConfig, grid: FrequencyGrid) -> SpectralEstimate:
    """Exact spectral matrix of the mixture process.

    Spectra of independent processes combine with squared mixing weights:
    ``f = ma_weight**2 * f_ma + ar_weight**2 * f_ar``.
    """
    ma_spec = vma_spectrum(config.ma_coef, config.noise_cov, grid)
    ar_spec = var_spectrum(VarModel(coefs=config.ar_coefs, noise_cov=config.noise_cov), grid)
    mats = config.ma_weight ** 2 * ma_spec.matrices + config.ar_weight ** 2 * ar_spec.matrices
    return SpectralEstimate(grid, mats, tag="truth")


@dataclass(frozen=True)
class ComparisonResult:
    """Monte Carlo mean squared-distance curves, per estimator.

    ``spectral_mse[name]`` and ``pcoh_mse[name]`` are per-frequency mean
    squared Hilbert-Schmidt distances to the exact spectrum and to the
    exact partial coherence; ``mean_weight`` holds the average shrinkage
    weight curve per shrinkage variant.  ``integrated_spectral`` and
    ``integrated_pcoh`` are the frequency-summed totals.
    """

    grid: FrequencyGrid
    n_reps: int
    estimator_names: tuple[str, ...]
    spectral_mse: dict
    pcoh_mse: dict
    mean_weight: dict
    integrated_spectral: dict
    integrated_pcoh: dict


#: The harness's largest candidate VAR order when no options are given.
HARNESS_MAX_ORDER = 8
#: The harness's master seed when none is given.
HARNESS_SEED = 0


def _shrinkage_name(window: int, primary: int) -> str:
    return "shrinkage" if window == primary else f"shrinkage_w{window}"


def monte_carlo_compare(config: SimulationConfig | None = None,
                        estimators=("var", "smoothed", "multitaper", "shrinkage"),
                        reps: int = 20,
                        seed: int | tuple = HARNESS_SEED,
                        windows=None,
                        options: PipelineOptions | None = None) -> ComparisonResult:
    """Compare estimators against the exact mixture spectrum over replicates.

    Parameters
    ----------
    config : SimulationConfig, optional
        Process to simulate (defaults to the standard benchmark mixture).
        Its ``seed`` is ignored here: replicate ``r`` uses entropy
        ``(*seed, r)``.
    estimators : sequence of str
        Subset of ``raw_mean, smoothed, var, multitaper, shrinkage, truth``.
    reps : int
        Number of Monte Carlo replicates (>= 1).
    windows : sequence of int, optional
        Risk-window widths for the shrinkage estimator, ``(options.window,)``
        by default; the first is reported as ``"shrinkage"``, the others as
        ``"shrinkage_w{width}"``.  Extra windows reuse all shared work.
    options : PipelineOptions, optional
        Settings for every estimator (default ``max_order=HARNESS_MAX_ORDER``).

    Returns
    -------
    ComparisonResult
        Per-frequency MSE curves for spectral matrices and partial
        coherence, their frequency-summed totals, and mean weight curves.
    """
    cfg = config if config is not None else SimulationConfig()
    options = options if options is not None else PipelineOptions(max_order=HARNESS_MAX_ORDER)
    reps = check_count(reps, "reps")
    base = _entropy(seed)
    names = tuple(estimators)
    known = (*ESTIMATORS, "truth")
    for name in names:
        if name not in known:
            raise DomainError(f"unknown estimator {name!r}; expected one of {known}")
    windows = (options.window,) if windows is None else tuple(windows)
    for kind, values in (("estimator", names), ("window", windows)):
        if not values:
            raise DomainError(f"need at least one {kind}")
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise DomainError(f"repeated {kind} {repeated!r}; each may appear once")
    for w in windows:  # only the shrinkage estimator needs its windows to fit the record
        _validate_window(w, cfg.n_samples if "shrinkage" in names else None)

    grid = FrequencyGrid(cfg.n_samples, cfg.sampling_rate)
    truth = true_mixture_spectrum(cfg, grid)
    truth_pcoh = partial_coherence(truth).values

    output_names = []
    for name in names:
        if name == "shrinkage":
            output_names.extend(_shrinkage_name(w, windows[0]) for w in windows)
        else:
            output_names.append(name)
    spec_acc = {name: np.zeros(grid.n_frequencies) for name in output_names}
    pcoh_acc = {name: np.zeros(grid.n_frequencies) for name in output_names}
    weight_acc = {_shrinkage_name(w, windows[0]): np.zeros(grid.n_frequencies)
                  for w in windows} if "shrinkage" in names else {}

    # Shrinkage combines each replicate's VAR and smoothed estimates.
    components = set(names) | ({"var", "smoothed"} if "shrinkage" in names else set())

    for rep in range(reps):
        try:
            sim = simulate_mixture(replace(cfg, seed=base + (rep,)))
            produced = {name: run(sim, options)[0] for name, run in ESTIMATORS.items()
                        if name in components and name != "shrinkage"}
            produced["truth"] = truth
            if "shrinkage" in names:
                for w in windows:
                    key = _shrinkage_name(w, windows[0])
                    produced[key], diag = shrink(produced["var"], produced["smoothed"],
                                                 sim.periodograms.mean, w, options.fixed_weight)
                    weight_acc[key] += diag.weight
            for key in spec_acc:
                spec_acc[key] += hs_norm_sq(produced[key].matrices - truth.matrices)
                pcoh_acc[key] += hs_norm_sq(partial_coherence(produced[key]).values - truth_pcoh)
        except SpecshrinkError as err:
            raise PipelineError(f"replicate {rep}", str(err)) from err

    spectral_mse = {k: v / reps for k, v in spec_acc.items()}
    pcoh_mse = {k: v / reps for k, v in pcoh_acc.items()}
    mean_weight = {k: v / reps for k, v in weight_acc.items()}
    return ComparisonResult(
        grid=grid, n_reps=reps, estimator_names=tuple(output_names),
        spectral_mse=spectral_mse, pcoh_mse=pcoh_mse, mean_weight=mean_weight,
        integrated_spectral={k: float(v.sum()) for k, v in spectral_mse.items()},
        integrated_pcoh={k: float(v.sum()) for k, v in pcoh_mse.items()})
