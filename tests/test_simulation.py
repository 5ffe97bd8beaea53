"""Benchmark process generators, exact spectra, and the comparison harness."""

import numpy as np
import pytest

from specshrink import (
    DimensionError,
    DomainError,
    FrequencyGrid,
    PipelineError,
    PipelineOptions,
    SimulationConfig,
    UnstableModelError,
    VarModel,
    benchmark_ar_coefs,
    benchmark_ma_coef,
    hs_norm_sq,
    mean_periodogram,
    monte_carlo_compare,
    simulate_mixture,
    simulate_var,
    simulate_vma,
    true_mixture_spectrum,
    var_spectrum,
    vma_spectrum,
)


def test_simulate_var_white_noise_covariance():
    noise = np.array([[2.0, 0.5], [0.5, 1.0]])
    x = simulate_var(np.zeros((1, 2, 2)), noise, 100_000, burn_in=0, seed=0)
    emp = x @ x.T / x.shape[1]
    np.testing.assert_allclose(emp, noise, atol=0.05)


def test_simulate_var_ar1_autocorrelation():
    x = simulate_var(np.array([[[0.5]]]), np.eye(1), 100_000, seed=1)[0]
    lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
    assert lag1 == pytest.approx(0.5, abs=0.01)


def test_simulate_var_is_deterministic():
    a = simulate_var(np.array([[[0.3]]]), np.eye(1), 64, seed=7)
    b = simulate_var(np.array([[[0.3]]]), np.eye(1), 64, seed=7)
    c = simulate_var(np.array([[[0.3]]]), np.eye(1), 64, seed=8)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)
    assert a.shape == (1, 64)


def test_simulate_var_rejects_unstable_model():
    with pytest.raises(UnstableModelError):
        simulate_var(np.array([[[1.01]]]), np.eye(1), 16)
    with pytest.raises(DomainError):
        simulate_var(np.array([[[0.5]]]), np.eye(1), 0)
    with pytest.raises(DomainError):
        simulate_var(np.array([[[0.5]]]), np.eye(1), 16, burn_in=-1)


def _loop_simulate_var(coefs, noise_cov, n_samples, burn_in, seed):
    """The direct per-trial recursion, kept as the oracle for the batched simulator."""
    coefs = np.asarray(coefs, dtype=float)
    chol = np.linalg.cholesky(noise_cov)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = burn_in + n_samples
    x = rng.standard_normal((total, coefs.shape[1])) @ chol.T
    for t in range(total):
        for k in range(1, min(len(coefs), t) + 1):
            x[t] += coefs[k - 1] @ x[t - k]
    return x[burn_in:].T.copy()


def test_batched_simulation_matches_the_per_trial_loop():
    cfg = SimulationConfig(n_trials=3, n_samples=64, seed=4)
    series = simulate_mixture(cfg)
    for n in range(cfg.n_trials):
        ma = simulate_vma(cfg.ma_coef, cfg.noise_cov, cfg.n_samples, seed=(4, n, 0))
        ar = _loop_simulate_var(cfg.ar_coefs, cfg.noise_cov, cfg.n_samples, cfg.burn_in,
                                (4, n, 1))
        np.testing.assert_array_equal(series.values[n],
                                      cfg.ma_weight * ma + cfg.ar_weight * ar)

    rng = np.random.default_rng(11)
    coefs = 0.15 * rng.standard_normal((3, 4, 4))
    mix = rng.standard_normal((4, 4))
    noise = mix @ mix.T + np.eye(4)
    assert VarModel(coefs=coefs, noise_cov=noise).spectral_radius() < 1.0
    for seed in (0, (1, 2)):
        got = simulate_var(coefs, noise, 64, burn_in=50, seed=seed)
        want = _loop_simulate_var(coefs, noise, 64, 50, seed)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("seed", [-1, (1, -2), "ab", True, (1, False)])
def test_seeds_numpy_rejects_are_domain_errors(seed, monkeypatch):
    import specshrink.simulation as simulation

    def no_simulation(config):
        raise AssertionError("simulated before checking the seed")

    with pytest.raises(DomainError, match="seed must be a non-negative int"):
        simulate_var(np.array([[[0.5]]]), np.eye(1), 16, seed=seed)
    with pytest.raises(DomainError, match="seed must be a non-negative int"):
        simulate_vma(np.array([[0.5]]), np.eye(1), 16, seed=seed)
    with pytest.raises(DomainError, match="seed must be a non-negative int"):
        SimulationConfig(seed=seed)
    monkeypatch.setattr(simulation, "simulate_mixture", no_simulation)
    with pytest.raises(DomainError, match="seed must be a non-negative int"):
        monte_carlo_compare(SimulationConfig(n_trials=8, n_samples=64), seed=seed)


def test_simulate_vma_autocorrelations():
    theta = 0.4
    x = simulate_vma(np.array([[theta]]), np.eye(1), 100_000, seed=2)[0]
    lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
    lag2 = np.corrcoef(x[2:], x[:-2])[0, 1]
    assert lag1 == pytest.approx(theta / (1 + theta**2), abs=0.01)
    assert lag2 == pytest.approx(0.0, abs=0.01)


def test_simulate_vma_deterministic_and_validated():
    theta = np.array([[0.0, 0.2], [0.2, 0.0]])
    a = simulate_vma(theta, np.eye(2), 32, seed=3)
    np.testing.assert_array_equal(a, simulate_vma(theta, np.eye(2), 32, seed=3))
    assert a.shape == (2, 32)
    with pytest.raises(DimensionError):
        simulate_vma(theta, np.eye(3), 32)
    with pytest.raises(DomainError):
        simulate_vma(theta, np.eye(2), 0)


def test_benchmark_ma_coef_block_structure():
    theta = benchmark_ma_coef()
    assert theta.shape == (12, 12)
    np.testing.assert_array_equal(theta[:6, :6], theta[6:, 6:])
    np.testing.assert_array_equal(theta[:6, 6:], 0.0)
    np.testing.assert_array_equal(theta[6:, :6], 0.0)
    assert theta[0, 1] == 0.20 and theta[0, 5] == -0.15
    assert theta[2, 0] == -0.15 and theta[5, 4] == 0.20
    assert np.all(np.diag(theta) == 0.0)


def test_benchmark_ar_coefs_are_diagonal_and_stable():
    coefs = benchmark_ar_coefs()
    assert coefs.shape == (5, 12, 12)
    for k, value in enumerate((0.75, -0.20, 0.0, -0.15, -0.05)):
        np.testing.assert_array_equal(coefs[k], value * np.eye(12))
    model = VarModel(coefs, np.eye(12))
    radius = model.spectral_radius()
    assert model.is_stable
    assert 0.80 < radius < 0.86


def test_benchmark_ar_autospectrum_peaks_at_bin_24():
    # the harness weight criterion keys off this interior peak
    model = VarModel(benchmark_ar_coefs(), np.eye(12))
    spec = var_spectrum(model, FrequencyGrid(256)).matrices[:, 0, 0].real
    assert int(np.argmax(spec)) == 24
    assert 0 < 24 < len(spec) - 1


def test_config_defaults_and_validation():
    cfg = SimulationConfig()
    assert (cfg.n_trials, cfg.n_samples, cfg.n_channels) == (120, 256, 12)
    assert (cfg.ma_weight, cfg.ar_weight) == (0.65, 0.35)
    assert cfg.sampling_rate == 256.0
    with pytest.raises(DomainError):
        SimulationConfig(n_trials=0)
    with pytest.raises(DimensionError):
        SimulationConfig(noise_cov=np.eye(3))


def test_mixture_weight_endpoints_isolate_the_parts():
    cfg = SimulationConfig(n_trials=2, n_samples=64, ma_weight=1.0, ar_weight=0.0, seed=4)
    series = simulate_mixture(cfg)
    direct = simulate_vma(cfg.ma_coef, cfg.noise_cov, 64, seed=(4, 0, 0))
    np.testing.assert_array_equal(series.values[0], direct)

    cfg = SimulationConfig(n_trials=1, n_samples=64, ma_weight=0.0, ar_weight=1.0, seed=4)
    direct = simulate_var(cfg.ar_coefs, cfg.noise_cov, 64, burn_in=500, seed=(4, 0, 1))
    np.testing.assert_array_equal(simulate_mixture(cfg).values[0], direct)


def test_mixture_trials_do_not_depend_on_trial_count():
    small = simulate_mixture(SimulationConfig(n_trials=3, n_samples=32, seed=5))
    large = simulate_mixture(SimulationConfig(n_trials=6, n_samples=32, seed=5))
    np.testing.assert_array_equal(large.values[:3], small.values)


def test_vma_spectrum_univariate_closed_form():
    grid = FrequencyGrid(64)
    spec = vma_spectrum(np.array([[0.5]]), np.eye(1), grid)
    expected = np.abs(1 + 0.5 * np.exp(-1j * grid.omegas)) ** 2 / (2 * np.pi)
    np.testing.assert_allclose(spec.matrices[:, 0, 0].real, expected, rtol=1e-12)
    assert spec.matrices[0, 0, 0].real == pytest.approx(2.25 / (2 * np.pi))
    assert spec.matrices[-1, 0, 0].real == pytest.approx(0.25 / (2 * np.pi))


def test_vma_spectrum_integrates_to_lag0_covariance():
    # an order-1 trigonometric polynomial is summed exactly by any grid
    theta = benchmark_ma_coef()
    spec = vma_spectrum(theta, np.eye(12), FrequencyGrid(16))
    cov = (2 * np.pi / 16) * spec.full_circle().sum(axis=0)
    np.testing.assert_allclose(cov.real, np.eye(12) + theta @ theta.T, atol=1e-12)
    np.testing.assert_allclose(cov.imag, 0.0, atol=1e-12)


def test_true_mixture_spectrum_uses_squared_weights():
    cfg = SimulationConfig()
    grid = FrequencyGrid(256, 256.0)
    truth = true_mixture_spectrum(cfg, grid)
    ma = vma_spectrum(cfg.ma_coef, cfg.noise_cov, grid).matrices
    ar = var_spectrum(VarModel(cfg.ar_coefs, cfg.noise_cov), grid).matrices
    np.testing.assert_allclose(truth.matrices, 0.65**2 * ma + 0.35**2 * ar, atol=1e-14)
    assert truth.validate().ok


def test_mean_periodogram_approaches_the_exact_spectrum():
    grid = FrequencyGrid(256, 256.0)

    def relative_error(n_trials):
        cfg = SimulationConfig(n_trials=n_trials, seed=6)
        truth = true_mixture_spectrum(cfg, grid)
        mean = mean_periodogram(simulate_mixture(cfg))
        err = float(np.sum(hs_norm_sq(mean.matrices - truth.matrices)))
        return err / float(np.sum(hs_norm_sq(truth.matrices)))

    at_200 = relative_error(200)
    assert at_200 < 0.10
    # error is variance dominated, so quadrupling the trials should halve it
    assert relative_error(800) < at_200 / 2


def small_config(seed=0):
    return SimulationConfig(
        n_trials=8, n_samples=64,
        ma_coef=np.array([[0.0, 0.2], [0.2, 0.0]]),
        ar_coefs=0.5 * np.eye(2)[None],
        noise_cov=np.eye(2),
        ma_weight=0.6, ar_weight=0.4, seed=seed, sampling_rate=64.0)


def test_harness_truth_estimator_has_zero_error():
    res = monte_carlo_compare(small_config(), estimators=("raw_mean", "truth"),
                              reps=2, seed=0, options=PipelineOptions(max_order=2))
    np.testing.assert_array_equal(res.spectral_mse["truth"], 0.0)
    np.testing.assert_array_equal(res.pcoh_mse["truth"], 0.0)
    assert res.integrated_spectral["truth"] == 0.0
    assert res.integrated_spectral["raw_mean"] > 0.0
    assert res.n_reps == 2


def test_harness_is_deterministic():
    kwargs = dict(estimators=("var", "shrinkage"), reps=2, seed=3,
                  options=PipelineOptions(max_order=2), windows=(5,))
    a = monte_carlo_compare(small_config(), **kwargs)
    b = monte_carlo_compare(small_config(), **kwargs)
    assert a.integrated_spectral == b.integrated_spectral
    assert a.integrated_pcoh == b.integrated_pcoh
    np.testing.assert_array_equal(a.mean_weight["shrinkage"], b.mean_weight["shrinkage"])


def test_harness_window_variants_share_names():
    res = monte_carlo_compare(small_config(), estimators=("shrinkage",), reps=1,
                              seed=1, options=PipelineOptions(max_order=2), windows=(5, 3))
    assert res.estimator_names == ("shrinkage", "shrinkage_w3")
    assert set(res.mean_weight) == {"shrinkage", "shrinkage_w3"}
    for curve in res.mean_weight.values():
        assert curve.shape == (res.grid.n_frequencies,)
        assert np.all((curve >= 0) & (curve <= 1))


def test_harness_validation_and_replicate_errors():
    with pytest.raises(DomainError):
        monte_carlo_compare(small_config(), reps=0)
    with pytest.raises(DomainError):
        monte_carlo_compare(small_config(), estimators=("bogus",))
    with pytest.raises(DomainError):
        monte_carlo_compare(small_config(), windows=())
    # too little data for the requested VAR order fails inside replicate 0
    tiny = SimulationConfig(n_trials=2, n_samples=8,
                            ma_coef=np.array([[0.0, 0.2], [0.2, 0.0]]),
                            ar_coefs=0.5 * np.eye(2)[None], noise_cov=np.eye(2),
                            sampling_rate=8.0)
    with pytest.raises(PipelineError) as info:
        monte_carlo_compare(tiny, estimators=("var",), reps=1,
                            options=PipelineOptions(max_order=6))
    assert info.value.stage == "replicate 0"


@pytest.mark.parametrize("field, value", [
    ("n_trials", True), ("n_trials", 2.0), ("n_trials", 0), ("n_samples", 64.5),
    ("n_samples", 1), ("n_samples", np.True_), ("burn_in", 2.5), ("burn_in", -1),
    ("burn_in", True)])
def test_simulation_counts_follow_the_count_rule(field, value):
    with pytest.raises(DomainError, match=f"{field} must be .*, got {value!r}"):
        SimulationConfig(**{field: value})


def test_simulation_counts_keep_numpy_integers_as_int_and_allow_no_burn_in():
    cfg = SimulationConfig(n_trials=np.int64(2), n_samples=np.int32(16), burn_in=np.int8(0))
    assert all(type(v) is int for v in (cfg.n_trials, cfg.n_samples, cfg.burn_in))
    assert simulate_mixture(cfg).values.shape == (2, 12, 16)
    for call, name in ((lambda: simulate_vma(np.zeros((1, 1)), np.eye(1), 0), "n_samples"),
                       (lambda: simulate_var(np.zeros((1, 1, 1)), np.eye(1), 8.0), "n_samples"),
                       (lambda: simulate_var(np.zeros((1, 1, 1)), np.eye(1), 8, burn_in=0.5),
                        "burn_in")):
        with pytest.raises(DomainError, match=f"{name} must be"):
            call()


def test_harness_rejects_an_empty_estimator_list():
    with pytest.raises(DomainError, match="need at least one estimator"):
        monte_carlo_compare(SimulationConfig(n_trials=2, n_samples=32), estimators=())
