"""Least-squares VAR fitting, BIC order selection, and the VAR spectrum."""

import numpy as np
import pytest
from scipy import linalg as sla

from specshrink import (
    DimensionError,
    DomainError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    NearSingularError,
    RankDeficiencyError,
    VarModel,
    exact_sum,
    fit_var,
    select_var_order,
    simulate_var,
    var_spectrum,
)


def make_var_trials(coefs, n_trials, n_samples, seed=0, noise=None):
    p = np.asarray(coefs).shape[1]
    noise = np.eye(p) if noise is None else noise
    base = seed if isinstance(seed, tuple) else (seed,)
    trials = np.stack([simulate_var(coefs, noise, n_samples, seed=base + (n,))
                       for n in range(n_trials)])
    return MultiTrialSeries(trials)


def test_model_container_and_companion():
    model = VarModel(coefs=np.array([[[0.5]]]), noise_cov=np.eye(1))
    assert model.order == 1 and model.n_channels == 1
    assert model.spectral_radius() == pytest.approx(0.5)
    assert model.is_stable

    coefs = np.stack([0.5 * np.eye(2), -0.4 * np.eye(2)])
    two = VarModel(coefs=coefs, noise_cov=np.eye(2))
    comp = two.companion()
    assert comp.shape == (4, 4)
    np.testing.assert_array_equal(comp[:2, :2], 0.5 * np.eye(2))
    np.testing.assert_array_equal(comp[:2, 2:], -0.4 * np.eye(2))
    np.testing.assert_array_equal(comp[2:, :2], np.eye(2))
    np.testing.assert_array_equal(comp[2:, 2:], np.zeros((2, 2)))
    # companion eigenvalues solve z^2 = 0.5 z - 0.4
    roots = np.roots([1.0, -0.5, 0.4])
    assert two.spectral_radius() == pytest.approx(np.max(np.abs(roots)))


def test_model_rejects_bad_noise():
    with pytest.raises(DomainError):
        VarModel(np.zeros((1, 2, 2)), np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(DomainError):
        VarModel(np.zeros((1, 2, 2)), np.diag([1.0, -1.0]))
    with pytest.raises(DimensionError):
        VarModel(np.zeros((1, 2, 2)), np.eye(3))


def test_single_trial_fit_matches_plain_ols():
    # one trial reduces to ordinary least squares on lagged regressors
    series = make_var_trials(np.array([[[0.6]]]), 1, 200, seed=1)
    model = fit_var(series, 2)
    x = series.values[0, 0]
    design = np.stack([x[1:-1], x[:-2]], axis=1)
    response = x[2:]
    coef, *_ = np.linalg.lstsq(design, response, rcond=None)
    np.testing.assert_allclose(model.coefs[:, 0, 0], coef, atol=1e-9)
    resid = response - design @ coef
    expected_noise = resid @ resid / (len(response) - 2)
    assert model.noise_cov[0, 0] == pytest.approx(expected_noise, rel=1e-9)


def test_ar1_recovery():
    series = make_var_trials(np.array([[[0.5]]]), 10, 512, seed=2)
    model = fit_var(series, 1)
    assert model.coefs[0, 0, 0] == pytest.approx(0.5, abs=0.03)
    assert model.noise_cov[0, 0] == pytest.approx(1.0, rel=0.1)


def test_var1_two_channel_recovery():
    a = np.array([[[0.5, 0.2], [0.0, 0.4]]])
    series = make_var_trials(a, 20, 256, seed=3)
    model = fit_var(series, 1)
    assert np.max(np.abs(model.coefs - a)) < 0.05


def test_pooled_fit_is_trial_permutation_invariant():
    series = make_var_trials(np.array([[[0.5]]]), 8, 64, seed=4)
    model = fit_var(series, 2)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(8)
        shuffled = MultiTrialSeries(series.values[perm])
        other = fit_var(shuffled, 2)
        np.testing.assert_array_equal(other.coefs, model.coefs)
        np.testing.assert_array_equal(other.noise_cov, model.noise_cov)


def reference_fit_var(series, order):
    """Test-only reference: the pooled fit with full-matrix exact sums."""
    n_trials, n_channels, n_samples = series.values.shape
    blocks = []
    for x in series.values:
        regs = np.concatenate([x[:, order - k:n_samples - k] for k in range(1, order + 1)])
        blocks.append((x[:, order:], regs))
    gram = exact_sum(np.stack([regs @ regs.T for _, regs in blocks]))
    cross = exact_sum(np.stack([resp @ regs.T for resp, regs in blocks]))
    coef_flat = sla.cho_solve(sla.cho_factor(gram), cross.T).T
    resid_ssp = exact_sum(np.stack([
        (resp - coef_flat @ regs) @ (resp - coef_flat @ regs).T for resp, regs in blocks]))
    noise = resid_ssp / (n_trials * (n_samples - order) - n_channels * order)
    coefs = coef_flat.reshape(n_channels, order, n_channels).transpose(1, 0, 2)
    return coefs, 0.5 * (noise + noise.T)


def test_fit_matches_full_matrix_reference_bit_for_bit():
    coefs = np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)])
    for n_trials, n_samples, order in ((6, 128, 1), (6, 128, 3), (2, 33, 4)):
        series = make_var_trials(coefs, n_trials, n_samples, seed=(11, n_samples, order))
        model = fit_var(series, order)
        ref_coefs, ref_noise = reference_fit_var(series, order)
        np.testing.assert_array_equal(model.coefs, ref_coefs)
        np.testing.assert_array_equal(model.noise_cov, ref_noise)


def test_order_selection_carries_the_chosen_fit():
    series = make_var_trials(np.stack([0.5 * np.eye(2), -0.4 * np.eye(2)]), 8, 128, seed=12)
    selection = select_var_order(series, 4)
    refit = fit_var(series, selection.order)
    assert selection.model.order == selection.order
    np.testing.assert_array_equal(selection.model.coefs, refit.coefs)
    np.testing.assert_array_equal(selection.model.noise_cov, refit.noise_cov)


def test_residuals_orthogonal_to_regressors():
    series = make_var_trials(np.array([[[0.3, 0.1], [0.0, 0.5]]]), 4, 128, seed=5)
    model = fit_var(series, 1)
    coef_flat = model.coefs.transpose(1, 0, 2).reshape(2, 2)
    score = np.zeros((2, 2))
    for n in range(4):
        x = series.values[n]
        resp, regs = x[:, 1:], x[:, :-1]
        score += (resp - coef_flat @ regs) @ regs.T
    np.testing.assert_allclose(score, 0.0, atol=1e-8)


def test_noise_cov_is_symmetric_psd():
    series = make_var_trials(np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)]), 6, 128, seed=6)
    model = fit_var(series, 2)
    np.testing.assert_array_equal(model.noise_cov, model.noise_cov.T)
    assert np.min(np.linalg.eigvalsh(model.noise_cov)) > 0


def test_fit_rejects_bad_input():
    series = make_var_trials(np.array([[[0.5]]]), 2, 32, seed=7)
    with pytest.raises(DomainError):
        fit_var(series, 0)
    with pytest.raises(InsufficientDataError):
        fit_var(series, 32)
    dup = MultiTrialSeries(np.repeat(series.values[:, :1], 2, axis=1))
    with pytest.raises(RankDeficiencyError):
        fit_var(dup, 1)


def test_bic_selects_true_order_two():
    coefs = np.stack([0.5 * np.eye(2), -0.4 * np.eye(2)])
    hits = 0
    for seed in range(6):
        series = make_var_trials(coefs, 12, 256, seed=(8, seed))
        selection = select_var_order(series, 5)
        assert len(selection.criterion) == 5
        hits += selection.order == 2
    assert hits >= 5


def test_bic_on_white_noise_prefers_smallest_order():
    hits = 0
    for seed in range(6):
        rng = np.random.default_rng((9, seed))
        series = MultiTrialSeries(rng.standard_normal((12, 2, 256)))
        hits += select_var_order(series, 5).order == 1
    assert hits >= 5


def test_bic_respects_max_order():
    series = make_var_trials(np.stack([0.5 * np.eye(1), -0.4 * np.eye(1)]), 8, 128, seed=10)
    assert select_var_order(series, 1).order == 1
    with pytest.raises(DomainError):
        select_var_order(series, 0)


def test_ar1_spectrum_closed_form():
    # f(w) = (2*pi)^-1 / |1 - 0.5 exp(-iw)|^2
    model = VarModel(np.array([[[0.5]]]), np.eye(1))
    grid = FrequencyGrid(64)
    spec = var_spectrum(model, grid)
    assert spec.tag == "var"
    expected = 1 / (2 * np.pi * np.abs(1 - 0.5 * np.exp(-1j * grid.omegas)) ** 2)
    np.testing.assert_allclose(spec.matrices[:, 0, 0].real, expected, rtol=1e-12)
    assert spec.matrices[0, 0, 0].real == pytest.approx(2 / np.pi)
    assert spec.matrices[-1, 0, 0].real == pytest.approx(1 / (4.5 * np.pi))


def test_order_zero_model_gives_flat_spectrum():
    model = VarModel(np.zeros((0, 2, 2)), np.diag([1.0, 2.0]))
    spec = var_spectrum(model, FrequencyGrid(16))
    expected = np.tile(np.diag([1.0, 2.0]) / (2 * np.pi), (9, 1, 1))
    np.testing.assert_allclose(spec.matrices, expected, atol=1e-14)


def test_spectrum_grid_sum_matches_lyapunov_lag0_covariance():
    # the full-circle grid sum approximates the integral, whose value is the
    # stationary covariance solving the companion-form Lyapunov equation
    coefs = np.stack([np.array([[0.4, 0.15], [0.1, 0.3]]),
                      np.array([[-0.2, 0.05], [0.0, -0.25]])])
    model = VarModel(coefs, np.array([[1.0, 0.3], [0.3, 2.0]]))
    assert model.is_stable
    grid = FrequencyGrid(1024)
    full = var_spectrum(model, grid).full_circle()
    cov_grid = (2 * np.pi / 1024) * full.sum(axis=0)

    comp = model.companion()
    noise_big = np.zeros((4, 4))
    noise_big[:2, :2] = model.noise_cov
    cov_comp = sla.solve_discrete_lyapunov(comp, noise_big)[:2, :2]
    assert np.max(np.abs(cov_grid - cov_comp)) / np.max(np.abs(cov_comp)) < 1e-3
    np.testing.assert_allclose(cov_grid.imag, 0.0, atol=1e-10)


def test_spectrum_rejects_unit_root():
    model = VarModel(np.array([[[1.0]]]), np.eye(1))
    with pytest.raises(NearSingularError, match="frequency index 0"):
        var_spectrum(model, FrequencyGrid(32))


def test_spectrum_is_hermitian_psd():
    coefs = np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)])
    spec = var_spectrum(VarModel(coefs, np.eye(3)), FrequencyGrid(64))
    report = spec.validate()
    assert report.ok


def test_nearly_collinear_channels_warn_that_the_gram_is_ill_conditioned():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 1, 64))
    near = np.concatenate([x, x + 1e-6 * rng.standard_normal((4, 1, 64))], axis=1)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        model = fit_var(MultiTrialSeries(near), 1)
    assert model.order == 1
