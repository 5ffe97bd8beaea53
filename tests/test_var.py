"""Least-squares VAR fitting, BIC order selection, and the VAR spectrum."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from specshrink import (
    DimensionError,
    DomainError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    NearSingularError,
    OrderSelection,
    RankDeficiencyError,
    SimulationConfig,
    SpectralEstimate,
    VarModel,
    detrend,
    fit_var,
    select_var_order,
    simulate_mixture,
    simulate_var,
    standardize,
    symmetrize,
    var_spectrum,
)
from specshrink import timeseries, var
from conftest import fsum_columns, full_circle, guard_outcome


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
    """Test-only reference: the pooled fit with full-matrix exact sums, holding every
    trial's regressor block at once."""
    n_trials, n_channels, n_samples = series.values.shape
    blocks = []
    for x in series.values:
        regs = np.concatenate([x[:, order - k:n_samples - k] for k in range(1, order + 1)])
        blocks.append((x[:, order:], regs))
    gram = fsum_columns(np.stack([regs @ regs.T for _, regs in blocks]))
    cross = fsum_columns(np.stack([resp @ regs.T for resp, regs in blocks]))
    coef_flat = np.linalg.solve(gram, cross.T).T
    resid_ssp = fsum_columns(np.stack([
        (resp - coef_flat @ regs) @ (resp - coef_flat @ regs).T for resp, regs in blocks]))
    noise = resid_ssp / (n_trials * (n_samples - order) - n_channels * order)
    coefs = coef_flat.reshape(n_channels, order, n_channels).transpose(1, 0, 2)
    return coefs, 0.5 * (noise + noise.T)


def assert_matches_reference(model, series, order):
    # fit_var sums trials in canonical order, the reference with exact sums: they
    # differ by rounding only
    ref_coefs, ref_noise = reference_fit_var(series, order)
    for got, ref in ((model.coefs, ref_coefs), (model.noise_cov, ref_noise)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_fit_matches_the_exact_sum_reference():
    coefs = np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)])
    for n_trials, n_samples, order in ((6, 128, 1), (6, 128, 3), (2, 33, 4)):
        series = make_var_trials(coefs, n_trials, n_samples, seed=(11, n_samples, order))
        assert_matches_reference(fit_var(series, order), series, order)
    series, _ = _scan_cases()["standardized mixture"]
    for order in (1, 5, 10):
        assert_matches_reference(fit_var(series, order), series, order)


def test_fit_streams_over_trials():
    # Only one trial's stacked lags are alive at a time: holding every trial's
    # regressor block took fit_var(series, 10) 40.6 MB above its input here,
    # and stacking per-trial moments for exact sums 9.5 MB.
    series = standardize(detrend(simulate_mixture(SimulationConfig(seed=3)), order=1))
    fit_var(series, 1)
    tracemalloc.start()
    try:
        model = fit_var(series, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak
    assert_matches_reference(model, series, 10)


def test_order_selection_carries_the_chosen_fit():
    series = make_var_trials(np.stack([0.5 * np.eye(2), -0.4 * np.eye(2)]), 8, 128, seed=12)
    selection = select_var_order(series, 4)
    refit = fit_var(series, selection.order)
    assert selection.model.order == selection.order
    np.testing.assert_array_equal(selection.model.coefs, refit.coefs)
    np.testing.assert_array_equal(selection.model.noise_cov, refit.noise_cov)


def reference_select_var_order(series, max_order):
    """Test-only reference: fit every order with ``fit_var`` and score each model's BIC."""
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
    return order, tuple(values), models[order - 1]


def _scan_cases():
    var2 = np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)])
    noise = np.random.default_rng(13).standard_normal
    mixture = simulate_mixture(SimulationConfig(n_trials=6, n_samples=128, seed=13))
    return {
        "var2": (make_var_trials(var2, 8, 128, seed=14), 6),
        # N*(T-k) > P*k holds up to k = 8 for 3 trials, 4 channels and 20 samples
        "three trials at the order limit": (MultiTrialSeries(noise((3, 4, 20))), 8),
        "one trial": (make_var_trials(var2, 1, 90, seed=15), 5),
        "standardized mixture": (standardize(detrend(mixture, order=1)), 10),
    }


def assert_criteria_close(got, expected):
    """Criterion values equal up to the rounding of the scan's Cholesky scores: within
    ``1e-12 * max(1, |c|)`` each, ``inf`` exactly where the other is."""
    assert len(got) == len(expected)
    for value, oracle in zip(got, expected):
        if np.isinf(oracle):
            assert value == oracle
        else:
            assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle)), (value, oracle)


@pytest.mark.parametrize("case", list(_scan_cases()))
def test_order_scan_matches_fitting_every_order(case):
    # The scan scores each order from the Cholesky pivots of its moment, the reference
    # each fitted model's covariance by slogdet: the criteria agree to rounding, and the
    # chosen order and its model are the same to the bit.
    series, max_order = _scan_cases()[case]
    selection = select_var_order(series, max_order)
    order, criterion, model = reference_select_var_order(series, max_order)
    assert selection.order == order
    assert_criteria_close(selection.criterion, criterion)
    np.testing.assert_array_equal(selection.model.coefs, model.coefs)
    np.testing.assert_array_equal(selection.model.noise_cov, model.noise_cov)


def test_order_scan_is_bit_identical_under_a_trial_permutation():
    series = make_var_trials(np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)]), 9, 96, seed=16)
    selection = select_var_order(series, 5)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(9)
        other = select_var_order(MultiTrialSeries(series.values[perm]), 5)
        assert other.criterion == selection.criterion
        np.testing.assert_array_equal(other.model.coefs, selection.model.coefs)
        np.testing.assert_array_equal(other.model.noise_cov, selection.model.noise_cov)


def reference_lag_moments(values, top):
    """Test-only reference: every order's lag moments as exactly rounded trial sums of the
    per-trial moments, each trial's formed from its full regression rows."""
    n_trials, n_channels, n_samples = values.shape
    for k in range(1, top + 1):
        per_trial = np.empty((n_trials, n_channels * (k + 1), n_channels * (k + 1)))
        for n, x in enumerate(values):
            lagged = np.concatenate([x[:, k - j:n_samples - j] for j in range(k + 1)])
            per_trial[n] = lagged @ lagged.T
        yield k, fsum_columns(per_trial)


@pytest.mark.parametrize("case", list(_scan_cases()))
def test_lag_moments_match_exact_trial_sums(case):
    # The scan sums trials in canonical order; that moves each moment from the exact
    # sum by rounding only, and every moment stays exactly symmetric.
    series, max_order = _scan_cases()[case]
    scanned = list(var._lag_moments(series, max_order))
    reference = list(reference_lag_moments(series.values, max_order))
    assert [k for k, _ in scanned] == [k for k, _ in reference] == list(range(1, max_order + 1))
    for (k, moment), (_, exact) in zip(scanned, reference):
        assert moment.shape == exact.shape
        np.testing.assert_array_equal(moment, moment.T)
        np.testing.assert_allclose(moment, exact, rtol=0, atol=1e-13 * np.abs(exact).max())


def test_order_scan_is_bit_identical_with_duplicate_trials_in_any_order():
    # Byte-identical trials tie in the canonical order; any order of the ties gives
    # the same sequence of trial contents, so the same bits.
    base = make_var_trials(np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)]), 6, 80, seed=18)
    values = np.concatenate([base.values, base.values[[2, 4]]])
    selection = select_var_order(MultiTrialSeries(values), 4)
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(len(values))
        other = select_var_order(MultiTrialSeries(values[perm]), 4)
        assert other.criterion == selection.criterion
        np.testing.assert_array_equal(other.model.coefs, selection.model.coefs)
        np.testing.assert_array_equal(other.model.noise_cov, selection.model.noise_cov)


def test_order_scan_raises_what_fitting_every_order_raises():
    series = make_var_trials(np.array([[[0.5]]]), 2, 32, seed=7)
    dup = MultiTrialSeries(np.repeat(series.values[:, :1], 2, axis=1))
    short = MultiTrialSeries(np.random.default_rng(17).standard_normal((40, 1, 8)))
    for data, max_order, error in ((series, 32, InsufficientDataError),
                                   (short, 8, InsufficientDataError),
                                   (dup, 3, RankDeficiencyError)):
        with pytest.raises(error) as expected:
            reference_select_var_order(data, max_order)
        with pytest.raises(error) as scanned:
            select_var_order(data, max_order)
        assert str(scanned.value) == str(expected.value)


def test_order_scan_warns_once_per_ill_conditioned_order():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 1, 64))
    near = MultiTrialSeries(
        np.concatenate([x, x + 1e-6 * rng.standard_normal((4, 1, 64))], axis=1))
    counts = []
    for select in (reference_select_var_order, select_var_order):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            select(near, 3)
        assert all("ill-conditioned" in str(w.message) for w in caught)
        counts.append(len(caught))
    assert counts == [3, 3]


def test_every_gram_warning_names_the_caller():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 1, 64))
    near = MultiTrialSeries(
        np.concatenate([x, x + 1e-6 * rng.standard_normal((4, 1, 64))], axis=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        select_var_order(near, 3)  # the uncertified scan fits every order with fit_var
        fit_var(near, 2)
    assert [w.filename for w in caught] == [__file__] * 4


def test_order_selection_fits_only_the_chosen_order(monkeypatch):
    orders, passes = [], []
    fit, lag_sums = var.fit_var, var._lag_sums
    monkeypatch.setattr(var, "fit_var", lambda series, order, **kwargs: orders.append(order)
                        or fit(series, order, **kwargs))
    monkeypatch.setattr(var, "_lag_sums", lambda *args: passes.append(args[2])
                        or lag_sums(*args))
    series = make_var_trials(np.stack([0.5 * np.eye(2), -0.4 * np.eye(2)]), 8, 128, seed=12)
    selection = select_var_order(series, 6)
    assert orders == [selection.order]
    assert passes == [6]  # the fit takes the scan's moment and reads no trial again


def _collinear_cores():
    """12 trials of 12 channels and 64 samples of the mixture, channel 1 replaced by channel 0
    plus 1e-5 standard-normal noise, detrended and standardized as the CLI does: every
    order's Gram condition is above the warning level, so the certificate fails."""
    values = simulate_mixture(SimulationConfig(n_trials=12, n_samples=64, seed=3)).values.copy()
    values[:, 1] = values[:, 0] + 1e-5 * np.random.default_rng(0).standard_normal((12, 64))
    return standardize(detrend(MultiTrialSeries(values, sampling_rate=256.0), order=1))


@pytest.mark.parametrize("case", ["certified", "collinear"])
def test_the_scan_fits_each_order_it_cannot_score_once(monkeypatch, case):
    # A certified scan fits the chosen order alone; an uncertified one fits every order
    # once, in ascending order, and keeps the chosen order's fit.
    orders = []
    fit = var.fit_var
    monkeypatch.setattr(var, "fit_var", lambda series, order, **kwargs: orders.append(order)
                        or fit(series, order, **kwargs))
    certified = case == "certified"
    series = _scan_cases()["standardized mixture"][0] if certified else _collinear_cores()
    *_, (_, top_moment) = var._lag_moments(series, 3)
    assert var._grams_certified(series.values, top_moment, 3) == certified
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        selection = select_var_order(series, 3)
    assert orders == ([selection.order] if certified else [1, 2, 3])
    assert len(caught) == (0 if certified else 3)


@pytest.mark.parametrize("case", list(_scan_cases()) + ["fewer samples than twice the top"])
def test_every_fit_is_the_scans_regression_of_its_order(case):
    # No lag sum depends on the scan's top order, so fit_var(series, k) forms the moment
    # the scan scored for order k, bit for bit, also where the first and the last top
    # samples overlap (T < 2 * top).
    if case == "fewer samples than twice the top":
        series = MultiTrialSeries(np.random.default_rng(19).standard_normal((40, 2, 8)))
        top = 7
        assert series.n_samples < 2 * top
    else:
        series, top = _scan_cases()[case]
    n_trials, n_channels, n_samples = series.values.shape
    for k, moment in var._lag_moments(series, top):
        dof = n_trials * (n_samples - k) - n_channels * k
        coef_flat, noise = var._regression(moment, n_channels, dof)
        model = fit_var(series, k)
        np.testing.assert_array_equal(
            model.coefs, coef_flat.reshape(n_channels, k, n_channels).transpose(1, 0, 2))
        np.testing.assert_array_equal(model.noise_cov, noise)
        given = fit_var(series, k, moment=moment)
        np.testing.assert_array_equal(given.coefs, model.coefs)
        np.testing.assert_array_equal(given.noise_cov, model.noise_cov)
    with pytest.raises(DimensionError):
        fit_var(series, 1, moment=moment)


def test_order_selection_hashes_the_trials_once(monkeypatch):
    # the chosen order's fit reads the trial order the scan took from the series; a fit of
    # a new series takes its own
    hashed = []
    order = timeseries.canonical_trial_order
    monkeypatch.setattr(timeseries, "canonical_trial_order",
                        lambda values: hashed.append(len(values)) or order(values))
    series = make_var_trials(np.stack([0.5 * np.eye(2), -0.4 * np.eye(2)]), 8, 128, seed=12)
    selection = select_var_order(series, 6)
    assert hashed == [8]
    assert fit_var(series, selection.order).order == selection.order
    assert hashed == [8]
    refit = fit_var(replace(series), selection.order)
    assert hashed == [8, 8]
    np.testing.assert_array_equal(selection.model.coefs, refit.coefs)
    np.testing.assert_array_equal(selection.model.noise_cov, refit.noise_cov)


def test_order_selection_memory_stays_below_the_per_order_fits():
    # fitting orders 1..10 one by one peaked at 42.6 MB on this input; the one-pass scan
    # and the fit of the chosen order peak at 3.4 MB
    series = standardize(detrend(simulate_mixture(SimulationConfig(seed=3)), order=1))
    select_var_order(series, 2)
    tracemalloc.start()
    try:
        select_var_order(series, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


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


def test_an_exactly_autoregressive_series_fits_with_psd_noise():
    # A sinusoid obeys x(t) = 2 cos(w) x(t-1) - x(t-2), so the order-2 residual
    # covariance is zero up to rounding, where the Schur complement can turn negative.
    t = np.arange(256)
    for phase in np.random.default_rng(0).uniform(0, 2 * np.pi, (20, 4, 1, 1)):
        model = fit_var(MultiTrialSeries(np.sin(0.3 * t + phase)), 2)
        assert 0.0 <= model.noise_cov[0, 0] < 1e-14
        np.testing.assert_allclose(model.coefs[:, 0, 0], [2 * np.cos(0.3), -1.0], atol=1e-9)


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
    full = full_circle(var_spectrum(model, grid))
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


def exact_select_var_order(series, max_order):
    """Test-only oracle: :func:`reference_select_var_order`, which fits every order with
    :func:`fit_var` and scores each by ``slogdet``, as an :class:`OrderSelection`."""
    _, criterion, model = reference_select_var_order(series, max_order)
    return OrderSelection(criterion=criterion, model=model)


def exact_var_spectrum(model, grid):
    """Test-only oracle: the VAR spectrum behind the exact transfer-condition guard
    (an SVD per frequency), contracted by ``einsum``, as before the guard was certified.
    Its phases are the package's, the powers of ``grid.phase``."""
    order, p = model.order, model.n_channels
    phase = np.cumprod(np.repeat(grid.phase[:, None], order, axis=1), axis=1)
    transfer = np.eye(p) - np.einsum("jk,kpq->jpq", phase, model.coefs.astype(complex))
    conds = np.linalg.cond(transfer)
    worst = int(np.argmax(conds))
    if not np.all(np.isfinite(conds)) or conds[worst] > var.TRANSFER_COND_LIMIT:
        raise NearSingularError(
            f"VAR transfer matrix is near singular at frequency index {worst} "
            f"(omega = {grid.omegas[worst]:.6g} rad/sample, condition {conds[worst]:.3g}); "
            "the model has a root at or near the unit circle")
    inv = np.linalg.inv(transfer)
    spec = np.einsum("jpq,qr,jsr->jps", inv, model.noise_cov.astype(complex),
                     np.conj(inv), optimize=True) / (2.0 * np.pi)
    return SpectralEstimate(grid, symmetrize(spec), tag="var")


def assert_same_outcome(got, expected, rounding=False):
    """Two :func:`guard_outcome` records: equal errors and warnings, results bit-equal, but
    for order-scan criteria within :func:`assert_criteria_close` if ``rounding``."""
    (result, warned), (oracle, oracle_warned) = got, expected
    assert warned == oracle_warned
    if isinstance(oracle, tuple):
        assert result == oracle
    elif isinstance(oracle, OrderSelection):
        if rounding:
            assert_criteria_close(result.criterion, oracle.criterion)
        else:
            assert result.criterion == oracle.criterion
        np.testing.assert_array_equal(result.model.coefs, oracle.model.coefs)
        np.testing.assert_array_equal(result.model.noise_cov, oracle.model.noise_cov)
    else:
        np.testing.assert_array_equal(result.matrices, oracle.matrices)


def _collinear(scale, seed=0):
    """Two channels, the second the first plus ``scale`` times independent noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 1, 64))
    return MultiTrialSeries(np.concatenate([x, x + scale * rng.standard_normal((4, 1, 64))],
                                           axis=1))


def _gram_cases():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 1, 64))
    mixture, _ = _scan_cases()["standardized mixture"]
    return {
        # certified: the bound clears GRAM_COND_WARN / 16
        "standardized mixture": (mixture, 10, True),
        "var2": (make_var_trials(np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)]), 8, 128,
                                 seed=14), 6, True),
        # exact conditions of about 4e9: under the warning level, over the bound's
        "uncertified, under the limit": (_collinear(3e-5), 3, False),
        # ill-conditioned: every order warns
        "over the warning level": (_collinear(1e-6), 3, False),
        "exactly singular": (MultiTrialSeries(np.repeat(x, 2, axis=1)), 3, False),
        "1e-200 pivot": (MultiTrialSeries(np.concatenate([x, 1e-100 * x[:, :, ::-1]], axis=1)),
                         3, False),
    }


@pytest.mark.parametrize("case", list(_gram_cases()))
def test_certified_order_scan_matches_the_exact_guard(case):
    series, max_order, certified = _gram_cases()[case]
    *_, (top, top_moment) = var._lag_moments(series, max_order)
    assert var._grams_certified(series.values, top_moment, top) == certified
    expected = guard_outcome(exact_select_var_order, series, max_order)
    # a certified scan scores the orders from Cholesky factors, the others as the oracle does
    assert_same_outcome(guard_outcome(select_var_order, series, max_order), expected,
                        rounding=certified)
    if case in ("exactly singular", "1e-200 pivot"):
        assert expected == ((RankDeficiencyError, expected[0][1]), [])
    if case == "uncertified, under the limit":
        assert expected[1] == []


def test_the_gram_bound_holds_for_every_order():
    # cond_k <= (lmax + ||heads||_F**2) / lmin of the top Gram, by interlacing and Weyl
    for series, max_order in (_scan_cases()["standardized mixture"], (_collinear(1e-3), 6)):
        values, p = series.values, series.n_channels
        moments = list(var._lag_moments(series, max_order))
        eigs = np.linalg.eigvalsh(moments[-1][1][p:, p:])
        lead = values[:, :, :max_order]
        heads = sum((max_order - t) * np.sum(lead[:, :, t] ** 2) for t in range(max_order))
        bound = (eigs[-1] + heads) / eigs[0]
        for _, moment in moments:
            assert var._gram_cond(moment[p:, p:]) <= bound


def _exact_fit(coef, seed=0):
    """Two channels, the second ``coef`` times the first one sample earlier: the order-1
    regression fits it exactly, while its Gram is well conditioned."""
    x = np.random.default_rng(seed).standard_normal((4, 1, 65))
    return MultiTrialSeries(np.concatenate([x[:, :, 1:], coef * x[:, :, :-1]], axis=1))


def _fallback_cases():
    gram = _gram_cases()
    x = np.random.default_rng(22).standard_normal((4, 1, 64))
    return {
        "exactly singular": (MultiTrialSeries(np.concatenate([x, 0.0 * x], axis=1)), 3),
        "1e-200 pivot": gram["1e-200 pivot"][:2],
        "duplicated channel": gram["exactly singular"][:2],
        # certified Grams; the residual covariance is singular but for rounding, and the
        # factor fails in one and leaves a rounding-level pivot in the other
        "exact-fit channel, the factor fails": (_exact_fit(1.0), 1),
        "exact-fit channel, a rounding pivot": (_exact_fit(-2.5), 1),
        # the order-2 Gram has x1(t-2) twice
        "exact-fit channel up to order 3": (_exact_fit(1.0), 3),
    }


@pytest.mark.parametrize("case", list(_fallback_cases()))
def test_order_scan_keeps_the_exact_outcome_where_no_factor_scores(case):
    # Where the certificate fails, the factor fails, or a pivot is rounding alone, the scan
    # takes the oracle's path: its criterion (inf where that is inf), warnings and errors.
    series, max_order = _fallback_cases()[case]
    expected = guard_outcome(exact_select_var_order, series, max_order)
    got = guard_outcome(select_var_order, series, max_order)
    assert_same_outcome(got, expected)
    assert not isinstance(got[0], tuple) or got[0][0] is not np.linalg.LinAlgError
    if max_order == 1:  # the exact fits at order 1: the pivot guard, not the certificate
        moment = next(var._lag_moments(series, 1))[1]
        assert var._grams_certified(series.values, moment, 1)
        assert var._cholesky_logdet(moment, 2) is None
        raises = case.endswith("fails")
        try:
            np.linalg.cholesky(moment[::-1, ::-1])
        except np.linalg.LinAlgError:
            assert raises
        else:
            assert not raises
    else:
        assert expected[0][0] is RankDeficiencyError


def assert_certificate_sound(series, max_order):
    """Where the certificate holds, every candidate order's exact Gram condition is at most
    ``GRAM_COND_WARN / 16``; returns whether it held."""
    p = series.n_channels
    moments = list(var._lag_moments(series, max_order))
    certified = var._grams_certified(series.values, moments[-1][1], max_order)
    if certified:
        for _, moment in moments:
            assert var._gram_cond(moment[p:, p:]) <= var.GRAM_COND_WARN / 16
    return certified


def test_the_certificate_is_sound_on_both_sides_of_its_threshold():
    # the exact conditions grow as scale**-2: about 4e9 at 3e-5 and 1e6 at 1e-3
    scales = (1e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 1e-2, 1e-1)
    held = [assert_certificate_sound(_collinear(scale, seed), max_order)
            for scale in scales for seed in (0, 1) for max_order in (1, 3, 6)]
    assert any(held) and not all(held)


@settings(max_examples=30, deadline=None)
@given(n_trials=st.integers(2, 6), n_channels=st.integers(1, 3), n_samples=st.integers(12, 48),
       max_order=st.integers(1, 5), exponent=st.floats(-7.0, 0.0), seed=st.integers(0, 2 ** 16))
def test_the_certificate_is_sound_on_generated_inputs(n_trials, n_channels, n_samples,
                                                      max_order, exponent, seed):
    # the last channel is the first plus 10**exponent times independent noise
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_trials, n_channels + 1, n_samples))
    values[:, -1] = values[:, 0] + 10.0 ** exponent * values[:, -1]
    series = MultiTrialSeries(values)
    while var._sample_shortfall(values.shape, max_order) is not None:
        max_order -= 1
    if max_order:
        assert_certificate_sound(series, max_order)


@pytest.mark.parametrize("case", ["three trials at the order limit", "standardized mixture"])
def test_the_certificate_factors_the_top_gram_shifted_by_twice_its_margin(case):
    # The certificate holds when lmin(G) > 2 * tau, tau = 16 * (||G||_F + head_mass) /
    # GRAM_COND_WARN, and fails below: shift the top Gram's spectrum to put lmin(G) at
    # 1.9 and at 2.1 times tau.
    series, top = _scan_cases()[case]
    values, p = series.values, series.n_channels
    *_, (_, moment) = var._lag_moments(series, top)
    gram = moment[p:, p:]
    lead = values[:, :, :top]
    head_mass = sum((top - t) * np.sum(lead[:, :, t] ** 2) for t in range(top))
    assert head_mass > 0.1 * np.linalg.norm(gram)  # the head mass moves tau
    lowest = np.linalg.eigvalsh(gram)[0]
    for ratio in (1.9, 2.1):
        shift = 0.0
        for _ in range(3):  # tau moves with the shift by a few parts in 1e10
            tau = 16 * (np.linalg.norm(gram - shift * np.eye(len(gram))) + head_mass) \
                / var.GRAM_COND_WARN
            shift = lowest - ratio * tau
        shifted = moment.copy()
        shifted[p:, p:] -= shift * np.eye(len(gram))
        assert np.linalg.eigvalsh(shifted[p:, p:])[0] == pytest.approx(ratio * tau, rel=1e-3)
        assert var._grams_certified(values, shifted, top) == (ratio > 2)


def test_a_certified_scan_solves_and_decomposes_only_for_the_chosen_fit(monkeypatch):
    # The certificate is one Cholesky factor and each order's criterion another, so the
    # scan calls the solvers and eigendecompositions that fitting the chosen order calls.
    series, top = _scan_cases()["standardized mixture"]
    calls = []
    for name in ("eigvalsh", "eigh", "solve", "slogdet"):
        func = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, _func=func, **kw:
                            calls.append(_name) or _func(*args, **kw))
    selection = select_var_order(series, top)
    scanned = sorted(calls)
    calls.clear()
    fit_var(series, selection.order)
    assert scanned == sorted(calls) and "solve" in calls and "slogdet" not in calls


def _decision_input(kind, n_trials, seed):
    """A small VAR or benchmark-mixture input and its largest candidate order."""
    if kind == "mixture":
        config = SimulationConfig(n_trials=n_trials, n_samples=96, burn_in=100, seed=seed)
        return standardize(detrend(simulate_mixture(config), order=1)), 6
    rng = np.random.default_rng(seed)
    coefs = np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)]) + 0.1 * rng.standard_normal((2, 3, 3))
    return make_var_trials(coefs, n_trials, 64, seed=seed), 5


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["var", "mixture"]), n_trials=st.integers(2, 6),
       seed=st.integers(0, 2 ** 16))
def test_the_order_scan_decides_as_the_exact_scan(kind, n_trials, seed):
    # The Cholesky scores move the criterion in its last digits only: the same order, the
    # same model bit for bit, the same warnings and errors.
    series, max_order = _decision_input(kind, n_trials, seed)
    *_, (top, top_moment) = var._lag_moments(series, max_order)
    certified = var._grams_certified(series.values, top_moment, top)
    expected = guard_outcome(exact_select_var_order, series, max_order)
    assert_same_outcome(guard_outcome(select_var_order, series, max_order), expected,
                        rounding=certified)


@settings(max_examples=20, deadline=None)
@given(n_trials=st.integers(2, 6), exponent=st.floats(-9.0, -4.0), seed=st.integers(0, 2 ** 16))
def test_the_uncertified_scan_is_the_oracle(n_trials, exponent, seed):
    # The last channel is the first plus 10**exponent times independent noise, so the
    # certificate fails on (nearly) every draw: the scan then fits every order as the oracle
    # does, the same criteria and model to the bit, the same warnings in the same order.
    series, max_order = _decision_input("var", n_trials, seed)
    values = series.values.copy()
    noise = np.random.default_rng(seed).standard_normal(values[:, 0].shape)
    values[:, -1] = values[:, 0] + 10.0 ** exponent * noise
    near = MultiTrialSeries(values)
    *_, (top, top_moment) = var._lag_moments(near, max_order)
    certified = var._grams_certified(values, top_moment, top)
    expected = guard_outcome(exact_select_var_order, near, max_order)
    assert_same_outcome(guard_outcome(select_var_order, near, max_order), expected,
                        rounding=certified)


def _transfer_cases():
    def diag(first):
        return VarModel(np.array([[[first, 0.0], [0.0, 0.0]]]), np.eye(2))

    mixture, _ = _scan_cases()["standardized mixture"]
    return {
        "var2": VarModel(np.stack([0.5 * np.eye(3), -0.4 * np.eye(3)]), np.eye(3)),
        "fitted mixture, order 1": fit_var(mixture, 1),
        "fitted mixture, order 5": fit_var(mixture, 5),
        # transfer condition 7e11 at omega = 0: under the limit 1e12, over the bound's 5e11
        "uncertified, under the limit": diag(1.0 - 1.0 / 7e11),
        "over the limit": diag(1.0 - 1.0 / 2e12),
        "exactly singular": diag(1.0),
        # A(0) = [[0, 1e-200], [1, 0]]
        "1e-200 pivot": VarModel(np.array([[[1.0, -1e-200], [-1.0, 1.0]]]), np.eye(2)),
    }


@pytest.mark.parametrize("case", list(_transfer_cases()))
def test_certified_var_spectrum_matches_the_exact_guard(monkeypatch, case):
    model = _transfer_cases()[case]
    grid = FrequencyGrid(64)
    expected = guard_outcome(exact_var_spectrum, model, grid)
    exact = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda x: exact.append(1) or cond(x))
    assert_same_outcome(guard_outcome(var_spectrum, model, grid), expected)
    assert exact == ([] if case.startswith(("var2", "fitted")) else [1])
    if case in ("over the limit", "exactly singular", "1e-200 pivot"):
        assert expected[0][0] is NearSingularError and expected[1] == []
