"""Risk curves, the combination weight, and the full shrinkage pipeline."""

import numpy as np
import pytest

from specshrink import (
    ESTIMATOR_TAGS,
    ESTIMATORS,
    DimensionError,
    DomainError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    PipelineError,
    PipelineOptions,
    ShrinkageDiagnostics,
    SpectralEstimate,
    combine_estimates,
    estimator_separation,
    extend_full_circle,
    hs_norm_sq,
    risk_vs_pilot,
    shrinkage_diagnostics,
    shrinkage_pipeline,
    shrinkage_weight,
)
from specshrink.shrinkage import _window_indices, _windowed_distance


def scalar_estimate(values, n_samples, tag="var"):
    mats = np.asarray(values, dtype=complex)[:, None, None]
    return SpectralEstimate(FrequencyGrid(n_samples), mats, tag=tag)


def random_estimate(rng, n_samples, p, tag="var"):
    half = n_samples // 2 + 1
    mats = rng.standard_normal((half, p, p)) + 1j * rng.standard_normal((half, p, p))
    mats = mats @ np.conj(np.swapaxes(mats, -1, -2))  # Hermitian PSD
    mats[0] = mats[0].real
    if n_samples % 2 == 0:
        mats[-1] = mats[-1].real
    return SpectralEstimate(FrequencyGrid(n_samples), mats, tag=tag)


def test_window_one_risk_is_pointwise_distance():
    rng = np.random.default_rng(0)
    est = random_estimate(rng, 16, 2)
    pilot = random_estimate(rng, 16, 2, tag="raw_mean")
    risk = risk_vs_pilot(est, pilot, 1)
    np.testing.assert_allclose(risk, hs_norm_sq(est.matrices - pilot.matrices), atol=1e-14)


def test_constant_curves_risk():
    # pilot identically 1, estimate identically 2: every window term is 1
    pilot = scalar_estimate(np.ones(9), 16, tag="raw_mean")
    est = scalar_estimate(2 * np.ones(9), 16)
    np.testing.assert_allclose(risk_vs_pilot(est, pilot, 3), np.ones(9), atol=1e-14)
    np.testing.assert_allclose(risk_vs_pilot(pilot, pilot, 5), np.zeros(9), atol=1e-14)


def test_windowed_risk_brute_force():
    rng = np.random.default_rng(1)
    for n_samples, window in ((16, 3), (15, 5), (16, 7)):
        est = random_estimate(rng, n_samples, 2)
        pilot = random_estimate(rng, n_samples, 2, tag="raw_mean")
        risk = risk_vs_pilot(est, pilot, window)
        full = extend_full_circle(pilot.matrices, n_samples)
        half = (window - 1) // 2
        for j in range(est.grid.n_frequencies):
            terms = [hs_norm_sq(est.matrices[j] - full[(j + k) % n_samples])
                     for k in range(-half, half + 1)]
            assert risk[j] == pytest.approx(np.mean(terms), rel=1e-12)


def _four_d_windowed_distance(point, other_full, idx):
    """The (n_freq, window, P, P) one-liner the per-offset loop replaced."""
    return hs_norm_sq(point[:, None, :, :] - other_full[idx]).mean(axis=1)


@pytest.mark.parametrize("n_samples", [64, 255, 256])
@pytest.mark.parametrize("p", [1, 3])
def test_windowed_distance_matches_the_four_d_oracle_bit_for_bit(n_samples, p):
    rng = np.random.default_rng([n_samples, p])
    point = random_estimate(rng, n_samples, p)
    other = random_estimate(rng, n_samples, p, tag="raw_mean")
    full = other.full_circle()
    largest = n_samples - 1 if n_samples % 2 == 0 else n_samples - 2
    for window in (1, 7, 15, 31, largest):
        idx = _window_indices(window, point.grid)
        np.testing.assert_array_equal(
            _windowed_distance(point.matrices, full, idx),
            _four_d_windowed_distance(point.matrices, full, idx))


def test_risk_curve_memory_does_not_grow_with_the_window():
    import tracemalloc

    rng = np.random.default_rng(6)
    param = random_estimate(rng, 256, 8)
    nonparam = random_estimate(rng, 256, 8, tag="smoothed")
    pilot = random_estimate(rng, 256, 8, tag="raw_mean")
    peaks = {}
    tracemalloc.start()
    try:
        for window in (3, 31):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            shrinkage_diagnostics(param, nonparam, pilot, window)
            peaks[window] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks[31] <= 1.5 * peaks[3], peaks


def test_separation_is_symmetric_and_vanishes_on_agreement():
    rng = np.random.default_rng(2)
    a = random_estimate(rng, 32, 2)
    b = random_estimate(rng, 32, 2, tag="smoothed")
    ab = estimator_separation(a, b, 5)
    ba = estimator_separation(b, a, 5)
    np.testing.assert_array_equal(ab, ba)
    assert np.all(ab >= 0)
    # pointwise equality alone is not enough (the window compares an
    # estimator to its neighbour's values); equal *constant* curves are
    np.testing.assert_allclose(estimator_separation(a, a, 1), 0.0, atol=1e-14)
    const = scalar_estimate(np.full(17, 2.0), 32)
    same = scalar_estimate(np.full(17, 2.0), 32, tag="smoothed")
    np.testing.assert_allclose(estimator_separation(const, same, 5), 0.0, atol=1e-14)


def test_window_validation():
    rng = np.random.default_rng(3)
    est = random_estimate(rng, 16, 1)
    pilot = random_estimate(rng, 16, 1, tag="raw_mean")
    for bad in (0, 2, -3, 17):
        with pytest.raises(DomainError):
            risk_vs_pilot(est, pilot, bad)
    other = random_estimate(rng, 32, 1, tag="raw_mean")
    with pytest.raises(DimensionError):
        risk_vs_pilot(est, other, 3)


def test_weight_plugin_cases_hold_exactly():
    for b in (0.5, 1.0, 7.0):
        raw, w = shrinkage_weight(0.0, b, b)
        assert raw == 1.0 and w == 1.0
    for a in (0.5, 2.0):
        raw, w = shrinkage_weight(a, 0.0, a)
        assert raw == 0.0 and w == 0.0
    for d in (0.25, 1.0, 3.0):
        raw, w = shrinkage_weight(d, d, d)
        assert raw == 0.5 and w == 0.5
    raw, w = shrinkage_weight(0.1, 0.2, 1.0)
    assert raw == (0.2 - 0.5 * (0.1 + 0.2 - 1.0)) / 1.0
    assert raw == 0.55 and w == 0.55


def test_weight_clamping_is_exact():
    raw, w = shrinkage_weight(10.0, 0.0, 1.0)
    assert raw < 0 and w == 0.0
    raw, w = shrinkage_weight(0.0, 10.0, 1.0)
    assert raw > 1 and w == 1.0
    # zero separation: defined as zero weight
    raw, w = shrinkage_weight(0.0, 0.0, 0.0)
    assert raw == 0.0 and w == 0.0


def test_weight_array_form_and_validation():
    raw, w = shrinkage_weight(np.array([0.1, 1.0]), np.array([0.2, 1.0]), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(raw, [0.55, 0.0])
    np.testing.assert_array_equal(w, np.clip(raw, 0.0, 1.0))
    with pytest.raises(DomainError):
        shrinkage_weight(-0.1, 0.0, 1.0)
    with pytest.raises(DomainError):
        shrinkage_weight(np.nan, 0.0, 1.0)


def test_weight_scale_equivariance():
    rng = np.random.default_rng(4)
    alpha = rng.uniform(0.1, 2.0, size=20)
    beta = rng.uniform(0.1, 2.0, size=20)
    delta = rng.uniform(0.1, 2.0, size=20)
    raw, _ = shrinkage_weight(alpha, beta, delta)
    for c2 in (1e-6, 0.37, 5000.0):
        scaled_raw, _ = shrinkage_weight(c2 * alpha, c2 * beta, c2 * delta)
        np.testing.assert_allclose(scaled_raw, raw, rtol=1e-10)


def test_weight_monotone_in_risks():
    raws = [shrinkage_weight(a, 1.0, 1.0)[0] for a in (0.0, 0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(raws, raws[1:]))
    raws = [shrinkage_weight(1.0, b, 1.0)[0] for b in (0.0, 0.5, 1.0, 2.0)]
    assert all(x < y for x, y in zip(raws, raws[1:]))


def test_combine_endpoint_weights_are_exact():
    rng = np.random.default_rng(5)
    param = random_estimate(rng, 16, 2)
    nonparam = random_estimate(rng, 16, 2, tag="smoothed")
    np.testing.assert_array_equal(combine_estimates(param, nonparam, 1.0).matrices,
                                  param.matrices)
    np.testing.assert_array_equal(combine_estimates(param, nonparam, 0.0).matrices,
                                  nonparam.matrices)


def test_combine_scalar_case():
    param = scalar_estimate(2 * np.ones(9), 16)
    nonparam = scalar_estimate(4 * np.ones(9), 16, tag="smoothed")
    out = combine_estimates(param, nonparam, 0.5)
    assert out.tag == "shrinkage"
    np.testing.assert_allclose(out.matrices[:, 0, 0].real, 3.0, atol=1e-14)


def test_combine_validation():
    rng = np.random.default_rng(6)
    param = random_estimate(rng, 16, 2)
    nonparam = random_estimate(rng, 16, 2, tag="smoothed")
    with pytest.raises(DomainError):
        combine_estimates(param, nonparam, 1.5)
    with pytest.raises(DimensionError):
        combine_estimates(param, nonparam, np.full(4, 0.5))
    with pytest.raises(DimensionError):
        combine_estimates(param, random_estimate(rng, 32, 2), 0.5)


def test_diagnostics_bundle_consistency():
    rng = np.random.default_rng(7)
    param = random_estimate(rng, 32, 2)
    nonparam = random_estimate(rng, 32, 2, tag="smoothed")
    pilot = random_estimate(rng, 32, 2, tag="raw_mean")
    diag = shrinkage_diagnostics(param, nonparam, pilot, window=5)
    assert diag.window == 5
    np.testing.assert_array_equal(diag.weight, np.clip(diag.weight_raw, 0.0, 1.0))
    np.testing.assert_allclose(diag.param_risk, risk_vs_pilot(param, pilot, 5), atol=1e-14)
    np.testing.assert_allclose(diag.separation,
                               estimator_separation(param, nonparam, 5), atol=1e-14)
    with pytest.raises(DomainError):
        ShrinkageDiagnostics(grid=diag.grid, window=5, param_risk=-diag.param_risk,
                             nonparam_risk=diag.nonparam_risk, separation=diag.separation,
                             weight_raw=diag.weight_raw)


def white_series(seed, n_trials=8, p=2, n_samples=64):
    rng = np.random.default_rng(seed)
    return MultiTrialSeries(rng.standard_normal((n_trials, p, n_samples)))


def test_pipeline_on_white_noise():
    result = shrinkage_pipeline(white_series(8, n_trials=40, n_samples=128),
                                PipelineOptions(max_order=3))
    assert result.estimate.tag == "shrinkage"
    assert result.estimate.validate().ok
    diags = np.diagonal(result.estimate.matrices[3:-3], axis1=1, axis2=2).real
    np.testing.assert_allclose(diags, 1 / (2 * np.pi), rtol=0.25)
    assert abs(diags.mean() - 1 / (2 * np.pi)) < 0.1 / (2 * np.pi)
    assert result.order == len(result.model.coefs)
    assert result.parametric.tag == "var" and result.nonparametric.tag == "smoothed"
    assert len(result.smoothing.selected_spans) == 40


def test_pipeline_scale_equivariance_of_weights():
    series = white_series(9, n_trials=6, n_samples=64)
    base = shrinkage_pipeline(series, PipelineOptions(max_order=2))
    scaled = shrinkage_pipeline(MultiTrialSeries(3.7 * series.values),
                                PipelineOptions(max_order=2))
    # squared distances scale by 3.7**4; the weight is scale-free
    ratio = 3.7 ** 4
    np.testing.assert_allclose(scaled.diagnostics.param_risk,
                               ratio * base.diagnostics.param_risk, rtol=1e-10)
    np.testing.assert_allclose(scaled.diagnostics.nonparam_risk,
                               ratio * base.diagnostics.nonparam_risk, rtol=1e-10)
    np.testing.assert_allclose(scaled.diagnostics.separation,
                               ratio * base.diagnostics.separation, rtol=1e-10)
    np.testing.assert_allclose(scaled.diagnostics.weight_raw,
                               base.diagnostics.weight_raw, rtol=1e-10, atol=1e-12)


def test_pipeline_fixed_weight_one_returns_var_spectrum():
    series = white_series(10, n_trials=5)
    result = shrinkage_pipeline(series, PipelineOptions(var_order=1, fixed_weight=1.0))
    np.testing.assert_array_equal(result.estimate.matrices, result.parametric.matrices)
    np.testing.assert_array_equal(result.diagnostics.weight, 1.0)
    zero = shrinkage_pipeline(series, PipelineOptions(var_order=1, fixed_weight=0.0))
    np.testing.assert_array_equal(zero.estimate.matrices, zero.nonparametric.matrices)


def test_pipeline_is_deterministic():
    series = white_series(11, n_trials=4)
    a = shrinkage_pipeline(series, PipelineOptions(max_order=2))
    b = shrinkage_pipeline(series, PipelineOptions(max_order=2))
    np.testing.assert_array_equal(a.estimate.matrices, b.estimate.matrices)
    np.testing.assert_array_equal(a.diagnostics.weight, b.diagnostics.weight)


def test_pipeline_errors_name_their_stage():
    series = white_series(12, n_trials=3)
    with pytest.raises(InsufficientDataError):
        shrinkage_pipeline(MultiTrialSeries(series.values[:1]))
    dup = MultiTrialSeries(np.repeat(series.values[:, :1], 2, axis=1))
    with pytest.raises(PipelineError) as info:
        shrinkage_pipeline(dup, PipelineOptions(var_order=1))
    assert info.value.stage == "var_fit"
    with pytest.raises(PipelineError) as info:
        shrinkage_pipeline(series, PipelineOptions(var_order=1, span_grid=(3, 65)))
    assert info.value.stage == "smoothing"
    with pytest.raises(DomainError):
        PipelineOptions(fixed_weight=1.2)
    with pytest.raises(DomainError):
        PipelineOptions(var_order=0)


@pytest.mark.parametrize("settings", [
    {"window": 4}, {"window": 0}, {"window": -3}, {"window": 15.0}, {"window": True},
    {"max_order": 0}, {"max_order": -1}, {"max_order": 2.0}, {"max_order": True},
])
def test_pipeline_options_reject_bad_windows_and_orders(settings):
    with pytest.raises(DomainError):
        PipelineOptions(**settings)


def test_estimator_table_names_every_tag_but_truth():
    assert list(ESTIMATORS) == ["raw_mean", "smoothed", "var", "multitaper", "shrinkage"]
    assert set(ESTIMATOR_TAGS) == set(ESTIMATORS) | {"truth"}


@pytest.mark.parametrize("name", list(ESTIMATORS))
@pytest.mark.parametrize("n_samples", [32, 33])
@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("n_trials", [2, 5])
def test_every_estimator_returns_a_valid_estimate_with_its_tag(name, n_samples, n_channels,
                                                               n_trials):
    rng = np.random.default_rng([n_samples, n_channels, n_trials])
    series = MultiTrialSeries(rng.standard_normal((n_trials, n_channels, n_samples)))
    estimate, record = ESTIMATORS[name](series, PipelineOptions(max_order=2, window=5))
    assert estimate.tag == name
    assert estimate.matrices.shape == (n_samples // 2 + 1, n_channels, n_channels)
    assert estimate.validate().ok
    assert set(record) <= {"var_order", "selected_spans", "window", "tapers", "weights"}
