"""Risk curves, the combination weight, and the full shrinkage pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    hs_norm_sq,
    jackknife_band_stats,
    shrinkage_diagnostics,
    shrinkage_pipeline,
    shrinkage_weight,
)
from specshrink import periodogram, simulate_mixture, timeseries
from conftest import extend_full_circle


def risk_vs_pilot(estimate, pilot, window):
    """The windowed risk of ``estimate`` against ``pilot``, as :func:`shrinkage_diagnostics`
    computes each estimator's risk."""
    return shrinkage_diagnostics(estimate, estimate, pilot, window).param_risk


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


def brute_force_risk(point, other, window):
    """``mean_o ||point(w) - other(w + o)||^2`` and the magnitudes that the closed form
    cancels, ``||point(w)||^2 + mean_o ||other(w + o)||^2`` (both normalized), from
    :func:`_four_d_windowed_distance` on ``other``'s full circle, a block of rows at a
    time so memory stays small."""
    n_samples, n_freq = point.grid.n_samples, point.grid.n_frequencies
    half = (window - 1) // 2
    full = extend_full_circle(other.matrices, n_samples)
    idx = (np.arange(n_freq)[:, None] + np.arange(-half, half + 1)) % n_samples
    step = max(1, 2 ** 16 // (window * point.n_channels ** 2))
    blocks = range(0, n_freq, step)
    risk = np.concatenate([_four_d_windowed_distance(point.matrices[r:r + step], full,
                                                     idx[r:r + step]) for r in blocks])
    scale = hs_norm_sq(point.matrices) + hs_norm_sq(full)[idx].mean(axis=1)
    return risk, scale


def assert_risks_match_brute_force(param, nonparam, pilot, window, case):
    diag = shrinkage_diagnostics(param, nonparam, pilot, window)
    for got, point in ((diag.param_risk, param), (diag.nonparam_risk, nonparam)):
        oracle, scale = brute_force_risk(point, pilot, window)
        assert np.all(np.abs(got - oracle) <= 1e-13 * scale), case
    one, one_scale = brute_force_risk(param, nonparam, window)
    other, other_scale = brute_force_risk(nonparam, param, window)
    oracle = 0.5 * (one + other)
    assert np.all(np.abs(diag.separation - oracle) <= 0.5e-13 * (one_scale + other_scale)), case
    np.testing.assert_array_equal(diag.separation,
                                  estimator_separation(nonparam, param, window), err_msg=case)


@pytest.mark.parametrize("n_samples", [7, 64, 65, 255, 256])
@pytest.mark.parametrize("p", [1, 3, 12])
def test_risk_curves_match_the_four_d_oracle(n_samples, p):
    # Every window that fits the circle (every eighth and the largest at 12 channels
    # and T >= 255, where the oracle alone takes seconds), up to the rounding of the
    # magnitudes that the closed form cancels; the separation is symmetric bit for bit.
    rng = np.random.default_rng([n_samples, p])
    param = random_estimate(rng, n_samples, p)
    nonparam = random_estimate(rng, n_samples, p, tag="smoothed")
    pilot = random_estimate(rng, n_samples, p, tag="raw_mean")
    windows = list(range(1, n_samples, 2))
    if p == 12 and n_samples >= 255:
        windows = windows[::8] + windows[-1:]
    for window in windows:
        assert_risks_match_brute_force(param, nonparam, pilot, window,
                                       f"T={n_samples} P={p} window={window}")


@pytest.mark.parametrize("n_samples", [7, 64, 65, 256])
@pytest.mark.parametrize("p", [1, 3])
def test_separation_from_one_table_matches_the_two_table_formula_bit_for_bit(n_samples, p):
    # The separation is the two-table formula, the mean of the two one-sided windowed
    # distances (each estimator's risk against the other as pilot), bit for bit, so the
    # weight's risks and separation share one formula; and it is symmetric.
    rng = np.random.default_rng([n_samples, p, 1])
    a = random_estimate(rng, n_samples, p)
    b = random_estimate(rng, n_samples, p, tag="smoothed")
    for window in range(1, min(32, n_samples), 2):
        two_tables = 0.5 * (risk_vs_pilot(a, b, window) + risk_vs_pilot(b, a, window))
        ab = estimator_separation(a, b, window)
        np.testing.assert_array_equal(ab, two_tables)
        np.testing.assert_array_equal(ab, estimator_separation(b, a, window))


def test_risk_curves_match_the_four_d_oracle_on_pipeline_estimates():
    # The VAR, smoothed and pilot estimates of the default 120 x 12 x 256 mixture.
    result = shrinkage_pipeline(simulate_mixture(), PipelineOptions(max_order=2))
    for window in (1, 3, 15, 31, 63, 255):
        assert_risks_match_brute_force(result.parametric, result.nonparametric,
                                       result.pilot, window, f"window={window}")


def test_risk_curves_are_clamped_at_zero():
    # Equal constant curves are at distance 0; the expansion cancels them to
    # rounding (below zero for 0.7 and 7.3 at window 5, 3.5e-18 for 0.1 at window
    # 15), which is within the rounding bound of its terms, so every curve is
    # exactly 0 and so is the raw weight.
    for value in (0.1, 1 / 3, 0.7, 7.3):
        const = scalar_estimate(np.full(17, value), 32)
        same = scalar_estimate(np.full(17, value), 32, tag="smoothed")
        for window in (3, 5, 15, 31):
            diag = shrinkage_diagnostics(const, same, const, window)
            for curve in (diag.param_risk, diag.nonparam_risk, diag.separation,
                          diag.weight_raw):
                np.testing.assert_array_equal(curve, 0.0)


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
    assert result.parametric.tag == "var" and result.nonparametric.tag == "smoothed"
    assert len(result.smoothing.selected_spans) == 40


def test_pipeline_memory_stays_below_the_per_trial_periodograms():
    # Every trial's periodogram matrices alone would take 40 * 257 * 16**2 * 16 B = 42.1 MB;
    # the pipeline keeps the trials' DFTs (2.6 MB) and peaks near 16 MB.
    import tracemalloc

    series = white_series(16, n_trials=40, p=16, n_samples=512)
    tracemalloc.start()
    try:
        result = shrinkage_pipeline(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.estimate.validate().ok
    assert peak < 42e6 / 2, peak


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
    with pytest.raises(PipelineError) as info:  # the taper selection needs two trials
        ESTIMATORS["multitaper"](MultiTrialSeries(series.values[:1]), PipelineOptions())
    assert info.value.stage == "multitaper"
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


def assert_same_record(got, expected, perm):
    """Equal choices, with the per-trial spans of ``got`` those of ``expected``'s trials
    listed in the order ``perm``."""
    assert list(got) == list(expected)
    for key, value in expected.items():
        if key == "selected_spans":
            assert got[key] == tuple(value[n] for n in perm)
        elif key == "weights":
            for name in ("param_risk", "nonparam_risk", "separation", "weight_raw"):
                np.testing.assert_array_equal(getattr(got[key], name), getattr(value, name))
        else:
            assert got[key] == value, key


# Every sum over trials visits the trials in the series' canonical order, so a
# permutation changes no bit of any estimate, weight or jackknife statistic, also when
# two trials are byte-identical; per-trial records move with their trials.

@settings(max_examples=10, deadline=None)
@given(n_trials=st.integers(3, 7), n_channels=st.integers(1, 3), n_samples=st.integers(32, 96),
       duplicated=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_every_estimator_keeps_its_bits_under_trial_permutations(n_trials, n_channels,
                                                                 n_samples, duplicated, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_trials, n_channels, n_samples))
    if duplicated:
        values = np.concatenate([values, values[rng.integers(n_trials)][None]])
    options = PipelineOptions(max_order=3, window=5)
    expected = {name: ESTIMATORS[name](MultiTrialSeries(values), options) for name in ESTIMATORS}
    for _ in range(2):
        perm = rng.permutation(len(values))
        permuted = MultiTrialSeries(values[perm])
        for name, (estimate, record) in expected.items():
            got, got_record = ESTIMATORS[name](permuted, options)
            np.testing.assert_array_equal(got.matrices, estimate.matrices, err_msg=name)
            assert_same_record(got_record, record, perm)


@pytest.mark.parametrize("duplicated", [False, True])
def test_the_jackknife_keeps_its_bits_under_trial_permutations(duplicated):
    rng = np.random.default_rng(24)
    values = rng.standard_normal((6, 3, 64))
    if duplicated:
        values = np.concatenate([values, values[2:3]])
    options = PipelineOptions(max_order=3, window=5)
    stats = jackknife_band_stats(MultiTrialSeries(values, sampling_rate=64.0), (8.0, 20.0),
                                 options)
    for _ in range(3):
        permuted = MultiTrialSeries(values[rng.permutation(len(values))], sampling_rate=64.0)
        other = jackknife_band_stats(permuted, (8.0, 20.0), options)
        np.testing.assert_array_equal(other.mean_z, stats.mean_z)
        np.testing.assert_array_equal(other.se, stats.se)


def test_estimators_on_one_series_compute_its_periodograms_and_trial_order_once(monkeypatch):
    calls = []
    compute, order = periodogram.compute_periodograms, timeseries.canonical_trial_order
    monkeypatch.setattr(periodogram, "compute_periodograms",
                        lambda series: calls.append("periodograms") or compute(series))
    monkeypatch.setattr(timeseries, "canonical_trial_order",
                        lambda values: calls.append("trial order") or order(values))
    series = MultiTrialSeries(np.random.default_rng(21).standard_normal((6, 3, 64)))
    options = PipelineOptions(max_order=3, window=5)
    for name in ("smoothed", "multitaper", "shrinkage"):
        ESTIMATORS[name](series, options)
    assert sorted(calls) == ["periodograms", "trial order"]
    # the estimates are those of a series that computes everything afresh
    for name in ("smoothed", "multitaper", "shrinkage"):
        fresh = MultiTrialSeries(series.values.copy())
        assert np.array_equal(ESTIMATORS[name](series, options)[0].matrices,
                              ESTIMATORS[name](fresh, options)[0].matrices)
