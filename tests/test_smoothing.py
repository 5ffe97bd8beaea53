"""Hann-kernel smoothing and leave-one-out span selection."""

import itertools
import tracemalloc

import numpy as np
import pytest

from specshrink import (
    DimensionError,
    DomainError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    default_span_grid,
    hann_weights,
    hs_norm_sq,
    simulate_var,
    smooth_periodogram,
    smoothed_estimator,
    span_risks,
)
from specshrink import smoothing
from specshrink.periodogram import periodogram_sum
from specshrink.smoothing import _span_kernels

from conftest import extend_full_circle, full_circle_smooth, stacked_periodograms


def test_hann_weights_span3():
    np.testing.assert_allclose(hann_weights(3), [0.25, 0.5, 0.25], atol=1e-15)


def test_hann_weights_properties():
    for span in (1, 5, 9, 25):
        w = hann_weights(span)
        assert w.shape == (span,)
        assert w.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(w, w[::-1])
        assert np.all(w > 0)
    with pytest.raises(DomainError):
        hann_weights(4)
    with pytest.raises(DomainError):
        hann_weights(-3)


def test_default_span_grid():
    assert default_span_grid(256) == tuple(range(3, 64, 2))
    assert default_span_grid(16) == (3,)
    # longer records cap at 63
    assert default_span_grid(10_000)[-1] == 63
    with pytest.raises(InsufficientDataError):
        default_span_grid(8)


def test_validate_span_grid():
    # a span grid is nonempty, odd and strictly increasing, wherever it enters
    series = MultiTrialSeries(np.random.default_rng(0).standard_normal((3, 2, 32)))
    assert smoothed_estimator(series, span_grid=[3, 5, 9])[1].span_grid == (3, 5, 9)
    np.testing.assert_array_equal(span_risks(series, [3, 5, 9]), span_risks(series, (3, 5, 9)))
    for bad in ([], [3, 4], [5, 3]):
        with pytest.raises(DomainError):
            span_risks(series, bad)
        with pytest.raises(DomainError):
            smoothed_estimator(series, span_grid=bad)


def test_span_one_is_identity():
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    out = smooth_periodogram(mats, 1, 16)
    np.testing.assert_array_equal(out, mats)


def test_smoothing_known_values():
    # an isolated spike spreads by exactly the kernel weights
    T = 16
    half = T // 2 + 1
    mats = np.zeros((half, 1, 1), dtype=complex)
    mats[4, 0, 0] = 8.0
    out = smooth_periodogram(mats, 3, T)[:, 0, 0].real
    np.testing.assert_allclose(out[3:6], [2.0, 4.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(np.delete(out, [3, 4, 5]), 0.0, atol=1e-12)


def test_smoothing_wraps_around_frequency_zero():
    # the window at omega=0 straddles the circle: bins +1 and -1 (= T-1,
    # the conjugate reflection of +1, here zero) are its neighbours, so the
    # spike keeps w0*4 at bin 0 and sends w1*4 to bin 1
    T = 16
    half = T // 2 + 1
    mats = np.zeros((half, 1, 1), dtype=complex)
    mats[0, 0, 0] = 4.0
    out = smooth_periodogram(mats, 3, T)[:, 0, 0].real
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(1.0)
    np.testing.assert_allclose(out[2:], 0.0, atol=1e-12)


def test_smoothing_conserves_full_circle_mass():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 64))
    own = stacked_periodograms(MultiTrialSeries(x))[0]
    raw_full = extend_full_circle(own, 64)
    for span in (3, 7, 21):
        sm = smooth_periodogram(own, span, 64)
        sm_full = extend_full_circle(sm, 64)
        np.testing.assert_allclose(sm_full.sum(axis=0), raw_full.sum(axis=0), atol=1e-10)


def test_smoothing_output_is_hermitian():
    rng = np.random.default_rng(2)
    own = stacked_periodograms(MultiTrialSeries(rng.standard_normal((1, 3, 32))))[0]
    sm = smooth_periodogram(own, 5, 32)
    np.testing.assert_array_equal(sm, np.conj(np.swapaxes(sm, -1, -2)))


@pytest.mark.parametrize("n_samples", [64, 65, 255, 256])
def test_smoothing_matches_the_full_circle_oracle(n_samples):
    # The lag-domain route against the complex FFT of the full circle, for every
    # default-grid span, on one trial's periodogram and on a trial sum.
    series = MultiTrialSeries(np.random.default_rng(n_samples).standard_normal((5, 12, n_samples)))
    pgrams = series.periodograms
    for matrices in (stacked_periodograms(series)[0], pgrams.total):
        for span in default_span_grid(n_samples):
            expected = full_circle_smooth(matrices, span, n_samples)
            error = np.linalg.norm(smooth_periodogram(matrices, span, n_samples) - expected)
            assert error <= 1e-15 * np.linalg.norm(expected), (span, error)


def test_smoothing_output_is_hermitian_bit_for_bit():
    own = stacked_periodograms(MultiTrialSeries(np.random.default_rng(11).standard_normal(
        (1, 4, 65))))[0]
    rows, cols = np.triu_indices(4, k=1)
    for span in (3, 9, 31):
        sm = smooth_periodogram(own, span, 65)
        assert sm[:, rows, cols].tobytes() == np.conj(sm[:, cols, rows]).tobytes()
        diagonal = np.diagonal(sm, axis1=1, axis2=2)
        assert np.all(diagonal.imag == 0.0) and not np.any(np.signbit(diagonal.imag))


def test_smoothing_rejects_a_bad_shape():
    for shape in ((8, 2, 2), (9, 2, 3), (9, 4), (1, 9, 2, 2)):
        with pytest.raises(DimensionError):
            smooth_periodogram(np.zeros(shape, dtype=complex), 3, 16)


def test_smoothing_reduces_white_noise_variance_monotonically():
    rng = np.random.default_rng(3)
    own = stacked_periodograms(MultiTrialSeries(rng.standard_normal((1, 1, 256))))[0]
    flat = 1 / (2 * np.pi)
    errors = []
    for span in (1, 5, 25):
        sm = smooth_periodogram(own, span, 256)[:, 0, 0].real
        errors.append(np.var(sm[1:-1] - flat))
    assert errors[0] > errors[1] > errors[2]


def test_select_span_is_exhaustive_argmin():
    rng = np.random.default_rng(4)
    series = MultiTrialSeries(rng.standard_normal((4, 2, 64)))
    grid = (3, 5, 9, 15)
    _, config = smoothed_estimator(series, span_grid=grid)
    every = span_risks(series, grid)
    for trial in range(4):
        risks = every[trial]
        assert config.selected_spans[trial] == grid[int(np.argmin(risks))]
        assert risks.shape == (4,)
        assert np.all(risks >= 0)


def leave_one_out(stack, trial):
    """The stacked periodograms of ``trial`` and the mean of all the others."""
    return stack[trial], np.delete(stack, trial, axis=0).mean(axis=0)


def per_trial_span_risks(stack, n_samples, trial, span_grid):
    """Test-only reference: one trial's risks from full-circle FFTs of it and its pilot,
    read from the stacked per-trial periodograms of a record of ``n_samples``."""
    grid = tuple(span_grid)
    transfers, weights = _span_kernels(grid, n_samples)
    own, pilot = leave_one_out(stack, trial)
    n_channels = own.shape[-1]
    own_full = extend_full_circle(own, n_samples)
    pilot_full = extend_full_circle(pilot, n_samples)
    f_own = np.fft.fft(own_full, axis=0).reshape(n_samples, -1)
    f_pilot = np.fft.fft(pilot_full, axis=0).reshape(n_samples, -1)
    pilot_sq = np.sum(f_pilot.real ** 2 + f_pilot.imag ** 2)
    cross = np.sum(f_pilot.real * f_own.real + f_pilot.imag * f_own.imag, axis=1)
    own_sq = np.sum(f_own.real ** 2 + f_own.imag ** 2, axis=1)
    full_circle = np.maximum(
        (pilot_sq - 2.0 * (transfers @ cross) + (transfers ** 2) @ own_sq) / n_samples, 0.0)
    half = (weights.shape[1] - 1) // 2
    offsets = np.arange(-half, half + 1)
    endpoints = [0, n_samples // 2] if n_samples % 2 == 0 else [0]
    for j in endpoints:
        window = own_full[(j + offsets) % n_samples].reshape(len(offsets), -1)
        diff = pilot_full[j].reshape(1, -1) - weights @ window
        full_circle += np.sum(diff.real ** 2 + diff.imag ** 2, axis=1)
    return (np.pi / n_samples) * full_circle / n_channels


def per_trial_select_span(stack, n_samples, trial, span_grid):
    """Test-only reference: the smallest span minimizing :func:`per_trial_span_risks`."""
    grid = tuple(span_grid)
    return int(grid[int(np.argmin(per_trial_span_risks(stack, n_samples, trial, grid)))])


def direct_span_risks(stack, n_samples, trial, span_grid):
    """Test-only reference: smooth the trial once per span and sum the half grid."""
    own, pilot = leave_one_out(stack, trial)
    return np.array([
        (2 * np.pi / n_samples)
        * float(np.sum(hs_norm_sq(pilot - smooth_periodogram(own, span, n_samples))))
        for span in span_grid])


def test_span_risk_matches_direct_computation():
    # every trial's row against the per-trial FFT oracle and the direct sum:
    # even and odd T, P in {1, 3}, N in {2, 4}; a one-span grid, grids with
    # span 1, the default grid and one reaching the largest odd span below T
    for n_samples, n_channels, n_trials in itertools.product((32, 33), (1, 3), (2, 4)):
        rng = np.random.default_rng((5, n_samples, n_channels, n_trials))
        series = MultiTrialSeries(rng.standard_normal((n_trials, n_channels, n_samples)))
        stack = stacked_periodograms(series)
        largest = n_samples - 1 if n_samples % 2 == 0 else n_samples - 2
        for grid in [(5,), (1, 3, 7), (3, 5, 9, 15), default_span_grid(n_samples),
                     tuple(range(1, largest + 1, 2))]:
            risks = span_risks(series, grid)
            assert risks.shape == (n_trials, len(grid))
            for trial in range(n_trials):
                case = f"T={n_samples} P={n_channels} N={n_trials} grid={grid} trial={trial}"
                oracle = per_trial_span_risks(stack, n_samples, trial, grid)
                direct = direct_span_risks(stack, n_samples, trial, grid)
                np.testing.assert_allclose(risks[trial], oracle, rtol=1e-13, atol=0,
                                           err_msg=case)
                np.testing.assert_allclose(risks[trial], direct, rtol=1e-13, atol=0,
                                           err_msg=case)
                chosen = grid[int(np.argmin(risks[trial]))]
                assert chosen == per_trial_select_span(stack, n_samples, trial, grid), case
                assert chosen == grid[int(np.argmin(direct))], case


def test_span_risks_stream_over_trials():
    # Guards against a rewrite that holds every trial's transform at once:
    # the peak must not grow with the trial count at fixed T and P.
    rng = np.random.default_rng(10)
    values = rng.standard_normal((40, 4, 256))
    grid = default_span_grid(256)
    peaks = []
    for n_trials in (10, 40):
        series = MultiTrialSeries(values[:n_trials])
        span_risks(series, grid)  # warm up; the series keeps its periodograms
        tracemalloc.start()
        try:
            span_risks(series, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_span_risk_rejects_span_that_fills_the_circle():
    rng = np.random.default_rng(9)
    series = MultiTrialSeries(rng.standard_normal((3, 2, 32)))
    with pytest.raises(DomainError):
        span_risks(series, (3, 33))
    with pytest.raises(DomainError):
        span_risks(series, (1, 5, 35))
    with pytest.raises(DomainError):
        smoothed_estimator(MultiTrialSeries(rng.standard_normal((3, 2, 32))), span_grid=(33,))


def test_white_noise_selects_wider_spans_than_peaked_ar2():
    # a sharp AR(2) resonance punishes wide kernels; white noise does not
    coefs = np.array([[[1.4]], [[-0.9]]])
    grid = tuple(range(3, 64, 4))
    white_spans, peaked_spans = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        white = MultiTrialSeries(rng.standard_normal((6, 1, 256)))
        trials = np.stack([simulate_var(coefs, np.eye(1), 256, seed=(99, seed, n))
                           for n in range(6)])
        peaked = MultiTrialSeries(trials)
        white_spans += [grid[i] for i in np.argmin(span_risks(white, grid), axis=1)]
        peaked_spans += [grid[i] for i in np.argmin(span_risks(peaked, grid), axis=1)]
    assert np.median(white_spans) >= np.median(peaked_spans)
    assert np.mean(white_spans) > np.mean(peaked_spans)


def test_smoothed_estimator_averages_trials():
    rng = np.random.default_rng(6)
    series = MultiTrialSeries(rng.standard_normal((3, 2, 64)))
    estimate, config = smoothed_estimator(series, fixed_span=5)
    assert estimate.tag == "smoothed"
    assert config.selected_spans == (5, 5, 5)
    stack = stacked_periodograms(series)
    manual = np.mean([smooth_periodogram(stack[n], 5, 64) for n in range(3)], axis=0)
    np.testing.assert_allclose(estimate.matrices, manual, rtol=1e-13, atol=1e-16)


def test_smoothed_estimator_selected_spans_match_select_span():
    rng = np.random.default_rng(7)
    series = MultiTrialSeries(rng.standard_normal((4, 1, 64)))
    grid = (3, 7, 13)
    estimate, config = smoothed_estimator(series, span_grid=grid)
    stack = stacked_periodograms(series)
    expected = tuple(per_trial_select_span(stack, 64, n, grid) for n in range(4))
    assert config.selected_spans == expected
    assert estimate.validate().ok
    manual = np.mean([smooth_periodogram(stack[n], span, 64)
                      for n, span in enumerate(config.selected_spans)], axis=0)
    np.testing.assert_allclose(estimate.matrices, manual, rtol=1e-13, atol=1e-16)


def test_one_span_group_smooths_the_sets_own_trial_sum(monkeypatch):
    # When every trial shares a span, the group is the periodogram set's trial sum
    # ``total``, N times its mean, so the estimate moves from the route through
    # periodogram_sum by about one rounding of the largest entry.
    values = np.random.default_rng(12).standard_normal((30, 3, 64))

    def no_sum(*args):
        raise AssertionError("periodogram_sum was called")

    for settings in ({"span_grid": (3, 9, 15)}, {"fixed_span": 7}):
        series = MultiTrialSeries(values)
        pgrams = series.periodograms
        monkeypatch.setattr(smoothing, "periodogram_sum", no_sum)
        estimate, config = smoothed_estimator(series, **settings)
        monkeypatch.undo()
        (span,) = set(config.selected_spans)  # one group of every trial
        expected = smooth_periodogram(periodogram_sum(pgrams.dfts, series.trial_order, 64),
                                      span, 64) / 30
        error = np.max(np.abs(estimate.matrices - expected))
        assert error <= 1e-15 * np.max(np.abs(expected)), settings


def test_span_groups_sum_the_sets_own_dfts_without_copying_them(monkeypatch):
    # Each group hands periodogram_sum the set's DFTs and its members' indices, in
    # canonical trial order, rather than a copy of its members' DFTs.
    series = MultiTrialSeries(np.random.default_rng(7).standard_normal((5, 1, 64)))
    calls = []

    def recording_sum(dfts, trials, n_samples):
        calls.append((dfts, [int(n) for n in trials]))
        return periodogram_sum(dfts, trials, n_samples)

    monkeypatch.setattr(smoothing, "periodogram_sum", recording_sum)
    _, config = smoothed_estimator(series, span_grid=(3, 7, 13))
    assert config.selected_spans == (13, 7, 7, 13, 13)
    assert list(series.trial_order) == [4, 0, 1, 3, 2]
    assert all(dfts is series.periodograms.dfts for dfts, _ in calls)
    assert [members for _, members in calls] == [[1, 2], [4, 0, 3]]


def test_smoothed_estimator_single_trial_needs_fixed_span():
    series = MultiTrialSeries(np.random.default_rng(8).standard_normal((1, 1, 64)))
    with pytest.raises(InsufficientDataError):
        smoothed_estimator(series)
    estimate, _ = smoothed_estimator(series, fixed_span=7)
    assert estimate.matrices.shape == (33, 1, 1)


def test_smoothing_config_validation():
    with pytest.raises(DomainError):
        smoothed_estimator(MultiTrialSeries(np.zeros((1, 1, 16))), fixed_span=6)
    with pytest.raises(DomainError):
        smooth_periodogram(np.zeros((9, 1, 1), dtype=complex), 17, 16)
