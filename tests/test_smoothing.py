"""Hann-kernel smoothing and leave-one-out span selection."""

import itertools

import numpy as np
import pytest

from specshrink import (
    DomainError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    compute_periodograms,
    default_span_grid,
    extend_full_circle,
    hann_weights,
    hs_norm_sq,
    select_span,
    simulate_var,
    smooth_periodogram,
    smoothed_estimator,
    span_risks,
)
from specshrink.smoothing import validate_span_grid


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
    assert validate_span_grid([3, 5, 9]) == (3, 5, 9)
    with pytest.raises(DomainError):
        validate_span_grid([])
    with pytest.raises(DomainError):
        validate_span_grid([3, 4])
    with pytest.raises(DomainError):
        validate_span_grid([5, 3])


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
    pgrams = compute_periodograms(MultiTrialSeries(x))
    raw_full = extend_full_circle(pgrams.per_trial[0], 64)
    for span in (3, 7, 21):
        sm = smooth_periodogram(pgrams.per_trial[0], span, 64)
        sm_full = extend_full_circle(sm, 64)
        np.testing.assert_allclose(sm_full.sum(axis=0), raw_full.sum(axis=0), atol=1e-10)


def test_smoothing_output_is_hermitian():
    rng = np.random.default_rng(2)
    pgrams = compute_periodograms(MultiTrialSeries(rng.standard_normal((1, 3, 32))))
    sm = smooth_periodogram(pgrams.per_trial[0], 5, 32)
    np.testing.assert_array_equal(sm, np.conj(np.swapaxes(sm, -1, -2)))


def test_smoothing_reduces_white_noise_variance_monotonically():
    rng = np.random.default_rng(3)
    pgrams = compute_periodograms(MultiTrialSeries(rng.standard_normal((1, 1, 256))))
    flat = 1 / (2 * np.pi)
    errors = []
    for span in (1, 5, 25):
        sm = smooth_periodogram(pgrams.per_trial[0], span, 256)[:, 0, 0].real
        errors.append(np.var(sm[1:-1] - flat))
    assert errors[0] > errors[1] > errors[2]


def test_select_span_is_exhaustive_argmin():
    rng = np.random.default_rng(4)
    series = MultiTrialSeries(rng.standard_normal((4, 2, 64)))
    pgrams = compute_periodograms(series)
    grid = (3, 5, 9, 15)
    for trial in range(4):
        risks = span_risks(pgrams, trial, grid)
        assert select_span(pgrams, trial, grid) == grid[int(np.argmin(risks))]
        assert risks.shape == (4,)
        assert np.all(risks >= 0)


def direct_span_risks(pgrams, trial, span_grid):
    """Test-only reference: smooth the trial once per span and sum the half grid."""
    n_samples = pgrams.grid.n_samples
    pilot = pgrams.leave_one_out_mean(trial)
    own = pgrams.per_trial[trial]
    return np.array([
        (2 * np.pi / n_samples)
        * float(np.sum(hs_norm_sq(pilot - smooth_periodogram(own, span, n_samples))))
        for span in span_grid])


def test_span_risk_matches_direct_computation():
    # even and odd T, P in {1, 3}, N in {2, 4}; grids with span 1 and the
    # largest odd span below T
    for n_samples, n_channels, n_trials in itertools.product((32, 33), (1, 3), (2, 4)):
        rng = np.random.default_rng((5, n_samples, n_channels, n_trials))
        pgrams = compute_periodograms(
            MultiTrialSeries(rng.standard_normal((n_trials, n_channels, n_samples))))
        largest = n_samples - 1 if n_samples % 2 == 0 else n_samples - 2
        for grid in [(1, 3, 7), (3, 5, 9, 15), tuple(range(1, largest + 1, 2))]:
            for trial in range(n_trials):
                case = f"T={n_samples} P={n_channels} N={n_trials} grid={grid} trial={trial}"
                risks = span_risks(pgrams, trial, grid)
                direct = direct_span_risks(pgrams, trial, grid)
                np.testing.assert_allclose(risks, direct, rtol=1e-12, atol=0, err_msg=case)
                assert np.argmin(risks) == np.argmin(direct), case


def test_span_risk_rejects_span_that_fills_the_circle():
    rng = np.random.default_rng(9)
    pgrams = compute_periodograms(MultiTrialSeries(rng.standard_normal((3, 2, 32))))
    with pytest.raises(DomainError):
        span_risks(pgrams, 0, (3, 33))
    with pytest.raises(DomainError):
        span_risks(pgrams, 0, (1, 5, 35))
    with pytest.raises(DomainError):
        select_span(pgrams, 1, (33,))


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
        pg_w, pg_p = compute_periodograms(white), compute_periodograms(peaked)
        white_spans += [select_span(pg_w, n, grid) for n in range(6)]
        peaked_spans += [select_span(pg_p, n, grid) for n in range(6)]
    assert np.median(white_spans) >= np.median(peaked_spans)
    assert np.mean(white_spans) > np.mean(peaked_spans)


def test_smoothed_estimator_averages_trials():
    rng = np.random.default_rng(6)
    series = MultiTrialSeries(rng.standard_normal((3, 2, 64)))
    estimate, config = smoothed_estimator(series, fixed_span=5)
    assert estimate.tag == "smoothed"
    assert config.selected_spans == (5, 5, 5)
    pgrams = compute_periodograms(series)
    manual = np.mean([smooth_periodogram(pgrams.per_trial[n], 5, 64) for n in range(3)], axis=0)
    np.testing.assert_allclose(estimate.matrices, manual, atol=1e-14)


def test_smoothed_estimator_selected_spans_match_select_span():
    rng = np.random.default_rng(7)
    series = MultiTrialSeries(rng.standard_normal((4, 1, 64)))
    grid = (3, 7, 13)
    estimate, config = smoothed_estimator(series, span_grid=grid)
    pgrams = compute_periodograms(series)
    expected = tuple(select_span(pgrams, n, grid) for n in range(4))
    assert config.selected_spans == expected
    assert estimate.validate().ok


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
