"""Sine-taper estimates and leave-one-out taper-count selection."""

import numpy as np
import pytest

from specshrink import (
    DomainError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    compute_periodograms,
    hs_norm_sq,
    multitaper_estimator,
    select_taper_count,
    simulate_var,
    sine_tapers,
)
from specshrink.multitaper import default_taper_grid, validate_taper_grid


def test_sine_tapers_closed_form():
    bank = sine_tapers(4, 2)
    t = np.arange(1, 5)
    np.testing.assert_allclose(bank[0], np.sqrt(2 / 5) * np.sin(np.pi * t / 5), atol=1e-15)
    np.testing.assert_allclose(bank[1], np.sqrt(2 / 5) * np.sin(2 * np.pi * t / 5), atol=1e-15)


def test_sine_tapers_are_orthonormal():
    bank = sine_tapers(128, 20)
    gram = bank @ bank.T
    np.testing.assert_allclose(gram, np.eye(20), atol=1e-10)


def test_sine_tapers_bounds():
    with pytest.raises(DomainError):
        sine_tapers(8, 0)
    with pytest.raises(DomainError):
        sine_tapers(8, 8)


def test_zero_data_gives_zero_estimate():
    series = MultiTrialSeries(np.zeros((2, 2, 16)))
    est = multitaper_estimator(series, 3)
    np.testing.assert_array_equal(est.matrices, 0.0)
    assert est.tag == "multitaper"


def test_single_taper_single_trial_matches_direct_formula():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 32))
    series = MultiTrialSeries(x[None])
    est = multitaper_estimator(series, 1)
    taper = sine_tapers(32, 1)[0]
    grid = FrequencyGrid(32)
    t = np.arange(1, 33)
    for j, omega in enumerate(grid.omegas):
        d = ((taper * x) * np.exp(-1j * omega * t)).sum(axis=1)
        np.testing.assert_allclose(est.matrices[j], np.outer(d, np.conj(d)) / (2 * np.pi),
                                   atol=1e-10)


def _einsum_multitaper(series, n_tapers):
    """The direct per-trial einsum, kept as the oracle for the batched estimator."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    tapers = sine_tapers(series.n_samples, n_tapers)
    acc = np.zeros((grid.n_frequencies, series.n_channels, series.n_channels), dtype=complex)
    for x in series.values:
        d = np.fft.rfft(tapers[:, None, :] * x[None, :, :], axis=-1) * np.exp(-1j * grid.omegas)
        acc += np.einsum("apj,aqj->jpq", d, np.conj(d))
    return acc / (2.0 * np.pi * n_tapers * series.n_trials)


@pytest.mark.parametrize("n_samples", [32, 33])
@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("n_tapers", [1, 5])
def test_multitaper_matches_the_einsum_oracle(n_samples, n_channels, n_tapers):
    rng = np.random.default_rng(n_samples + 10 * n_channels + 100 * n_tapers)
    series = MultiTrialSeries(rng.standard_normal((4, n_channels, n_samples)))
    est = multitaper_estimator(series, n_tapers)
    want = _einsum_multitaper(series, n_tapers)
    assert np.max(np.abs(est.matrices - want)) <= 1e-13 * np.max(np.abs(want))
    assert est.validate().ok


def test_white_noise_level_and_psd():
    rng = np.random.default_rng(1)
    series = MultiTrialSeries(rng.standard_normal((30, 2, 128)))
    est = multitaper_estimator(series, 8)
    assert est.validate().ok
    interior = est.matrices[3:-3]
    diags = np.diagonal(interior, axis1=1, axis2=2).real
    assert abs(diags.mean() - 1 / (2 * np.pi)) < 0.1 / (2 * np.pi)


def test_more_tapers_reduce_white_noise_variance():
    rng = np.random.default_rng(2)
    series = MultiTrialSeries(rng.standard_normal((1, 1, 256)))
    variances = []
    for m in (1, 5, 15):
        est = multitaper_estimator(series, m).matrices[2:-2, 0, 0].real
        variances.append(np.var(est))
    assert variances[0] > variances[1] > variances[2]


def test_default_taper_grid_mirrors_span_cap():
    assert default_taper_grid(256) == tuple(range(1, 64))
    assert default_taper_grid(16) == (1, 2, 3, 4)
    assert default_taper_grid(10_000)[-1] == 63
    assert default_taper_grid(3) == (1,)


def test_validate_taper_grid():
    assert validate_taper_grid((1, 2, 5), 8) == (1, 2, 5)
    with pytest.raises(DomainError):
        validate_taper_grid((), 8)
    with pytest.raises(DomainError):
        validate_taper_grid((0, 1), 8)
    with pytest.raises(DomainError):
        validate_taper_grid((1, 8), 8)
    with pytest.raises(DomainError):
        validate_taper_grid((3, 2), 8)


@pytest.mark.parametrize("grid", [(2.5, 4), (1.0, 2), (True, 3), (1, np.bool_(True)), ("2",)])
def test_validate_taper_grid_rejects_entries_that_are_not_integers(grid):
    with pytest.raises(DomainError, match="taper counts must be a positive integer"):
        validate_taper_grid(grid, 8)


def test_validate_taper_grid_takes_numpy_integers_as_ints():
    grid = validate_taper_grid(np.arange(1, 4), 8)
    assert grid == (1, 2, 3) and all(type(m) is int for m in grid)


def test_taper_selection_rejects_a_fractional_count():
    series = MultiTrialSeries(np.random.default_rng(4).standard_normal((3, 2, 32)))
    with pytest.raises(DomainError):
        select_taper_count(series, (2.5, 4))


def test_taper_selection_is_exhaustive_argmin():
    rng = np.random.default_rng(3)
    series = MultiTrialSeries(rng.standard_normal((4, 2, 48)))
    pgrams = compute_periodograms(series)
    grid = (1, 2, 4, 7, 11)
    selection = select_taper_count(series, grid, periodograms=pgrams)
    assert selection.risks.shape == (4, 5)
    scale = 2 * np.pi / 48
    for n in range(4):
        pilot = pgrams.leave_one_out_mean(n)
        brute = []
        for m in grid:
            est = multitaper_estimator(MultiTrialSeries(series.values[n:n + 1]), m)
            brute.append(scale * float(np.sum(hs_norm_sq(pilot - est.matrices))))
        np.testing.assert_allclose(selection.risks[n], brute, rtol=1e-9, atol=1e-12)
        assert selection.per_trial[n] == grid[int(np.argmin(brute))]


def test_taper_selection_median_is_lower_median():
    rng = np.random.default_rng(4)
    series = MultiTrialSeries(rng.standard_normal((4, 1, 32)))
    selection = select_taper_count(series, (2,))
    assert selection.per_trial == (2, 2, 2, 2)
    assert selection.median == 2
    # lower median of an even count sits at index (n-1)//2 of the sorted list
    mixed = sorted([1, 5, 5, 9])
    assert mixed[(4 - 1) // 2] == 5


def test_taper_selection_needs_two_trials():
    series = MultiTrialSeries(np.random.default_rng(5).standard_normal((1, 1, 32)))
    with pytest.raises(InsufficientDataError):
        select_taper_count(series)


def test_white_noise_selects_more_tapers_than_peaked_ar2():
    coefs = np.array([[[1.4]], [[-0.9]]])
    grid = tuple(range(1, 33, 2))
    white_m, peaked_m = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        white = MultiTrialSeries(rng.standard_normal((5, 1, 128)))
        trials = np.stack([simulate_var(coefs, np.eye(1), 128, seed=(17, seed, n))
                           for n in range(5)])
        peaked = MultiTrialSeries(trials)
        white_m += list(select_taper_count(white, grid).per_trial)
        peaked_m += list(select_taper_count(peaked, grid).per_trial)
    assert np.median(white_m) >= np.median(peaked_m)
    assert np.mean(white_m) > np.mean(peaked_m)
