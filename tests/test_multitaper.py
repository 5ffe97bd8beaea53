"""Sine-taper estimates and leave-one-out taper-count selection."""

import itertools
import tracemalloc

import numpy as np
import pytest

import specshrink.core as core
import specshrink.multitaper as multitaper
from specshrink import (
    ESTIMATORS,
    DomainError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    PipelineOptions,
    hs_norm_sq,
    multitaper_estimator,
    select_taper_count,
    simulate_var,
    sine_tapers,
)
from specshrink.multitaper import default_taper_grid, validate_taper_grid

from conftest import stacked_periodograms


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
    est, _ = multitaper_estimator(series, 3)
    np.testing.assert_array_equal(est.matrices, 0.0)
    assert est.tag == "multitaper"


def test_single_taper_single_trial_matches_direct_formula():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 32))
    series = MultiTrialSeries(x[None])
    est, _ = multitaper_estimator(series, 1)
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
    est, _ = multitaper_estimator(series, n_tapers)
    want = _einsum_multitaper(series, n_tapers)
    assert np.max(np.abs(est.matrices - want)) <= 1e-13 * np.max(np.abs(want))
    assert est.validate().ok


def test_white_noise_level_and_psd():
    rng = np.random.default_rng(1)
    series = MultiTrialSeries(rng.standard_normal((30, 2, 128)))
    est, selection = multitaper_estimator(series, 8)
    assert selection is None
    assert est.validate().ok
    interior = est.matrices[3:-3]
    diags = np.diagonal(interior, axis1=1, axis2=2).real
    assert abs(diags.mean() - 1 / (2 * np.pi)) < 0.1 / (2 * np.pi)


def test_more_tapers_reduce_white_noise_variance():
    rng = np.random.default_rng(2)
    series = MultiTrialSeries(rng.standard_normal((1, 1, 256)))
    variances = []
    for m in (1, 5, 15):
        est = multitaper_estimator(series, m)[0].matrices[2:-2, 0, 0].real
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
    grid = (1, 2, 4, 7, 11)
    selection = select_taper_count(series, grid)
    assert selection.risks.shape == (4, 5)
    scale = 2 * np.pi / 48
    stack = stacked_periodograms(series)
    for n in range(4):
        pilot = np.delete(stack, n, axis=0).mean(axis=0)
        brute = []
        for m in grid:
            est, _ = multitaper_estimator(MultiTrialSeries(series.values[n:n + 1]), m)
            brute.append(scale * float(np.sum(hs_norm_sq(pilot - est.matrices))))
        np.testing.assert_allclose(selection.risks[n], brute, rtol=1e-9, atol=1e-12)
        assert selection.per_trial[n] == grid[int(np.argmin(brute))]


def _direct_taper_risks(series, taper_grid):
    """The serial per-trial loop over each trial's whole taper Gram, with ``einsum``,
    against the leave-one-out mean of the stacked periodogram matrices; kept as the
    oracle for the risks of :func:`select_taper_count`."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    stack = stacked_periodograms(series)
    tapers = sine_tapers(series.n_samples, taper_grid[-1])
    scale = 2.0 * np.pi / series.n_samples
    counts = np.asarray(taper_grid)
    risks = np.empty((series.n_trials, len(taper_grid)))
    for n in range(series.n_trials):
        pilot = np.delete(stack, n, axis=0).mean(axis=0)
        d = np.fft.rfft(tapers[:, None, :] * series.values[n][None, :, :], axis=-1)
        d = np.ascontiguousarray((d * np.exp(-1j * grid.omegas)).transpose(2, 0, 1))
        inner = np.conj(d) @ d.transpose(0, 2, 1)  # (n_freq, m, m) taper inner products
        flat = inner.view(float).reshape(grid.n_frequencies, -1)
        inner_sq = np.einsum("ji,ji->i", flat, flat).reshape(len(tapers), len(tapers), 2).sum(-1)
        gram = np.cumsum(np.cumsum(inner_sq, axis=0), axis=1)
        quad = np.cumsum((np.conj(d) * (d @ pilot.transpose(0, 2, 1))).sum(axis=(0, 2)).real)
        pilot_sq = float(np.sum(pilot.real**2 + pilot.imag**2))
        dist = (pilot_sq
                - quad[counts - 1] / (np.pi * counts)
                + np.diag(gram)[counts - 1] / (2.0 * np.pi * counts) ** 2)
        risks[n] = scale * np.maximum(dist, 0.0) / series.n_channels
    return risks


# 33 frequencies: two full Gram blocks and one; 151 frequencies: nine and seven, and at
# 3 channels both grids' tapers are transformed in chunks (4 and 8 tapers a chunk)
@pytest.mark.parametrize("n_samples", [64, 65, 300])
@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("taper_grid", [(1, 2, 4, 7, 11), (3, 5, 6, 10, 15)])
def test_taper_risks_match_the_direct_loop(n_samples, n_channels, taper_grid):
    rng = np.random.default_rng(n_samples + 10 * n_channels + 100 * taper_grid[0])
    series = MultiTrialSeries(rng.standard_normal((5, n_channels, n_samples)))
    selection = select_taper_count(series, taper_grid)
    want = _direct_taper_risks(series, taper_grid)
    np.testing.assert_allclose(selection.risks, want, rtol=1e-12, atol=0)
    assert selection.per_trial == tuple(taper_grid[i] for i in np.argmin(want, axis=1))


# The 300-sample record's 151 frequencies end in a partial Gram block, and its tapers are
# transformed 4 at a time for the selection and one at a time for the fixed count.
@pytest.mark.parametrize("shape", [(7, 3, 64), (5, 4, 300)])
def test_taper_selection_and_estimate_do_not_depend_on_the_worker_count(monkeypatch, shape):
    series = MultiTrialSeries(np.random.default_rng(6).standard_normal(shape))
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "_worker_count", lambda n_tasks, w=workers: w)
        selection = select_taper_count(series, (1, 2, 3, 5, 8, 13))
        runs.append((selection, multitaper_estimator(series, 5)[0].matrices))
    (one, one_est), *others = runs
    for other, other_est in others:
        assert np.array_equal(one.risks, other.risks)
        assert (one.per_trial, one.median) == (other.per_trial, other.median)
        assert np.array_equal(one_est, other_est)


def _white_or_peaked(data):
    """Five 64-sample trials of white noise, or of a sharply peaked AR(2)."""
    if data == "white":
        return MultiTrialSeries(np.random.default_rng(0).standard_normal((5, 2, 64)))
    coefs = np.array([[[1.4]], [[-0.9]]])
    return MultiTrialSeries(np.stack([simulate_var(coefs, np.eye(1), 64, seed=(17, 0, n))
                                      for n in range(5)]))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("data, median", [("white", 15), ("peaked", 2)])  # top, below it
def test_the_selected_estimate_is_the_estimate_at_the_median(monkeypatch, workers, data,
                                                             median):
    monkeypatch.setattr(core, "_worker_count", lambda n_tasks: workers)
    values = _white_or_peaked(data).values
    duplicated = np.concatenate([values, values[2:3]])
    shuffle = np.random.default_rng(11).permutation(len(duplicated))
    runs = []
    for trials in (values, values[::-1], duplicated, duplicated[shuffle]):
        series = MultiTrialSeries(trials)
        estimate, selection = multitaper_estimator(series, taper_grid=(1, 2, 15))
        assert selection.median == median
        np.testing.assert_array_equal(estimate.matrices,
                                      multitaper_estimator(series, median)[0].matrices)
        runs.append((selection.risks, estimate.matrices))
    # The risk rows stay at their trials' input indices; the sums do not see the order.
    (risks, estimate), (reversed_risks, reversed_estimate) = runs[:2]
    np.testing.assert_array_equal(reversed_risks, risks[::-1])
    np.testing.assert_array_equal(reversed_estimate, estimate)
    (risks, estimate), (shuffled_risks, shuffled_estimate) = runs[2:]
    np.testing.assert_array_equal(shuffled_risks, risks[shuffle])
    np.testing.assert_array_equal(shuffled_estimate, estimate)


@pytest.mark.parametrize("data, options, tapers, passes", [
    ("white", PipelineOptions(taper_grid=(1, 2, 15)), 15, 1),  # the estimate reads the scan's sum
    ("peaked", PipelineOptions(taper_grid=(1, 2, 15)), 2, 2),  # a median below the grid top
    ("white", PipelineOptions(n_tapers=15), 15, 1),  # a fixed count: no scan
])
def test_a_trial_is_transformed_again_only_below_the_grid_top(monkeypatch, data, options,
                                                              tapers, passes):
    series = _white_or_peaked(data)
    calls = itertools.count()
    tapered_dfts = multitaper._tapered_dfts

    def counted(*args):
        next(calls)
        return tapered_dfts(*args)

    monkeypatch.setattr(multitaper, "_tapered_dfts", counted)
    estimate, record = ESTIMATORS["multitaper"](series, options)
    assert record == {"tapers": tapers}
    assert next(calls) == passes * series.n_trials
    monkeypatch.undo()
    np.testing.assert_array_equal(estimate.matrices,
                                  multitaper_estimator(series, tapers)[0].matrices)


@pytest.mark.parametrize("run", [lambda s: select_taper_count(s, (1, 2, 3)),
                                 lambda s: multitaper_estimator(s, 3)])
def test_an_error_in_a_worker_reaches_the_caller_unchanged(monkeypatch, run):
    series = MultiTrialSeries(np.random.default_rng(7).standard_normal((6, 2, 32)))
    calls = itertools.count()
    tapered_dfts = multitaper._tapered_dfts

    def fail_on_the_third_trial(*args):
        if next(calls) == 2:
            raise DomainError("trial went wrong")
        return tapered_dfts(*args)

    monkeypatch.setattr(multitaper, "_tapered_dfts", fail_on_the_third_trial)
    with pytest.raises(DomainError) as info:
        run(series)
    assert type(info.value) is DomainError and str(info.value) == "trial went wrong"


def test_the_per_trial_work_allocates_no_large_array(monkeypatch):
    # A worker thread allocates from a C-allocator arena of its own, which keeps
    # what is freed, so each trial's large arrays come from the scratch that the
    # caller makes.  Here the trials run one at a time in this thread, traced.
    peaks = []

    def traced_map(func, n_trials, scratch):
        spaces = [scratch(), scratch()]
        for n in range(n_trials):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = func(n, spaces[n % 2])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            yield result

    monkeypatch.setattr(multitaper, "map_trials", traced_map)
    series = MultiTrialSeries(np.random.default_rng(9).standard_normal((4, 6, 256)))
    dft_bytes = 16 * 129 * 63 * 6  # one trial's DFTs under 63 tapers
    tracemalloc.start()
    try:
        selection = select_taper_count(series)
        multitaper_estimator(series, 63)
    finally:
        tracemalloc.stop()
    assert len(selection.risks[0]) == 63 and len(peaks) == 8
    assert max(peaks) < dft_bytes / 3, (peaks, dft_bytes)


@pytest.mark.parametrize("n_samples", [256, 1024])
def test_a_call_holds_one_trials_dfts_and_a_fixed_allowance_per_worker(monkeypatch,
                                                                       n_samples):
    # Each worker's space holds one trial's DFTs under 63 tapers and buffers of
    # GRAM_BLOCK frequencies (1.3 MB here).  The allowance also covers what grows with
    # the length more slowly than the DFTs: the trial's products and projections, the
    # tapers and the trials' sum, 2 MB at 1024 samples.
    workers = 2
    monkeypatch.setattr(core, "_worker_count", lambda n_tasks: workers)
    series = MultiTrialSeries(np.random.default_rng(9).standard_normal((4, 8, n_samples)))
    series.periodograms  # the series' own arrays, not the calls' scratch
    dft_bytes = 16 * (n_samples // 2 + 1) * 63 * 8
    peaks = []
    for run in (select_taper_count, lambda s: multitaper_estimator(s, 63)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(series)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert max(peaks) < workers * (dft_bytes + 4_000_000), (peaks, dft_bytes)


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
