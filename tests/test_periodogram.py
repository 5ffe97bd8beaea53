"""Periodogram conventions: scaling, symmetry, and trial averaging."""

import tracemalloc

import numpy as np
import pytest

from specshrink import (
    DimensionError,
    FrequencyGrid,
    MultiTrialSeries,
    PipelineOptions,
    compute_periodograms,
    shrinkage_pipeline,
)
from specshrink import periodogram
from specshrink.periodogram import periodogram_sum

from conftest import extend_full_circle, raw_periodogram, stacked_periodograms, trial_dft


def test_dft_convention_matches_direct_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 12))
    grid = FrequencyGrid(12)
    d = trial_dft(x, grid)
    t = np.arange(1, 13)
    for j, omega in enumerate(grid.omegas):
        direct = (x * np.exp(-1j * omega * t)).sum(axis=1) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(d[:, j], direct, atol=1e-10)


def test_cosine_line_concentrates_at_its_bin():
    # unit-amplitude cosine at Fourier frequency k: I(omega_k) = T / (8*pi)
    T, k = 64, 5
    t = np.arange(1, T + 1)
    x = np.cos(2 * np.pi * k * t / T)[None, :]
    grid = FrequencyGrid(T)
    pgram = raw_periodogram(x, grid)[:, 0, 0].real
    assert pgram[k] == pytest.approx(T / (8 * np.pi), rel=1e-12)
    others = np.delete(pgram, k)
    np.testing.assert_allclose(others, 0.0, atol=1e-12)


def test_zero_trial_gives_zero_periodogram():
    grid = FrequencyGrid(16)
    np.testing.assert_array_equal(raw_periodogram(np.zeros((3, 16)), grid), 0.0)


def test_white_noise_level():
    rng = np.random.default_rng(1)
    series = MultiTrialSeries(rng.standard_normal((200, 1, 128)))
    mean = compute_periodograms(series).mean.matrices[:, 0, 0].real
    interior = mean[1:-1]
    assert interior.mean() == pytest.approx(1 / (2 * np.pi), rel=0.03)


def test_parseval_full_circle():
    # (2*pi/T) * sum over the full circle recovers the average lag-0 moment
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 50))
    grid = FrequencyGrid(50)
    full = extend_full_circle(raw_periodogram(x, grid), 50)
    moments = (2 * np.pi / 50) * full.sum(axis=0)
    np.testing.assert_allclose(moments.imag, 0.0, atol=1e-10)
    np.testing.assert_allclose(moments.real, x @ x.T / 50, rtol=1e-10)


def test_periodogram_matrices_are_hermitian_rank_one():
    rng = np.random.default_rng(3)
    pgram = raw_periodogram(rng.standard_normal((3, 32)), FrequencyGrid(32))
    np.testing.assert_array_equal(pgram, np.conj(np.swapaxes(pgram, -1, -2)))
    eigs = np.linalg.eigvalsh(pgram)
    # rank one: all but the top eigenvalue vanish
    np.testing.assert_allclose(eigs[:, :-1], 0.0, atol=1e-10)


def test_negative_frequency_values_are_conjugates():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 15))
    t = np.arange(1, 16)
    grid = FrequencyGrid(15)
    full = extend_full_circle(raw_periodogram(x, grid), 15)
    for j in (9, 12):  # above the half grid
        omega = 2 * np.pi * j / 15
        d = (x * np.exp(-1j * omega * t)).sum(axis=1) / np.sqrt(2 * np.pi)
        direct = np.outer(d, np.conj(d)) / 15
        np.testing.assert_allclose(full[j], direct, atol=1e-12)


def test_mean_and_leave_one_out():
    # The risks expand each trial's leave-one-out mean as (total - own) / (N - 1).
    rng = np.random.default_rng(5)
    series = MultiTrialSeries(rng.standard_normal((5, 2, 32)))
    pgrams = compute_periodograms(series)
    stack = stacked_periodograms(series)
    assert pgrams.mean.tag == "raw_mean"
    mean = pgrams.mean.matrices
    np.testing.assert_allclose(mean, stack.mean(axis=0), rtol=1e-13, atol=0)
    np.testing.assert_array_equal(mean, np.conj(np.swapaxes(mean, -1, -2)))
    np.testing.assert_array_equal(pgrams.total, mean * 5)
    for n in range(series.n_trials):
        np.testing.assert_allclose((pgrams.total - stack[n]) / 4,
                                   np.delete(stack, n, axis=0).mean(axis=0), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("block_values", [periodogram.SUM_BLOCK_VALUES, 50])
def test_periodogram_sums_are_batched_products_of_dfts(monkeypatch, block_values):
    # odd and even T, one channel and several, one trial and many; with 50
    # values per block the products run over several blocks, the last one short
    monkeypatch.setattr(periodogram, "SUM_BLOCK_VALUES", block_values)
    for n_trials, n_channels, n_samples in [(1, 1, 9), (3, 4, 33), (7, 3, 100)]:
        rng = np.random.default_rng((11, n_trials, n_channels, n_samples))
        series = MultiTrialSeries(rng.standard_normal((n_trials, n_channels, n_samples)))
        pgrams = compute_periodograms(series)
        stack = stacked_periodograms(series)
        assert pgrams.dfts.shape == (n_trials, n_channels, n_samples // 2 + 1)
        for members in ([0], list(range(0, n_trials, 2)), series.trial_order):
            total = periodogram_sum(pgrams.dfts, members, n_samples)
            np.testing.assert_allclose(total, stack[members].sum(axis=0), rtol=1e-13, atol=1e-15)
            np.testing.assert_array_equal(total, np.conj(np.swapaxes(total, -1, -2)))


def test_periodograms_keep_trial_dfts_not_matrices():
    # The set holds N*P*(T/2+1) DFT values, not N*(T/2+1)*P**2 matrix entries,
    # and computing it never holds much more than that.
    rng = np.random.default_rng(6)
    series = MultiTrialSeries(rng.standard_normal((40, 8, 256)))
    tracemalloc.start()
    try:
        pgrams = compute_periodograms(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hasattr(pgrams, "per_trial")
    stored = pgrams.dfts.nbytes + pgrams.mean.matrices.nbytes
    assert stored == 16 * 129 * (40 * 8 + 8 * 8)
    assert peak < 1.5 * stored, (peak, stored)
    for n in range(series.n_trials):
        np.testing.assert_array_equal(pgrams.dfts[n], trial_dft(series.values[n], pgrams.grid))


def _held_arrays(obj, seen=None):
    """Every array reachable from ``obj`` through instance attributes (cached values
    included), skipping the frequency grid, whose axes every estimate on it shares."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, FrequencyGrid):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _held_arrays(item, seen)]
    return [a for value in getattr(obj, "__dict__", {}).values() for a in _held_arrays(value, seen)]


@pytest.mark.parametrize("shape", [(40, 8, 256), (3, 5, 33), (1, 1, 9)])
def test_periodogram_set_holds_the_dfts_and_one_set_of_matrices(shape):
    # As returned, the set holds N*P*(T/2+1) DFT values and the (T/2+1)*P**2 entries
    # of the mean, and no other array: per-trial matrices would be N*(T/2+1)*P**2.
    n_trials, n_channels, n_samples = shape
    series = MultiTrialSeries(np.random.default_rng(7).standard_normal(shape))
    pgrams = compute_periodograms(series)
    n_freq = n_samples // 2 + 1
    dft_bytes = n_trials * n_channels * n_freq * 16
    matrix_bytes = n_freq * n_channels ** 2 * 16
    held = _held_arrays(pgrams)
    assert sorted(a.nbytes for a in held) == sorted([dft_bytes, matrix_bytes])


def test_a_pipeline_leaves_the_series_periodograms_holding_the_dfts_and_the_mean():
    # the series keeps its periodogram set; the trial sum ``total`` is formed at each use
    series = MultiTrialSeries(np.random.default_rng(8).standard_normal((6, 3, 64)))
    shrinkage_pipeline(series, PipelineOptions(max_order=2, window=5))
    pgrams = series.periodograms
    assert sorted(a.nbytes for a in _held_arrays(pgrams)) == sorted(
        [pgrams.dfts.nbytes, pgrams.mean.matrices.nbytes])
    np.testing.assert_array_equal(pgrams.total, compute_periodograms(series).total)


def test_trial_dft_shape_check():
    with pytest.raises(DimensionError):
        trial_dft(np.zeros((2, 10)), FrequencyGrid(12))
