"""Periodogram conventions: scaling, symmetry, and trial averaging."""

import tracemalloc

import numpy as np
import pytest

from specshrink import (
    DimensionError,
    FrequencyGrid,
    MultiTrialSeries,
    compute_periodograms,
    extend_full_circle,
    mean_periodogram,
)
from specshrink import periodogram
from specshrink.periodogram import periodogram_sum, raw_periodogram, trial_dft

from conftest import stacked_periodograms


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
    mean = mean_periodogram(series).matrices[:, 0, 0].real
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
    rng = np.random.default_rng(5)
    series = MultiTrialSeries(rng.standard_normal((5, 2, 32)))
    pgrams = compute_periodograms(series)
    stack = stacked_periodograms(series)
    assert pgrams.mean.tag == "raw_mean"
    mean = pgrams.mean.matrices
    np.testing.assert_allclose(mean, stack.mean(axis=0), rtol=1e-13, atol=0)
    np.testing.assert_array_equal(mean, np.conj(np.swapaxes(mean, -1, -2)))
    for n in range(series.n_trials):
        np.testing.assert_array_equal(pgrams.trial(n), stack[n])
        loo = pgrams.leave_one_out_mean(n)
        np.testing.assert_allclose(loo, np.delete(stack, n, axis=0).mean(axis=0),
                                   rtol=1e-13, atol=1e-15)
    with pytest.raises(DimensionError):
        pgrams.leave_one_out_mean(5)
    with pytest.raises(DimensionError):
        pgrams.trial(-1)
    single = compute_periodograms(MultiTrialSeries(series.values[:1]))
    with pytest.raises(DimensionError):
        single.leave_one_out_mean(0)


def test_trial_and_leave_one_out_write_into_a_given_array():
    series = MultiTrialSeries(np.random.default_rng(8).standard_normal((4, 3, 33)))
    pgrams = compute_periodograms(series)
    np.testing.assert_array_equal(pgrams.total, pgrams.mean.matrices * 4)
    out = np.empty_like(pgrams.mean.matrices)
    for n in range(series.n_trials):
        assert pgrams.trial(n, out=out) is out
        np.testing.assert_array_equal(out, pgrams.trial(n))
        assert pgrams.leave_one_out_mean(n, out=out) is out
        np.testing.assert_array_equal(out, (pgrams.mean.matrices * 4 - pgrams.trial(n)) / 3)


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
        for members in ([0], list(range(0, n_trials, 2)), slice(None)):
            total = periodogram_sum(pgrams.dfts[members], n_samples)
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


def test_trial_dft_shape_check():
    with pytest.raises(DimensionError):
        trial_dft(np.zeros((2, 10)), FrequencyGrid(12))
