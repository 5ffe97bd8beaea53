"""Frequency grids, the normalised HS norm, spectral containers, the canonical trial order, the
trial map."""

import math
import os
import re
import threading
import time

import numpy as np
import pytest

from specshrink import (
    DimensionError,
    DomainError,
    FrequencyGrid,
    MultiTrialSeries,
    PipelineOptions,
    SimulationConfig,
    SpectralEstimate,
    detrend,
    fit_var,
    hann_weights,
    hermitian_cond,
    hs_norm_sq,
    monte_carlo_compare,
    multitaper_estimator,
    read_trials_csv,
    select_var_order,
    sine_tapers,
    smoothed_estimator,
    symmetrize,
    validate_spectral,
)
import specshrink.core as core
from specshrink.core import certified_inverse, check_count, check_grid, map_trials
from specshrink.multitaper import validate_taper_grid
from specshrink.smoothing import validate_span_grid
from conftest import extend_full_circle


def test_grid_shapes_and_values():
    grid = FrequencyGrid(8)
    assert grid.n_frequencies == 5
    assert len(grid) == 5
    np.testing.assert_allclose(grid.omegas, 2 * np.pi * np.arange(5) / 8)
    # odd length: half grid stops just short of pi
    odd = FrequencyGrid(9)
    assert odd.n_frequencies == 5
    assert odd.omegas[-1] < np.pi


def test_grid_hertz():
    grid = FrequencyGrid(256, sampling_rate=256.0)
    np.testing.assert_allclose(grid.hertz, np.arange(129))
    with pytest.raises(DomainError):
        FrequencyGrid(256).hertz


def test_grid_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        FrequencyGrid(1)
    with pytest.raises(DomainError):
        FrequencyGrid(8, sampling_rate=0.0)


@pytest.mark.parametrize("n_samples", [64.0, "64", True, None, 2.5])
def test_grid_sample_count_follows_the_count_rule(n_samples):
    with pytest.raises(DomainError, match="n_samples must be"):
        FrequencyGrid(n_samples)


@pytest.mark.parametrize("n_samples", [1, 0, -3, np.int64(1)])
def test_grid_rejects_sample_counts_below_two_as_a_dimension_error(n_samples):
    with pytest.raises(DimensionError):
        FrequencyGrid(n_samples)


def test_grid_keeps_a_numpy_sample_count_as_an_int():
    grid = FrequencyGrid(np.int32(64))
    assert type(grid.n_samples) is int and type(grid.n_frequencies) is int
    assert extend_full_circle(np.ones((33, 1, 1)), grid.n_samples).shape == (64, 1, 1)


def test_grid_omegas_read_only():
    grid = FrequencyGrid(16)
    with pytest.raises(ValueError):
        grid.omegas[0] = 1.0


def test_hs_norm_basic_values():
    assert hs_norm_sq(np.eye(3)) == pytest.approx(1.0)
    assert hs_norm_sq(np.zeros((4, 4))) == 0.0
    assert hs_norm_sq(np.ones((2, 2))) == pytest.approx(2.0)


def test_hs_norm_scaling_and_batch():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = 0.3 - 1.7j
    assert hs_norm_sq(c * a) == pytest.approx(abs(c) ** 2 * hs_norm_sq(a))
    batch = rng.standard_normal((5, 7, 2, 2))
    out = hs_norm_sq(batch)
    assert out.shape == (5, 7)
    assert np.all(out >= 0)


def test_hs_norm_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert hs_norm_sq(q @ a @ q.conj().T) == pytest.approx(hs_norm_sq(a), rel=1e-12)


def test_hs_norm_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.sqrt(hs_norm_sq(a + b)) <= np.sqrt(hs_norm_sq(a)) + np.sqrt(hs_norm_sq(b)) + 1e-12


def test_hs_norm_rejects_non_square():
    with pytest.raises(DimensionError):
        hs_norm_sq(np.zeros((2, 3)))


def test_symmetrize():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    h = symmetrize(a)
    assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))
    herm = symmetrize(rng.standard_normal((3, 3)))
    np.testing.assert_array_equal(symmetrize(herm), herm)


def test_hermitian_cond_matches_the_svd_condition_number():
    rng = np.random.default_rng(11)
    for p in (1, 2, 3, 6):
        x = rng.standard_normal((40, p, p + 2)) + 1j * rng.standard_normal((40, p, p + 2))
        spd = x @ np.conj(np.swapaxes(x, -1, -2))
        herm = symmetrize(rng.standard_normal((40, p, p)) + 1j * rng.standard_normal((40, p, p)))
        real_spd = spd.real @ spd.real.swapaxes(-1, -2)
        for batch in (spd, herm, real_spd):
            np.testing.assert_allclose(hermitian_cond(batch), np.linalg.cond(batch), rtol=1e-12)
    assert isinstance(hermitian_cond(np.eye(3)), float)
    assert hermitian_cond(np.diag([4.0, -2.0])) == 2.0
    with pytest.raises(DimensionError):
        hermitian_cond(np.ones((2, 3)))


def test_hermitian_cond_of_a_singular_matrix_is_inf_without_a_warning():
    import warnings

    singular = np.array([np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0]), np.eye(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conds = hermitian_cond(singular)
        assert hermitian_cond(np.zeros((2, 2))) == np.inf
    np.testing.assert_array_equal(conds, [np.inf, np.inf, 1.0])


def test_certified_inverse_is_numpys_inverse_bit_for_bit():
    rng = np.random.default_rng(12)
    for p in (1, 2, 12):
        batch = rng.standard_normal((9, p, p)) + 1j * rng.standard_normal((9, p, p))
        for mats in (batch, batch.real, batch[0]):
            np.testing.assert_array_equal(certified_inverse(mats, 1e12), np.linalg.inv(mats))


def test_certified_inverse_declines_what_its_bound_cannot_certify():
    # cond(I_4) = 1, but ||I||_F ||I**-1||_F = 4 is above 7 / 2
    assert certified_inverse(np.eye(4), 7.0) is None
    assert certified_inverse(np.eye(4), 8.0) is not None
    # cond 7e11 is under the limit 1e12, but above the bound's limit / 2
    assert certified_inverse(np.diag([1.0, 1 / 7e11]), 1e12) is None
    # one uncertified matrix declines the whole batch
    assert certified_inverse(np.array([np.eye(2), np.diag([1.0, 1e-13])]), 1e12) is None
    with pytest.raises(DimensionError):
        certified_inverse(np.ones((2, 3)), 1e12)


@pytest.mark.parametrize("mats", [np.zeros((2, 2)), np.ones((3, 3)), np.diag([1.0, 1e-200]),
                                  np.diag([1e200, 1e-200]), np.full((2, 2), np.nan),
                                  np.diag([1.0, np.inf])],
                         ids=["zero", "rank one", "1e-200 pivot", "1e200 and 1e-200", "nan", "inf"])
def test_certified_inverse_declines_singular_and_extreme_matrices_without_a_warning(mats):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certified_inverse(mats, 1e12) is None
        assert certified_inverse(mats.astype(complex), 1e12) is None


def test_validate_spectral_reports():
    ok = validate_spectral(np.eye(3)[None])
    assert ok.ok and ok.hermitian_deviation == 0.0
    assert ok.min_eigenvalue == pytest.approx(1.0)

    indefinite = validate_spectral(np.diag([1.0, -0.5]))
    assert indefinite.hermitian_ok
    assert not indefinite.psd_ok
    assert indefinite.min_eigenvalue == pytest.approx(-0.5)

    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert not validate_spectral(skew).hermitian_ok


def test_spectral_estimate_validation():
    grid = FrequencyGrid(8)
    mats = np.tile(np.eye(2), (5, 1, 1)).astype(complex)
    est = SpectralEstimate(grid, mats, tag="truth")
    assert est.n_channels == 2
    assert est.validate().ok

    with pytest.raises(DimensionError):
        SpectralEstimate(grid, mats[:4], tag="truth")
    with pytest.raises(DomainError):
        SpectralEstimate(grid, mats, tag="banana")
    bad = mats.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(DomainError):
        SpectralEstimate(grid, bad, tag="truth")


def test_extend_full_circle_even_and_odd():
    rng = np.random.default_rng(4)
    for n in (8, 9):
        half = n // 2 + 1
        m = rng.standard_normal((half, 2, 2)) + 1j * rng.standard_normal((half, 2, 2))
        full = extend_full_circle(m, n)
        assert full.shape == (n, 2, 2)
        np.testing.assert_array_equal(full[:half], m)
        for j in range(half, n):
            np.testing.assert_array_equal(full[j], np.conj(m[n - j]))


def test_extend_full_circle_matches_dft_symmetry():
    # a real series' periodogram on the full circle obeys I(T-j) = conj(I(j))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(16)
    d = np.fft.fft(x)
    full = np.abs(d) ** 2
    half = full[: 16 // 2 + 1]
    np.testing.assert_allclose(extend_full_circle(half[:, None, None].astype(complex), 16)[:, 0, 0].real,
                               full, rtol=1e-12)


def _trials_with_duplicates():
    values = np.random.default_rng(19).standard_normal((7, 3, 16))
    values[[4, 6]] = values[1]
    return values


def test_canonical_trial_order_visits_the_same_contents_for_any_permutation():
    values = _trials_with_duplicates()
    order = core.canonical_trial_order(values)
    assert order.dtype == np.intp and sorted(order) == list(range(7))
    contents = values[order]
    for seed in range(5):
        shuffled = values[np.random.default_rng(seed).permutation(7)]
        np.testing.assert_array_equal(shuffled[core.canonical_trial_order(shuffled)], contents)


def test_canonical_trial_order_keeps_byte_identical_trials_in_input_order():
    order = list(core.canonical_trial_order(_trials_with_duplicates()))
    first = order.index(1)
    assert order[first:first + 3] == [1, 4, 6]


def test_canonical_trial_order_of_a_single_trial():
    np.testing.assert_array_equal(core.canonical_trial_order(np.ones((1, 2, 8))), [0])


def test_canonical_trial_order_reads_each_trial_in_c_order():
    values = _trials_with_duplicates()
    expected = core.canonical_trial_order(values)
    for layout in (np.asfortranarray(values), np.concatenate([values, values], axis=2)[..., :16]):
        assert not layout.flags.c_contiguous
        np.testing.assert_array_equal(core.canonical_trial_order(layout), expected)
    strided = values[:, :, ::2]
    np.testing.assert_array_equal(core.canonical_trial_order(strided),
                                  core.canonical_trial_order(strided.copy()))


def _byte_sorted(values):
    return sorted(range(len(values)), key=lambda i: values[i].tobytes())


def test_canonical_trial_order_sorts_the_trials_by_their_bytes():
    base = np.random.default_rng(23).standard_normal((5, 2, 4))
    last_byte = np.repeat(base[:1], 5, axis=0)  # trials that differ only in their last byte
    last_byte.view(np.uint8)[:, -1, -1] = [9, 3, 250, 0, 3]
    zeros = np.zeros((4, 1, 3))
    zeros[[0, 2], 0, 1] = -0.0  # -0.0 and 0.0 differ in their sign byte
    cases = [base, last_byte, zeros, _trials_with_duplicates(), base[:1], base[:0],
             np.full((3, 2, 2), 1.5)]
    for values in cases:
        order = core.canonical_trial_order(values)
        assert order.dtype == np.intp and order.shape == (len(values),)
        assert list(order) == _byte_sorted(values)
    assert list(core.canonical_trial_order(last_byte)) == [3, 1, 4, 0, 2]
    assert list(core.canonical_trial_order(zeros)) == [1, 3, 0, 2]
    assert list(core.canonical_trial_order(np.full((3, 2, 2), 1.5))) == [0, 1, 2]


_COUNT_SERIES = MultiTrialSeries(np.random.default_rng(11).standard_normal((4, 2, 32)))


def _multitaper_with(n_tapers):
    multitaper_estimator(_COUNT_SERIES, n_tapers)  # the estimate keeps no count to report


def _detrend_with(degree):
    detrend(_COUNT_SERIES, degree)  # nor does the detrended series

#: Every place a count-valued setting enters, as ``(odd, call)``; ``call(value)``
#: returns the count the entry point kept, or None where it keeps none.
COUNT_ENTRY_POINTS = {
    "options.window": (True, lambda v: PipelineOptions(window=v).window),
    "options.max_order": (False, lambda v: PipelineOptions(max_order=v).max_order),
    "options.var_order": (False, lambda v: PipelineOptions(var_order=v).var_order),
    "options.fixed_span": (True, lambda v: PipelineOptions(fixed_span=v).fixed_span),
    "options.n_tapers": (False, lambda v: PipelineOptions(n_tapers=v).n_tapers),
    "options.span_grid": (True, lambda v: PipelineOptions(span_grid=(1, v)).span_grid[1]),
    "options.taper_grid": (False, lambda v: PipelineOptions(taper_grid=(v,)).taper_grid[0]),
    "smoothing.fixed_span": (True, lambda v: smoothed_estimator(
        _COUNT_SERIES, fixed_span=v)[1].fixed_span),
    "smoothing.span_grid": (True, lambda v: smoothed_estimator(
        _COUNT_SERIES, span_grid=(v,))[1].span_grid[0]),
    "validate_span_grid": (True, lambda v: validate_span_grid((v,))[0]),
    "hann_weights": (True, lambda v: len(hann_weights(v))),
    "validate_taper_grid": (False, lambda v: validate_taper_grid((v,), 32)[0]),
    "fit_var": (False, lambda v: fit_var(_COUNT_SERIES, v).order),
    "select_var_order": (False, lambda v: len(select_var_order(_COUNT_SERIES, v).criterion)),
    "sine_tapers": (False, lambda v: len(sine_tapers(32, v))),
    "detrend": (False, _detrend_with),
    "multitaper_estimator": (False, _multitaper_with),
    "monte_carlo_compare.reps": (False, lambda v: monte_carlo_compare(
        SimulationConfig(n_trials=2, n_samples=32), estimators=("truth",), reps=v).n_reps),
}

NOT_COUNTS = [True, np.bool_(True), 2.5, 2.0, "3", 0, -1]

#: Entry points whose count may be 0, such as a polynomial degree.
COUNTS_FROM_ZERO = {"detrend"}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (odd, _) in COUNT_ENTRY_POINTS.items() for value in NOT_COUNTS + [4] * odd
    if not (entry in COUNTS_FROM_ZERO and value == 0)])
def test_every_count_setting_follows_one_rule(entry, value):
    with pytest.raises(DomainError, match=re.escape(f"got {value!r}")):
        COUNT_ENTRY_POINTS[entry][1](value)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_numpy_integer_counts_come_back_as_int(entry):
    kept = COUNT_ENTRY_POINTS[entry][1](np.int64(3))
    assert kept is None or (kept == 3 and type(kept) is int)


#: Every place a sampling rate or a shrinkage weight enters, as ``(rule, call)``;
#: ``call(value)`` returns the value the entry point kept.  ``read_trials_csv`` is
#: given a missing file, so it keeps nothing and must reject a bad rate before opening it.
REAL_ENTRY_POINTS = {
    "FrequencyGrid": ("a finite number > 0", lambda v: FrequencyGrid(8, v).sampling_rate),
    "MultiTrialSeries": ("a finite number > 0", lambda v: MultiTrialSeries(
        np.arange(8.0).reshape(1, 2, 4), sampling_rate=v).sampling_rate),
    "SimulationConfig": ("a finite number > 0", lambda v: SimulationConfig(
        n_trials=1, n_samples=8, sampling_rate=v).sampling_rate),
    "read_trials_csv": ("a finite number > 0", lambda v: read_trials_csv("missing.csv", v)),
    "options.fixed_weight": ("a number in [0, 1]",
                             lambda v: PipelineOptions(fixed_weight=v).fixed_weight),
    "SimulationConfig.ma_weight": ("a finite number", lambda v: SimulationConfig(
        n_trials=1, n_samples=8, ma_weight=v).ma_weight),
    "SimulationConfig.ar_weight": ("a finite number", lambda v: SimulationConfig(
        n_trials=1, n_samples=8, ar_weight=v).ar_weight),
}

NOT_REALS = [True, np.bool_(False), "0.5", math.nan, math.inf, -math.inf]

#: Further values each rule rejects; ``None`` means "no rate" where a rate is optional.
OUTSIDE_RULE = {"a finite number > 0": [-0.5, 0, 0.0], "a number in [0, 1]": [-0.5, 1.5],
                "a finite number": [None, "0.3"]}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (rule, _) in REAL_ENTRY_POINTS.items()
    for value in NOT_REALS + OUTSIDE_RULE[rule]])
def test_every_rate_and_weight_follows_one_rule(entry, value):
    rule, call = REAL_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=re.escape(f"must be {rule}, got {value!r}")):
        call(value)


@pytest.mark.parametrize("entry", [entry for entry in REAL_ENTRY_POINTS
                                   if entry != "read_trials_csv"])
@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5)])
def test_rates_and_weights_come_back_as_float(entry, value):
    kept = REAL_ENTRY_POINTS[entry][1](value)
    assert kept == value and type(kept) is float


def test_check_count_and_check_grid():
    assert check_count(np.int32(5), "span", odd=True) == 5
    with pytest.raises(DomainError, match="span must be an odd integer >= 1, got 4"):
        check_count(4, "span", odd=True)
    assert check_grid(np.arange(1, 4), "taper counts") == (1, 2, 3)
    for grid in ((), (3, 3)):
        with pytest.raises(DomainError, match=re.escape(
                f"taper counts must be nonempty and strictly increasing, got {grid}")):
            check_grid(grid, "taper counts")
    with pytest.raises(DomainError, match="smoothing spans must be nonempty"):
        PipelineOptions(span_grid=[])
    with pytest.raises(DomainError, match="strictly increasing"):
        PipelineOptions(taper_grid=(4, 2))


@pytest.mark.parametrize("workers", [1, 2])
def test_map_trials_yields_in_trial_order_and_runs_at_most_one_trial_ahead_per_worker(
        monkeypatch, workers):
    monkeypatch.setattr(core, "_worker_count", lambda n_tasks: workers)
    started = []

    def square(n, _space):
        started.append(n)
        time.sleep(0.002 * (n % 3 == 0))  # trials finish out of order
        return n * n

    for n, result in enumerate(map_trials(square, 10, lambda: None)):
        assert result == n * n
        assert len(started) <= n + 1 + workers
    assert sorted(started) == list(range(10))
    assert list(map_trials(square, 0, lambda: None)) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_trials_gives_each_trial_in_flight_its_own_scratch(monkeypatch, workers):
    monkeypatch.setattr(core, "_worker_count", lambda n_tasks: workers)
    makers = []

    def scratch():
        makers.append(threading.get_ident())
        return np.zeros(1)

    def fill(n, space):
        time.sleep(0.002 * (n % 3 == 0))  # trials finish out of order
        space[0] = n
        return space  # a view of the space, valid until the next result is taken

    for n, result in enumerate(map_trials(fill, 10, scratch)):
        assert result[0] == n
    assert makers == [threading.get_ident()] * (workers + 1)
    assert list(map_trials(fill, 0, scratch)) == []


def test_worker_count_is_the_available_cpus_capped_by_the_tasks():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert core._worker_count(10**6) == cpus
    assert core._worker_count(1) == 1
    assert core._worker_count(0) == 1
