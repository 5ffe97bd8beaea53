"""Frequency grids, the normalised HS norm, spectral containers, exact sums, the trial map."""

import math
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshrink import (
    DimensionError,
    DomainError,
    FrequencyGrid,
    MultiTrialSeries,
    PipelineOptions,
    SimulationConfig,
    SpectralEstimate,
    exact_sum,
    extend_full_circle,
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
from specshrink.core import check_count, check_grid, map_trials
from specshrink.multitaper import validate_taper_grid
from specshrink.smoothing import validate_span_grid


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


def test_exact_sum_is_permutation_invariant():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((50, 3, 2)) * 10.0 ** rng.integers(-8, 9, size=(50, 3, 2))
    total = exact_sum(stack)
    assert total.shape == (3, 2)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(50)
        np.testing.assert_array_equal(exact_sum(stack[perm]), total)
    np.testing.assert_allclose(total, stack.sum(axis=0), rtol=1e-9)


def test_exact_sum_rejects_scalars():
    with pytest.raises(DimensionError):
        exact_sum(np.float64(3.0))


def test_exact_sum_of_an_empty_axis_is_zero():
    total = exact_sum(np.zeros((0, 3, 2)))
    assert total.shape == (3, 2)
    np.testing.assert_array_equal(total.view(np.uint64), np.zeros((3, 2)).view(np.uint64))
    assert exact_sum(np.zeros(0)).shape == ()
    assert exact_sum(np.zeros(0)) == math.fsum([])


def fsum_columns(arr):
    """The reference: ``math.fsum`` of every column, or the error it raises."""
    flat = arr.reshape(arr.shape[0], math.prod(arr.shape[1:]))
    try:
        sums = [math.fsum(col) for col in flat.T.tolist()]
    except (ValueError, OverflowError) as err:
        return err
    return np.array(sums, dtype=float).reshape(arr.shape[1:])


def assert_matches_fsum(arr):
    """``exact_sum`` equals ``math.fsum`` bit for bit, signed zeros and errors included."""
    expected = fsum_columns(arr)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            exact_sum(arr)
        return
    got = exact_sum(arr)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.reshape(-1).view(np.uint64),
                                  expected.reshape(-1).view(np.uint64))


#: Summand counts: one, a few, and more than 2**7 - 2, which needs a wider guard.
ROW_COUNTS = st.sampled_from([1, 2, 3, 7, 130])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Below 2**(1020 - 8), the largest magnitude the extraction takes for 130 summands.
EXTRACTABLE = st.floats(min_value=-2.0 ** 900, max_value=2.0 ** 900)


def filled(data, rows, cols, pool):
    """A ``(rows, cols)`` array whose entries are drawn from ``pool`` by a seeded generator."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    values = np.array(data.draw(st.lists(pool, min_size=1, max_size=12), label="pool"))
    return rng.choice(values, size=(rows, cols))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=ROW_COUNTS, cols=st.integers(1, 6))
def test_exact_sum_matches_fsum_over_the_full_exponent_range(data, rows, cols):
    # every entry independent: subnormals up to the largest finite float
    arr = np.array(data.draw(st.lists(FINITE, min_size=rows * cols, max_size=rows * cols)))
    assert_matches_fsum(arr.reshape(rows, cols))
    arr = np.array(data.draw(st.lists(EXTRACTABLE, min_size=rows * cols, max_size=rows * cols)))
    assert_matches_fsum(arr.reshape(rows, cols))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), half=st.integers(1, 65), cols=st.integers(1, 4))
def test_exact_sum_matches_fsum_on_cancellation_pairs(data, half, cols):
    # x and -x in shuffled rows; an optional small leftover makes a nonzero sum
    arr = filled(data, half, cols, EXTRACTABLE)
    leftover = np.full((1, cols), data.draw(EXTRACTABLE, label="leftover") * 2.0 ** -100)
    stack = np.concatenate([arr, -arr, leftover])
    order = np.random.default_rng(half).permutation(len(stack))
    assert_matches_fsum(stack[order])
    assert_matches_fsum(np.concatenate([arr, -arr])[order[order < 2 * half]])


@pytest.mark.parametrize("column", [
    [2.0 ** 53, 1.0, 2.0 ** -52],         # just above a tie: rounds up
    [2.0 ** 53, 1.0],                      # a tie: rounds to the even 2**53
    [2.0 ** 53 + 2.0, 1.0],                # a tie: rounds to the even 2**53 + 4
    [2.0 ** 53, 1.0, -(2.0 ** -80)],       # just below a tie: rounds down
    [1.0, 2.0 ** -53, 2.0 ** -106],        # a tie broken by the third level
    [1.0, 2.0 ** -53, -(2.0 ** -1074)],    # a tie broken by a subnormal
    [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0, -1.0],
    [5e-324, -5e-324, 5e-324],
])
def test_exact_sum_matches_fsum_on_ties_and_signed_zeros(column):
    for arr in (np.array(column), np.array(column)[::-1]):
        assert_matches_fsum(arr)
        assert_matches_fsum(np.repeat(arr[:, None], 3, axis=1))


@pytest.mark.parametrize("rows", [2, 6, 62, 126, 130])
def test_exact_sum_matches_fsum_when_summands_fill_the_guard_bits(rows):
    # rows - 1 summands just below 1 and one tiny negative one: the high parts
    # sum to a tie near rows - 1 that only the remainder breaks, so a guard
    # of fewer than ceil(log2(rows + 2)) bits rounds the first partial wrongly
    column = np.full(rows, 1.0 - 2.0 ** -45)
    column[0] = -(2.0 ** -46) + 2.0 ** -60
    assert_matches_fsum(column)
    assert_matches_fsum(column[::-1])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), mantissa=st.integers(2 ** 52, 2 ** 53 - 1),
       scale=st.integers(-900, 900), rows=ROW_COUNTS)
def test_exact_sum_matches_fsum_on_rounding_ties(data, mantissa, scale, rows):
    # a large odd or even float, half its last place and a nudge either way
    big = math.ldexp(float(mantissa), scale)
    half_ulp = math.ulp(big) / 2
    nudge = data.draw(st.sampled_from([0.0, half_ulp * 2.0 ** -60, -half_ulp * 2.0 ** -60]))
    column = np.zeros(rows + 3)
    column[:3] = [big, half_ulp, nudge]
    column[3:] = data.draw(st.sampled_from([0.0, half_ulp * 2.0 ** -70]))
    assert_matches_fsum(column[np.random.default_rng(rows).permutation(rows + 3)])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), rows=st.sampled_from([1, 2, 130]),
       cols=st.sampled_from([1, 251, 252, 253, 505]))
def test_exact_sum_matches_fsum_across_column_blocks(data, rows, cols):
    # 130 summands split the columns into blocks of 252
    assert_matches_fsum(filled(data, rows, cols, EXTRACTABLE))
    arr = filled(data, rows, cols, FINITE)
    assert_matches_fsum(arr)
    arr[-1, -1] = np.inf  # only the last block takes the per-column fallback
    assert_matches_fsum(arr)


@pytest.mark.parametrize("column", [
    [1.0, np.inf], [np.inf, -1.0, np.inf], [-np.inf, 2.0], [np.nan, 1.0],
    [np.inf, np.nan], [np.inf, -np.inf],                  # ValueError: -inf + inf
    [1e308, 1e308, -1e308], [-1e308, -1e308, 1e308],     # OverflowError: intermediate
    [1e308, -1e308, 1e308],                               # the same values, no overflow
    [2.0 ** 1019, 2.0 ** 1019], [2.0 ** 1013, 1.0, -(2.0 ** 1013)],
])
def test_exact_sum_matches_fsum_on_special_values(column):
    arr = np.array(column)
    assert_matches_fsum(arr)
    wide = np.ones((len(column), 4))
    wide[:, 2] = arr
    assert_matches_fsum(wide)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=ROW_COUNTS, cols=st.integers(1, 5))
def test_exact_sum_matches_fsum_with_infinities_and_nans(data, rows, cols):
    pool = st.one_of(FINITE, st.sampled_from([np.inf, -np.inf, np.nan]))
    assert_matches_fsum(filled(data, rows, cols, pool))


_COUNT_SERIES = MultiTrialSeries(np.random.default_rng(11).standard_normal((4, 2, 32)))


def _multitaper_with(n_tapers):
    multitaper_estimator(_COUNT_SERIES, n_tapers)  # the estimate keeps no count to report

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
    "multitaper_estimator": (False, _multitaper_with),
    "monte_carlo_compare.reps": (False, lambda v: monte_carlo_compare(
        SimulationConfig(n_trials=2, n_samples=32), estimators=("truth",), reps=v).n_reps),
}

NOT_COUNTS = [True, np.bool_(True), 2.5, 2.0, "3", 0, -1]


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (odd, _) in COUNT_ENTRY_POINTS.items() for value in NOT_COUNTS + [4] * odd])
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

    def square(n):
        started.append(n)
        time.sleep(0.002 * (n % 3 == 0))  # trials finish out of order
        return n * n

    for n, result in enumerate(map_trials(square, 10)):
        assert result == n * n
        assert len(started) <= n + 1 + workers
    assert sorted(started) == list(range(10))
    assert list(map_trials(square, 0)) == []


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
