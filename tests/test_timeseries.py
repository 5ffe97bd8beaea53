"""Trial container invariants and per-trial preprocessing."""

import weakref
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from specshrink import (
    DegenerateChannelError,
    DimensionError,
    DomainError,
    InsufficientDataError,
    MultiTrialSeries,
    detrend,
    standardize,
)


def make_series(seed=0, shape=(4, 3, 64), fs=1.0):
    rng = np.random.default_rng(seed)
    return MultiTrialSeries(rng.standard_normal(shape), sampling_rate=fs)


def test_container_shape_and_labels():
    series = make_series()
    assert (series.n_trials, series.n_channels, series.n_samples) == (4, 3, 64)
    assert series.channel_labels == ("ch00", "ch01", "ch02")
    named = MultiTrialSeries(series.values, channel_labels=("a", "b", "c"))
    assert named.channel_labels == ("a", "b", "c")


def test_container_rejects_bad_input():
    with pytest.raises(DimensionError):
        MultiTrialSeries(np.zeros((3, 64)))
    with pytest.raises(InsufficientDataError):
        MultiTrialSeries(np.zeros((1, 1, 1)))
    with pytest.raises(DomainError):
        MultiTrialSeries(np.full((1, 1, 4), np.nan))
    with pytest.raises(DomainError):
        MultiTrialSeries(np.zeros((1, 1, 4)), sampling_rate=-1.0)
    with pytest.raises(DimensionError):
        MultiTrialSeries(np.zeros((1, 2, 4)), channel_labels=("only",))


def test_values_are_a_read_only_view_of_the_callers_array():
    # The cached periodograms and trial order would go stale if the values changed,
    # so the series cannot change them; the caller's own array is not copied.
    x = np.random.default_rng(5).standard_normal((4, 2, 32))
    series = MultiTrialSeries(x)
    assert np.shares_memory(series.values, x) and x.flags.writeable
    for derived in (series, replace(series), series.drop_trial(1),
                    MultiTrialSeries(x.astype(np.float32))):
        with pytest.raises(ValueError):
            derived.values[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            derived.values *= 2.0


def test_drop_trial():
    series = make_series()
    reduced = series.drop_trial(1)
    assert reduced.n_trials == 3
    np.testing.assert_array_equal(reduced.values[0], series.values[0])
    np.testing.assert_array_equal(reduced.values[1], series.values[2])
    with pytest.raises(DimensionError):
        series.drop_trial(4)
    for bad in (True, 1.0, -1, "1"):
        with pytest.raises(DomainError, match="trial index"):
            series.drop_trial(bad)
    np.testing.assert_array_equal(series.drop_trial(np.int64(1)).values, reduced.values)
    single = MultiTrialSeries(series.values[:1])
    with pytest.raises(InsufficientDataError):
        single.drop_trial(0)


def test_replicates_share_one_value_per_kind_formed_once_per_loop():
    series = make_series()
    calls = []

    def build(parent):
        calls.append(parent)
        return len(calls)

    replicates = list(series.leave_one_out())
    assert len(replicates) == series.n_trials
    for index, replicate in enumerate(replicates):
        np.testing.assert_array_equal(replicate.values, series.drop_trial(index).values)
    first, second = replicates[0], replicates[2]
    value, kept = first.shared("kind", 1, build)
    assert value == 1 and calls == [series]
    np.testing.assert_array_equal(kept, [1, 2, 3])
    value, kept = second.shared("kind", 1, build)  # formed once for every sibling
    assert value == 1
    np.testing.assert_array_equal(kept, [0, 1, 3])
    assert second.shared("kind", 2, build)[0] == 2  # a new key replaces the old value
    assert first.shared("kind", 1, build)[0] == 3
    assert first.shared("other", 1, build)[0] == 4  # one value per kind
    assert second.shared("kind", 1, build)[0] == 3
    assert calls == [series] * 4
    # another loop over the same series forms its own
    assert next(series.leave_one_out()).shared("kind", 1, build)[0] == 5
    assert calls == [series] * 5
    # the store is the loop's; a series not made by leave_one_out shares nothing
    fields = {"values", "sampling_rate", "channel_labels"}
    assert set(vars(series)) == fields and set(vars(first)) == fields | {"_origin"}
    made = {"series": series, "drop_trial": series.drop_trial(0), "replace": replace(first),
            "replace with a new rate": replace(first, sampling_rate=2.0),
            "detrend": detrend(first), "standardize": standardize(first)}
    for name, other in made.items():
        assert other.shared("kind", 1, build) is None, name
    assert len(calls) == 5


def test_a_leave_one_out_loop_holds_no_replicate_while_it_builds_the_next(monkeypatch):
    refs = []
    drop_trial = MultiTrialSeries.drop_trial

    def spy(self, index):
        assert all(ref() is None for ref in refs), index
        replicate = drop_trial(self, index)
        refs.append(weakref.ref(replicate))
        return replicate

    monkeypatch.setattr(MultiTrialSeries, "drop_trial", spy)
    deque(make_series().leave_one_out(), maxlen=0)  # drops each replicate at once
    assert len(refs) == 4 and refs[-1]() is None


def test_detrend_removes_polynomials_exactly():
    t = np.linspace(-1.0, 1.0, 50)
    poly = 3.0 - 2.0 * t + 0.5 * t**2
    series = MultiTrialSeries(np.tile(poly, (2, 2, 1)))
    out = detrend(series, order=2)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-12)
    # linear detrend leaves the quadratic part behind
    lin = detrend(series, order=1)
    assert np.max(np.abs(lin.values)) > 0.01


def test_detrend_matches_lstsq():
    series = make_series(seed=1, shape=(1, 1, 40))
    out = detrend(series, order=1)
    t = np.linspace(-1.0, 1.0, 40)
    design = np.stack([np.ones(40), t], axis=1)
    coef, *_ = np.linalg.lstsq(design, series.values[0, 0], rcond=None)
    np.testing.assert_allclose(out.values[0, 0], series.values[0, 0] - design @ coef, atol=1e-10)


def test_detrend_is_idempotent():
    series = make_series(seed=2)
    once = detrend(series)
    twice = detrend(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


def test_detrend_degree_bounds():
    series = make_series(shape=(1, 1, 4))
    with pytest.raises(DomainError):
        detrend(series, order=-1)
    with pytest.raises(InsufficientDataError):
        detrend(series, order=3)


def test_standardize_values():
    series = MultiTrialSeries(np.array([[[1.0, 3.0]]]))
    out = standardize(series)
    # mean 2, sd sqrt(2) with ddof=1
    np.testing.assert_allclose(out.values[0, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])
    big = standardize(make_series(seed=3))
    np.testing.assert_allclose(big.values.mean(axis=2), 0.0, atol=1e-12)
    np.testing.assert_allclose(big.values.std(axis=2, ddof=1), 1.0, rtol=1e-12)


def test_standardize_is_the_same_at_every_power_of_two_scale():
    # 2**k x is exact, so the result matches wherever 2**k x is finite and normal
    series = make_series(seed=3)
    expected = standardize(series).values
    tested = 0
    for k in range(-1000, 1001):
        values = np.ldexp(series.values, k)
        if np.all(np.isfinite(values)) and np.abs(values).min() >= np.finfo(float).tiny:
            np.testing.assert_array_equal(standardize(replace(series, values=values)).values,
                                          expected, err_msg=f"k = {k}")
            tested += 1
    assert tested > 1900


def test_standardize_rejects_constant_channel():
    vals = np.random.default_rng(4).standard_normal((2, 2, 10))
    vals[1, 0] = 7.0
    with pytest.raises(DegenerateChannelError, match="ch00.*trial 1"):
        standardize(MultiTrialSeries(vals))


def test_derived_values_are_kept_on_the_series_and_not_on_series_made_from_it():
    series = make_series()
    pgrams, order = series.periodograms, series.trial_order
    assert series.periodograms is pgrams and series.trial_order is order
    derived = {"drop_trial": series.drop_trial(1), "detrend": detrend(series),
               "standardize": standardize(series), "replace": replace(series)}
    for name, other in derived.items():
        assert "periodograms" not in vars(other) and "trial_order" not in vars(other), name
        assert other.periodograms is not pgrams and other.trial_order is not order, name
