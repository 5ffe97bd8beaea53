"""Coherence, partial coherence, band statistics, and the inference stack."""

import math

import numpy as np
import pytest

from specshrink import connectivity, var
from specshrink import (
    BandStats,
    ConnectivityResult,
    DegenerateChannelError,
    DimensionError,
    DomainError,
    EmptyBandError,
    FrequencyGrid,
    InsufficientDataError,
    MultiTrialSeries,
    NearSingularError,
    PipelineError,
    PipelineOptions,
    SimulationConfig,
    SpectralEstimate,
    apply_fdr,
    band_average,
    bh_fdr,
    coherence,
    detrend,
    fisher_z,
    fit_var,
    hermitian_cond,
    jackknife_band_stats,
    pairwise_tests,
    partial_coherence,
    shrinkage_pipeline,
    simulate_mixture,
    standardize,
    symmetrize,
    welch_t,
)
from conftest import fsum_columns, guard_outcome


def estimate_from(matrices, n_samples=None, fs=None, tag="shrinkage"):
    mats = np.asarray(matrices, dtype=complex)
    n_samples = n_samples if n_samples is not None else 2 * (mats.shape[0] - 1)
    return SpectralEstimate(FrequencyGrid(n_samples, fs), mats, tag=tag)


def random_spd_spectrum(rng, n_freq, p):
    mats = rng.standard_normal((n_freq, p, p)) + 1j * rng.standard_normal((n_freq, p, p))
    mats = mats @ np.conj(np.swapaxes(mats, -1, -2)) + 3.0 * np.eye(p)
    mats[0] = mats[0].real
    mats[-1] = mats[-1].real
    return mats


def test_coherence_identity_and_known_value():
    est = estimate_from(np.tile(np.eye(2), (5, 1, 1)))
    coh = coherence(est)
    assert coh.kind == "coherence"
    np.testing.assert_array_equal(coh.values, np.tile(np.eye(2), (5, 1, 1)))

    f = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    coh = coherence(estimate_from(np.tile(f, (5, 1, 1))))
    np.testing.assert_allclose(coh.values[:, 0, 1], 0.25, atol=1e-14)


def test_coherence_of_rank_one_spectrum_is_one():
    rng = np.random.default_rng(0)
    d = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    d += 2.0  # keep every component away from zero
    mats = d[:, :, None] * np.conj(d[:, None, :])
    coh = coherence(estimate_from(mats))
    np.testing.assert_allclose(coh.values, 1.0, atol=1e-12)


def test_coherence_rejects_nonpositive_autospectrum():
    mats = np.tile(np.eye(2), (5, 1, 1)).astype(complex)
    mats[2, 1, 1] = 0.0
    with pytest.raises(DegenerateChannelError, match="frequency index 2"):
        coherence(estimate_from(mats))


def test_partial_coherence_equals_coherence_for_two_channels():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mats = random_spd_spectrum(rng, 7, 2)
        est = estimate_from(mats)
        np.testing.assert_allclose(partial_coherence(est).values, coherence(est).values,
                                   atol=1e-12)


def test_partial_coherence_compound_symmetric_value():
    # equicorrelated 3x3 case: partial correlation r/(1+r) = 1/3, squared 1/9
    f = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    pcoh = partial_coherence(estimate_from(np.tile(f, (5, 1, 1))))
    off = pcoh.values[:, ~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 1.0 / 9.0, atol=1e-10)
    np.testing.assert_array_equal(pcoh.values[:, np.eye(3, dtype=bool)], 1.0)


def test_partial_coherence_diagonal_rescaling_invariance():
    rng = np.random.default_rng(2)
    mats = random_spd_spectrum(rng, 6, 4)
    base = partial_coherence(estimate_from(mats)).values
    scale = np.diag(rng.uniform(0.1, 10.0, size=4))
    rescaled = np.einsum("pq,jqr,rs->jps", scale, mats, scale)
    out = partial_coherence(estimate_from(rescaled)).values
    np.testing.assert_allclose(out, base, atol=1e-10)


def test_partial_coherence_against_cofactor_inverse():
    # independent route: invert through the cofactor expansion
    rng = np.random.default_rng(3)
    for p in (2, 3, 4, 5):
        mats = random_spd_spectrum(rng, 4, p)
        got = partial_coherence(estimate_from(mats)).values
        for j in range(4):
            f = 0.5 * (mats[j] + mats[j].conj().T)
            det = np.linalg.det(f)
            cof = np.empty((p, p), dtype=complex)
            for a in range(p):
                for b in range(p):
                    minor = np.delete(np.delete(f, a, axis=0), b, axis=1)
                    cof[a, b] = (-1) ** (a + b) * np.linalg.det(minor)
            inv = cof.T / det
            diag = np.real(np.diag(inv))
            expect = np.abs(inv) ** 2 / np.outer(diag, diag)
            np.fill_diagonal(expect, 1.0)
            np.testing.assert_allclose(got[j], expect.real, atol=1e-9)


def test_partial_coherence_rejects_singular_matrix():
    d = np.ones((5, 2), dtype=complex)
    mats = d[:, :, None] * np.conj(d[:, None, :])  # rank one
    with pytest.raises(NearSingularError):
        partial_coherence(estimate_from(mats))


def exact_partial_coherence(estimate):
    """Test-only oracle: partial coherence behind the exact inversion guard (an
    eigendecomposition per frequency), as before the guard was certified."""
    mats = symmetrize(estimate.matrices)
    conds = hermitian_cond(mats)
    worst = int(np.argmax(np.where(np.isfinite(conds), conds, np.inf)))
    if not np.all(np.isfinite(conds)) or conds[worst] > connectivity.INVERSION_COND_LIMIT:
        raise NearSingularError(
            f"spectral matrix at frequency index {worst} "
            f"(omega = {estimate.grid.omegas[worst]:.6g} rad/sample) has condition number "
            f"{conds[worst]:.3g}, above the inversion guard "
            f"{connectivity.INVERSION_COND_LIMIT:.0e}")
    inv = symmetrize(np.linalg.inv(mats))
    diag = np.real(np.diagonal(inv, axis1=-2, axis2=-1))
    vals = np.abs(inv) ** 2 / (diag[:, :, None] * diag[:, None, :])
    di = np.arange(estimate.n_channels)
    vals[:, di, di] = 1.0
    return vals


def _inversion_cases():
    rng = np.random.default_rng(23)
    d = np.ones((5, 2), dtype=complex)

    def diagonal(second):
        return np.tile(np.diag([1.0, second]), (5, 1, 1))

    return {
        "spd, 2 channels": random_spd_spectrum(rng, 5, 2),
        "spd, 5 channels": random_spd_spectrum(rng, 9, 5),
        # condition 7e11: under the limit 1e12, over the bound's 5e11
        "uncertified, under the limit": diagonal(1.0 / 7e11),
        "over the limit": diagonal(1e-13),
        "exactly singular": d[:, :, None] * np.conj(d[:, None, :]),
        "1e-200 pivot": diagonal(1e-200),
    }


@pytest.mark.parametrize("case", list(_inversion_cases()))
def test_certified_partial_coherence_matches_the_exact_guard(monkeypatch, case):
    estimate = estimate_from(_inversion_cases()[case])
    (oracle, oracle_warned) = guard_outcome(exact_partial_coherence, estimate)
    exact = []
    monkeypatch.setattr(connectivity, "hermitian_cond",
                        lambda mats: exact.append(1) or hermitian_cond(mats))
    result, warned = guard_outcome(partial_coherence, estimate)
    assert warned == oracle_warned == []
    if isinstance(oracle, tuple):
        assert result == oracle and oracle[0] is NearSingularError
    else:
        np.testing.assert_array_equal(result.values, oracle)
    assert exact == ([] if case.startswith("spd") else [1])


@pytest.mark.parametrize("n_trials, weights", [(3, (0.65, 0.35)), (3, (0.35, 0.65)),
                                               (120, (0.65, 0.35))])
def test_the_benchmark_mixture_needs_no_exact_condition_number(monkeypatch, n_trials, weights):
    # The certificates are the speed-up: without them every replicate pays an exact
    # condition number per VAR order, per transfer matrix and per spectral matrix.
    exact = []
    gram_cond, cond = var._gram_cond, np.linalg.cond
    monkeypatch.setattr(var, "_gram_cond", lambda gram: exact.append("gram") or gram_cond(gram))
    monkeypatch.setattr(np.linalg, "cond", lambda x: exact.append("transfer") or cond(x))
    monkeypatch.setattr(connectivity, "hermitian_cond",
                        lambda mats: exact.append("inversion") or hermitian_cond(mats))
    config = SimulationConfig(n_trials=n_trials, ma_weight=weights[0], ar_weight=weights[1],
                              seed=1)
    series = standardize(detrend(simulate_mixture(config), order=1))
    partial_coherence(shrinkage_pipeline(series).estimate)
    assert exact == ["gram"]  # fit_var checks the chosen order's Gram exactly


def test_connectivity_result_validation():
    with pytest.raises(DomainError):
        ConnectivityResult(kind="coherence", values=np.array([[0.0, 0.3], [0.2, 0.0]]))
    with pytest.raises(DomainError):
        ConnectivityResult(kind="coherence", values=np.full((2, 2), 1.5))
    with pytest.raises(DomainError):
        ConnectivityResult(kind="banana", values=np.eye(2))
    with pytest.raises(DimensionError):
        ConnectivityResult(kind="coherence", values=np.zeros((3, 2, 2)),
                           grid=FrequencyGrid(16))


def test_band_average_inclusive_endpoints():
    n_freq = 33  # T = 64 at fs = 64 -> integer Hz bins 0..32
    vals = np.zeros((n_freq, 2, 2))
    vals[:, 0, 1] = vals[:, 1, 0] = np.linspace(0.0, 0.9, n_freq)
    di = np.arange(2)
    vals[:, di, di] = 1.0
    result = ConnectivityResult(kind="coherence", values=vals,
                                grid=FrequencyGrid(64, sampling_rate=64.0))
    banded = band_average(result, (8.0, 12.0))
    assert banded.band == (8.0, 12.0)
    assert banded.values[0, 1] == pytest.approx(vals[8:13, 0, 1].mean(), rel=1e-12)
    with pytest.raises(EmptyBandError):
        band_average(result, (8.2, 8.8))
    with pytest.raises(DomainError):
        band_average(result, (12.0, 8.0))
    with pytest.raises(DimensionError):
        band_average(banded, (8.0, 12.0))


def test_band_average_needs_a_sampling_rate():
    vals = np.tile(np.eye(2), (9, 1, 1))
    result = ConnectivityResult(kind="coherence", values=vals, grid=FrequencyGrid(16))
    with pytest.raises(DomainError):
        band_average(result, (0.0, 1.0))


def _pipeline_estimate():
    # 6 trials of 128 samples at 128 Hz: a 1 Hz grid from 0 Hz to the Nyquist frequency, 64 Hz
    config = SimulationConfig(n_trials=6, n_samples=128, sampling_rate=128.0, seed=2)
    series = standardize(detrend(simulate_mixture(config), order=1))
    return shrinkage_pipeline(series, PipelineOptions(max_order=3)).estimate


#: Bands on the 1 Hz grid of :func:`_pipeline_estimate`, by name.
BANDS = {"alpha": (8.0, 12.0), "beta": (18.0, 30.0), "one-bin": (4.5, 5.5),
         "at-0-hz": (0.0, 3.0), "at-nyquist": (61.0, 64.0), "whole-grid": (0.0, 64.0)}


@pytest.mark.parametrize("band", list(BANDS))
def test_band_partial_coherence_is_the_band_average_bit_for_bit(band):
    estimate = _pipeline_estimate()
    oracle = band_average(partial_coherence(estimate), BANDS[band])
    banded = partial_coherence(estimate, band=BANDS[band])
    assert banded.band == oracle.band == BANDS[band] and banded.grid is None
    np.testing.assert_array_equal(banded.values, oracle.values)


def _singular_at(index):
    """The pipeline estimate with a rank-one matrix at grid frequency ``index``."""
    estimate = _pipeline_estimate()
    matrices = estimate.matrices.copy()
    d = np.ones(estimate.n_channels)
    matrices[index] = np.outer(d, d)
    return SpectralEstimate(estimate.grid, matrices, tag="shrinkage")


def test_band_partial_coherence_names_the_grid_index_of_an_in_band_singular_matrix():
    # grid index 10 is the third bin of the alpha band, 8..12 Hz
    estimate = _singular_at(10)
    message = (f"spectral matrix at frequency index 10 "
               f"(omega = {estimate.grid.omegas[10]:.6g} rad/sample)")
    with pytest.raises(NearSingularError) as banded:
        partial_coherence(estimate, band=BANDS["alpha"])
    with pytest.raises(NearSingularError) as whole:
        partial_coherence(estimate)
    assert str(banded.value).startswith(message)
    assert str(banded.value) == str(whole.value)


def test_band_partial_coherence_ignores_a_singular_matrix_outside_the_band():
    # the one behaviour change of band-only inversion: the whole grid still raises
    estimate = _singular_at(40)
    with pytest.raises(NearSingularError, match="frequency index 40 "):
        partial_coherence(estimate)
    banded = partial_coherence(estimate, band=BANDS["alpha"])
    clean = band_average(partial_coherence(_pipeline_estimate()), BANDS["alpha"])
    np.testing.assert_array_equal(banded.values, clean.values)


def test_band_partial_coherence_checks_the_band():
    estimate = _pipeline_estimate()
    with pytest.raises(EmptyBandError):
        partial_coherence(estimate, band=(8.2, 8.8))
    with pytest.raises(DomainError):
        partial_coherence(estimate, band=(12.0, 8.0))
    with pytest.raises(DomainError):  # no sampling rate
        partial_coherence(estimate_from(estimate.matrices), band=(0.0, 0.1))


def test_jackknife_inverts_only_the_band_bins(monkeypatch):
    sizes = []
    inverse = connectivity.certified_inverse
    monkeypatch.setattr(connectivity, "certified_inverse",
                        lambda mats, limit: sizes.append(len(mats)) or inverse(mats, limit))
    series = MultiTrialSeries(np.random.default_rng(4).standard_normal((5, 3, 64)),
                              sampling_rate=64.0)
    jackknife_band_stats(series, (8.0, 12.0), PipelineOptions(var_order=1, fixed_span=7))
    assert sizes == [5] * 5  # one call per replicate, on the 5 bins of 8..12 Hz


def test_fisher_z_values_and_domain():
    assert fisher_z(0.0) == 0.0
    assert fisher_z(0.25) == pytest.approx(0.5493061443340548, abs=1e-15)
    grid_vals = fisher_z(np.array([0.0, 0.1, 0.5, 0.9, 0.99]))
    assert np.all(np.diff(grid_vals) > 0)
    for bad in (-0.01, 1.0, np.nan):
        with pytest.raises(DomainError):
            fisher_z(bad)


def test_jackknife_matches_manual_replicates():
    rng = np.random.default_rng(4)
    series = MultiTrialSeries(rng.standard_normal((5, 2, 64)), sampling_rate=64.0)
    opts = PipelineOptions(var_order=1, fixed_span=7)
    stats = jackknife_band_stats(series, (8.0, 12.0), opts)
    assert stats.n_trials == 5 and stats.band == (8.0, 12.0)

    reps = []
    for leave_out in range(5):
        result = shrinkage_pipeline(series.drop_trial(leave_out), opts)
        banded = band_average(partial_coherence(result.estimate), (8.0, 12.0))
        vals = banded.values.copy()
        np.fill_diagonal(vals, 0.0)
        reps.append(fisher_z(vals))
    stack = np.stack(reps)[series.trial_order]
    mean = stack.sum(axis=0) / 5
    se = np.sqrt(4 / 5 * ((stack - mean) ** 2).sum(axis=0))
    np.testing.assert_array_equal(stats.mean_z, mean)
    np.testing.assert_array_equal(stats.se, se)
    np.testing.assert_array_equal(stats.mean_z, stats.mean_z.T)
    np.testing.assert_array_equal(np.diag(stats.mean_z), 0.0)


def test_jackknife_under_a_trial_permutation():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((6, 12, 64))
    series = MultiTrialSeries(values, sampling_rate=64.0)
    permuted = MultiTrialSeries(values[rng.permutation(6)], sampling_rate=64.0)
    for order in (1, 2):
        a, b = fit_var(series, order), fit_var(permuted, order)
        np.testing.assert_array_equal(a.coefs, b.coefs)
        np.testing.assert_array_equal(a.noise_cov, b.noise_cov)
    opts = PipelineOptions(max_order=2)
    a = jackknife_band_stats(series, (8.0, 12.0), opts)
    b = jackknife_band_stats(permuted, (8.0, 12.0), opts)
    np.testing.assert_array_equal(a.mean_z, b.mean_z)
    np.testing.assert_array_equal(a.se, b.se)


@pytest.mark.parametrize("live_trial", [0, 3])
def test_jackknife_failure_names_the_left_out_trial(live_trial):
    # channel 2 varies only in one trial, so only the replicate without it fails
    vals = np.random.default_rng(4).standard_normal((5, 3, 64))
    vals[np.arange(5) != live_trial, 2] = 0.0
    series = MultiTrialSeries(vals, sampling_rate=64.0)
    with pytest.raises(PipelineError) as info:
        jackknife_band_stats(series, (8.0, 12.0), PipelineOptions(var_order=1, fixed_span=7))
    assert info.value.stage == f"jackknife without trial {live_trial}"
    assert "var_fit" in str(info.value)


def test_jackknife_rejects_an_empty_band_before_any_replicate(monkeypatch):
    calls = []
    pipeline = connectivity.shrinkage_pipeline
    monkeypatch.setattr(connectivity, "shrinkage_pipeline",
                        lambda *args: calls.append(args) or pipeline(*args))
    series = MultiTrialSeries(np.random.default_rng(6).standard_normal((10, 2, 64)),
                              sampling_rate=64.0)
    with pytest.raises(EmptyBandError, match=r"no Fourier frequencies inside \[200.0, 300.0\]"):
        jackknife_band_stats(series, (200.0, 300.0), PipelineOptions(var_order=1, fixed_span=7))
    assert calls == []


def test_jackknife_needs_three_trials_before_any_replicate(monkeypatch):
    # each replicate's pipeline needs two trials
    calls = []
    pipeline = connectivity.shrinkage_pipeline
    monkeypatch.setattr(connectivity, "shrinkage_pipeline",
                        lambda *args: calls.append(args) or pipeline(*args))
    series = MultiTrialSeries(np.random.default_rng(6).standard_normal((2, 2, 64)),
                              sampling_rate=64.0)
    with pytest.raises(InsufficientDataError, match="at least three trials, got 2"):
        jackknife_band_stats(series, (8.0, 12.0), PipelineOptions(var_order=1, fixed_span=7))
    assert calls == []


def _assert_same_pipeline(got, expected):
    np.testing.assert_array_equal(got.model.coefs, expected.model.coefs)
    np.testing.assert_array_equal(got.model.noise_cov, expected.model.noise_cov)
    assert got.smoothing == expected.smoothing  # the spans
    np.testing.assert_array_equal(got.diagnostics.weight_raw, expected.diagnostics.weight_raw)
    np.testing.assert_array_equal(got.estimate.matrices, expected.estimate.matrices)


def _store(replicate):
    """The store that ``replicate``'s leave-one-out loop shares, ``kind: (key, value)``."""
    return replicate._origin[2]


def _shared(replicate, kind):
    """The value the replicates of ``replicate``'s loop share under ``kind``."""
    return _store(replicate)[kind][1]


def _only_cached_values(series):
    """Whether ``vars(series)`` holds nothing but its fields and cached values."""
    return set(vars(series)) <= {"values", "sampling_rate", "channel_labels",
                                 "periodograms", "trial_order"}


@pytest.mark.parametrize("duplicated", [False, True])
@pytest.mark.parametrize("cap", ["default", 0])
@pytest.mark.parametrize("options", [PipelineOptions(max_order=3, window=5),
                                     PipelineOptions(var_order=2, fixed_span=5)],
                         ids=["selected", "fixed"])
def test_replicates_from_trial_pieces_match_fresh_replicates_bit_for_bit(
        monkeypatch, options, cap, duplicated):
    # A replicate of leave_one_out reads its trials' rows of the DFTs, lag products and
    # span-risk terms formed once in its loop; a series built from the kept trials'
    # values shares nothing and computes everything itself.
    from specshrink import smoothing
    from specshrink.smoothing import default_span_grid, span_risks

    if cap == 0:  # every replicate transforms its trials' span terms again
        monkeypatch.setattr(smoothing, "F_OWN_CAP_BYTES", 0)
    # trials of three kinds, so that the spans differ between trials and replicates
    values = np.random.default_rng(3).standard_normal((6, 3, 64))
    values[::2, :, 1:] += 0.9 * values[::2, :, :-1]
    values[1::3] *= 3.0
    if duplicated:
        values = np.concatenate([values, values[2:3]])
    series = MultiTrialSeries(values, sampling_rate=64.0)
    spans = set()
    for leave_out, replicate in enumerate(series.leave_one_out()):
        fresh = MultiTrialSeries(np.delete(values, leave_out, axis=0), sampling_rate=64.0)
        np.testing.assert_array_equal(replicate.values, fresh.values)
        np.testing.assert_array_equal(replicate.trial_order, fresh.trial_order)
        result = shrinkage_pipeline(replicate, options)
        _assert_same_pipeline(result, shrinkage_pipeline(fresh, options))
        spans.update(result.smoothing.selected_spans)
        # a fixed span selects nothing, so the pipeline builds no span terms
        assert (("span terms" in _store(replicate))
                == (options.fixed_span is None or leave_out > 0))
        np.testing.assert_array_equal(span_risks(replicate, default_span_grid(64)),
                                      span_risks(fresh, default_span_grid(64)))
    assert leave_out == series.n_trials - 1
    assert len(spans) > 1 or options.fixed_span is not None
    assert (_shared(replicate, "span terms")[0] is None) == (cap == 0)


def test_two_drops_in_a_row_match_a_series_that_shares_nothing():
    values = np.random.default_rng(3).standard_normal((7, 3, 64))
    values[::2, :, 1:] += 0.9 * values[::2, :, :-1]
    series = MultiTrialSeries(values, sampling_rate=64.0)
    options = PipelineOptions(max_order=3, window=5)
    first = list(series.leave_one_out())[2]
    shrinkage_pipeline(first, options)  # fills the store of the loop over series
    for leave_out, twice in enumerate(first.leave_one_out()):
        assert twice._origin[0] is first and _store(twice) is not _store(first)
        if leave_out in (0, 3, 5):
            fresh = MultiTrialSeries(np.delete(np.delete(values, 2, axis=0), leave_out, axis=0),
                                     sampling_rate=64.0)
            _assert_same_pipeline(shrinkage_pipeline(twice, options),
                                  shrinkage_pipeline(fresh, options))
    assert set(_store(twice)) == set(_store(first)) == {"dfts", "lag products", "span terms"}
    assert _only_cached_values(series)


def test_a_copy_made_by_drop_trial_shares_nothing_and_leaves_nothing_on_its_series(
        monkeypatch):
    from specshrink import periodogram

    transformed = []
    for owner, name in ((periodogram, "_half_grid_dft"), (var, "_lag_products")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda values, *args, _original=original:
                            transformed.append(len(values)) or _original(values, *args))
    series = MultiTrialSeries(np.random.default_rng(8).standard_normal((5, 3, 64)),
                              sampling_rate=64.0)
    copy = series.drop_trial(1)
    shrinkage_pipeline(copy, PipelineOptions(max_order=2, window=5))
    assert copy.shared("dfts", None, lambda parent: pytest.fail("built")) is None
    assert transformed == [4, 4]  # its own trials alone
    assert _only_cached_values(series) and "periodograms" not in vars(series)


def test_the_store_dies_with_its_loop(monkeypatch):
    import weakref

    refs = []
    share = MultiTrialSeries.shared

    def shared(self, kind, key, build):
        value = share(self, kind, key, build)
        if value is not None:
            pieces = value[0] if isinstance(value[0], tuple) else (value[0],)
            refs.extend(weakref.ref(piece) for piece in pieces if piece is not None)
        return value

    monkeypatch.setattr(MultiTrialSeries, "shared", shared)
    parents = []
    pipeline = connectivity.shrinkage_pipeline
    monkeypatch.setattr(connectivity, "shrinkage_pipeline", lambda replicate, options:
                        parents.append(replicate._origin[0]) or pipeline(replicate, options))
    series = MultiTrialSeries(np.random.default_rng(8).standard_normal((5, 3, 64)),
                              sampling_rate=64.0)
    jackknife_band_stats(series, (8.0, 12.0), PipelineOptions(max_order=2, window=5))
    assert refs and all(ref() is None for ref in refs)
    assert len(parents) == 5 and all(parent is series for parent in parents)  # no copy
    assert _only_cached_values(series)

    refs.clear()
    replicates = []
    for replicate in series.leave_one_out():
        shrinkage_pipeline(replicate, PipelineOptions(max_order=2, window=5))
        replicates.append(replicate)
    assert refs and all(ref() is not None for ref in refs)  # the replicates hold the store
    del replicates, replicate
    assert all(ref() is None for ref in refs)
    assert _only_cached_values(series)


@pytest.mark.parametrize("cap", ["default", 0])
def test_replicates_transform_no_trial_again(monkeypatch, cap):
    from specshrink import periodogram, smoothing

    if cap == 0:
        monkeypatch.setattr(smoothing, "F_OWN_CAP_BYTES", 0)
    calls = []
    for owner, name in ((periodogram, "compute_periodograms"), (periodogram, "_half_grid_dft"),
                        (var, "_lag_products"), (smoothing._TrialTerms, "transform")):
        original = getattr(owner, name)
        label = f"{owner.__name__.rpartition('.')[2]}.{name}"
        monkeypatch.setattr(owner, name, lambda *args, _label=label, _original=original:
                            calls.append(_label) or _original(*args))
    series = MultiTrialSeries(np.random.default_rng(8).standard_normal((5, 3, 64)),
                              sampling_rate=64.0)
    jackknife_band_stats(series, (8.0, 12.0), PipelineOptions(max_order=2, window=5))
    # the loop transforms each trial once; each replicate computes its periodogram set
    # from its rows of those DFTs, and with f_own not kept, transforms its 4 kept trials'
    # span terms again
    assert sorted(calls) == sorted(
        ["periodogram._half_grid_dft", "var._lag_products"]
        + ["periodogram.compute_periodograms"] * 5
        + ["_TrialTerms.transform"] * (5 if cap == "default" else 5 + 5 * 4))
    # the loop owns the store: the caller's series holds nothing
    assert _only_cached_values(series)


@pytest.mark.parametrize("duplicated", [False, True])
def test_a_replicate_sorts_its_trials_into_the_parents_order_without_the_left_out_one(
        duplicated):
    values = np.random.default_rng(4).standard_normal((6, 2, 16))
    if duplicated:  # byte-identical trials at both ends of the input
        values = np.concatenate([values[3:4], values, values[3:4]])
    series = MultiTrialSeries(values)
    for leave_out in range(series.n_trials):
        order = series.trial_order[series.trial_order != leave_out]
        expected = order - (order > leave_out)
        np.testing.assert_array_equal(series.drop_trial(leave_out).trial_order, expected)


def test_jackknife_memory_is_its_pieces_plus_a_replicate(monkeypatch):
    # One jackknife call holds what its replicates share (DFTs, lag products, span terms
    # with f_own) plus about one replicate's working set; 40 x 12 x 256 keeps f_own (6.4 MB).
    import tracemalloc

    from specshrink import smoothing

    rng = np.random.default_rng(7)
    values = rng.standard_normal((40, 12, 256))
    values[:, :, 1:] += 0.5 * values[:, :, :-1]
    series = MultiTrialSeries(values, sampling_rate=256.0)
    band = (8.0, 12.0)
    jackknife_band_stats(MultiTrialSeries(values[:3], sampling_rate=256.0), band)  # caches
    fresh = MultiTrialSeries(values[1:], sampling_rate=256.0)
    tracemalloc.start()
    try:
        partial_coherence(shrinkage_pipeline(fresh).estimate, band=band)
        replicate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        jackknife_band_stats(series, band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    replicate = next(series.leave_one_out())
    shrinkage_pipeline(replicate)
    assert set(_store(replicate)) == {"dfts", "lag products", "span terms"}
    assert _shared(replicate, "span terms")[0] is not None
    shared_bytes = sum(array.nbytes for array in (
        _shared(replicate, "dfts"), _shared(replicate, "lag products"),
        *_shared(replicate, "span terms")))
    assert peak < shared_bytes + 3 * replicate_peak, (peak, shared_bytes, replicate_peak)

    # With the cap lowered, the same call keeps no f_own.
    monkeypatch.setattr(smoothing, "F_OWN_CAP_BYTES", 40 * 78 * 256 * 8 - 1)
    replicate = next(series.leave_one_out())
    shrinkage_pipeline(replicate)
    assert _shared(replicate, "span terms")[0] is None


def test_trial_pieces_keep_no_f_own_where_it_would_not_fit():
    # At 40 x 32 x 1024, f_own would take 40 * 528 * 1024 * 8 bytes = 173 MB.
    import tracemalloc

    from specshrink import smoothing
    from specshrink.smoothing import default_span_grid, span_risks

    series = MultiTrialSeries(np.random.default_rng(9).standard_normal((40, 32, 1024)),
                              sampling_rate=1024.0)
    f_own_bytes = 40 * 528 * 1024 * 8
    assert f_own_bytes > smoothing.F_OWN_CAP_BYTES
    tracemalloc.start()
    try:
        replicate = next(series.leave_one_out())
        span_risks(replicate, default_span_grid(1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _shared(replicate, "span terms")[0] is None
    assert peak < f_own_bytes / 2, peak


def test_jackknife_se_hand_example():
    # replicates 1, 2, 3: mean 2, sum of squared deviations 2,
    # SE = sqrt((n-1)/n * 2) = sqrt(4/3)
    stack = np.array([1.0, 2.0, 3.0])[:, None]
    mean = fsum_columns(stack) / 3
    se = np.sqrt(2 / 3 * fsum_columns((stack - mean) ** 2))
    assert mean[0] == 2.0
    assert se[0] == pytest.approx(1.1547005383792515, abs=1e-9)


def test_welch_t_hand_example():
    t, df, p = welch_t((1.0, 1.0, 5), (0.0, 1.0, 5))
    assert t == pytest.approx(0.7071067811865475, abs=1e-12)
    assert df == pytest.approx(8.0, abs=1e-12)
    assert p == pytest.approx(0.49957589436325933, abs=1e-9)


def test_welch_t_antisymmetry_and_edges():
    a, b = (0.4, 0.1, 6), (0.1, 0.2, 8)
    t_ab, df_ab, p_ab = welch_t(a, b)
    t_ba, df_ba, p_ba = welch_t(b, a)
    assert t_ab == -t_ba and df_ab == df_ba and p_ab == p_ba

    assert welch_t((0.5, 0.0, 5), (0.5, 0.0, 5)) == (0.0, np.inf, 1.0)
    t, df, p = welch_t((0.7, 0.0, 5), (0.5, 0.0, 5))
    assert t == np.inf and df == np.inf and p == 0.0
    t, *_ = welch_t((0.3, 0.0, 5), (0.5, 0.0, 5))
    assert t == -np.inf

    with pytest.raises(DomainError):
        welch_t((0.0, -1.0, 5), (0.0, 1.0, 5))
    with pytest.raises(DomainError):
        welch_t((0.0, 1.0, 1), (0.0, 1.0, 5))


def test_welch_t_p_value_matches_the_student_t_survival_function():
    # scipy (a test-only oracle) is itself off by up to about 3e-9 relative, at df = 1,
    # t = 1e-8; on these cases the two agree far inside 1e-11.
    from scipy import stats
    rng = np.random.default_rng(13)
    for _ in range(500):
        mean_a, mean_b = rng.normal(0.0, 3.0, 2)
        se_a, se_b = rng.uniform(0.01, 2.0, 2)
        n_a, n_b = rng.integers(2, 200, 2)
        t, df, p = welch_t((mean_a, se_a, n_a), (mean_b, se_b, n_b))
        assert p == pytest.approx(2.0 * float(stats.t.sf(abs(t), df)), rel=1e-11, abs=0.0)


def closed_form_t_tail(t, df):
    """``P(|T| >= |t|)`` for an integer ``df`` from A&S 26.7.3 (odd) and 26.7.4 (even):
    ``1 - A(t|df)`` with ``theta = atan(|t| / sqrt(df))``."""
    theta = math.atan(abs(t) / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    if df % 2:
        term, total = c, 0.0
        for k in range(1, (df - 1) // 2 + 1):  # cos, (2/3) cos^3, (2 4)/(3 5) cos^5, ...
            total += term
            term *= 2 * k / (2 * k + 1) * c * c
        return 1.0 - 2.0 / math.pi * (theta + s * total)
    term, total = 1.0, 0.0
    for k in range(df // 2):  # 1, (1/2) cos^2, (1 3)/(2 4) cos^4, ...
        total += term
        term *= (2 * k + 1) / (2 * k + 2) * c * c
    return 1.0 - s * total


def test_student_t_tail_against_closed_forms_and_limits():
    tail = connectivity._t_two_sided
    # Where the closed forms keep their digits (p above about 0.01 for 1 - A).
    for df in range(1, 11):
        for t in (1e-8, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            expected = closed_form_t_tail(t, df)
            assert tail(t, df) == pytest.approx(expected, rel=1e-12, abs=0.0), (df, t)
            assert tail(-t, df) == tail(t, df)
    # df = 1 and 2 have tails with no cancellation, over the whole range of t.
    for t in (1e-8, 1e-3, 0.3, 3.0, 40.0, 1e3, 1e6, 1e200):
        assert tail(t, 1) == pytest.approx(2.0 / math.pi * math.atan2(1.0, t), rel=1e-12)
        root = math.sqrt(2.0 + t * t)
        assert tail(t, 2) == pytest.approx(2.0 / (root * (root + t)), rel=1e-12)
    # Large df, where a log-beta from lgamma(a + 1/2) - lgamma(a), or a continued fraction
    # formed from 1 - x near x = 1, is off by about 1e-12: 40-digit mpmath values of
    # betainc(df/2, 1/2, 0, df/(df + t**2), regularized=True).
    for df, t, expected in ((20, 30.0, 4.1952253239996581622e-18),
                            (2000, 0.63, 0.5287665509954480338),
                            (2000, 1.74, 0.08201283793403035369),
                            (2000, 30.0, 1.3707730191126110873e-163),
                            (9999.5, 1.74, 0.081889783374537692912),
                            (9999.5, 3.0, 0.0027064485228383534671),
                            (1e6, 1.74, 0.081859325596102744689),
                            (1e6, 30.0, 1.2020094233663437883e-197)):
        assert tail(t, df) == pytest.approx(expected, rel=1e-13, abs=0.0), (df, t)
    # The normal limit: exactly erfc at df = inf, and within O(1/df) of it.
    for t in (0.5, 1.0, 2.0, 4.0):
        normal = math.erfc(t / math.sqrt(2.0))
        assert tail(t, math.inf) == normal
        assert tail(t, 1e8) == pytest.approx(normal, rel=1e-6)
    for df in (1, 2.5, 30, 1e4, math.inf):
        assert tail(0.0, df) == 1.0
        assert tail(math.inf, df) == 0.0 and tail(-math.inf, df) == 0.0


def test_bh_fdr_hand_example():
    flags = bh_fdr(np.array([0.01, 0.02, 0.04, 0.5]), q=0.05)
    np.testing.assert_array_equal(flags, [True, True, False, False])


def test_bh_fdr_extremes():
    np.testing.assert_array_equal(bh_fdr(np.ones(6)), np.zeros(6, dtype=bool))
    np.testing.assert_array_equal(bh_fdr(np.zeros(6)), np.ones(6, dtype=bool))
    assert bh_fdr(np.array([])).size == 0


def brute_force_bh(p, q):
    m = len(p)
    order = np.argsort(p, kind="stable")
    k_star = 0
    for k in range(1, m + 1):
        if p[order[k - 1]] <= q * k / m:
            k_star = k
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:k_star]] = True
    return rejected


def test_bh_fdr_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 13))
        p = np.round(rng.uniform(0, 1, size=m), 3)  # ties are likely
        q = float(rng.uniform(0.01, 0.3))
        np.testing.assert_array_equal(bh_fdr(p, q), brute_force_bh(p, q))


def test_bh_fdr_validation():
    with pytest.raises(DomainError):
        bh_fdr([0.5, 1.5])
    with pytest.raises(DomainError):
        bh_fdr([0.5], q=1.0)
    with pytest.raises(DimensionError):
        bh_fdr(np.zeros((2, 2)))


def make_band_stats(mean, se, n, band=(8.0, 12.0)):
    return BandStats(mean_z=np.asarray(mean), se=np.asarray(se), n_trials=n, band=band)


def test_pairwise_tests_and_joint_fdr():
    z_left = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.1], [0.2, 0.1, 0.0]])
    z_right = np.zeros((3, 3))
    se = np.full((3, 3), 0.05)
    left = make_band_stats(z_left, se, 10)
    right = make_band_stats(z_right, se, 10)
    tests = pairwise_tests(left, right)
    assert [(t.channel_a, t.channel_b) for t in tests] == [(0, 1), (0, 2), (1, 2)]
    first = tests[0]
    t, df, p = welch_t((1.0, 0.05, 10), (0.0, 0.05, 10))
    assert (first.t, first.df, first.p) == (t, df, p)
    assert first.rejected is None

    done = apply_fdr(tests, q=0.05)
    assert done[0].rejected is True
    assert all(test.rejected is not None for test in done)

    with pytest.raises(DomainError):
        pairwise_tests(left, make_band_stats(z_right, se, 10, band=(18.0, 30.0)))
    with pytest.raises(DimensionError):
        pairwise_tests(left, make_band_stats(np.zeros((2, 2)), se[:2, :2], 10))


@pytest.mark.parametrize("band, message", [
    (("a", 3), "a band is two numbers"), ((8,), "a band is two numbers"),
    ((8, 12, 16), "a band is two numbers"), (8, "a band is two numbers"),
    (None, "a band is two numbers"), ((8, None), "a band is two numbers"),
    (("8", "12"), "a band is two numbers"), ((True, 3), "a band is two numbers"),
    ((12.0, 8.0), "invalid band"), ((0.0, float("inf")), "invalid band")])
def test_bands_that_are_not_two_ordered_finite_numbers_raise_a_domain_error(band, message):
    with pytest.raises(DomainError, match=message):
        connectivity.check_band(band)


def test_band_edges_come_back_as_floats():
    lo, hi = connectivity.check_band((np.int64(8), np.float32(12.5)))
    assert (type(lo), type(hi)) == (float, float) and (lo, hi) == (8.0, 12.5)


def test_jackknife_rejects_a_bad_band_before_any_replicate():
    series = MultiTrialSeries(np.random.default_rng(3).standard_normal((3, 2, 32)),
                              sampling_rate=32.0)
    with pytest.raises(DomainError):
        jackknife_band_stats(series, (8, None))


@pytest.mark.parametrize("q", ["0.1", None, True, float("nan"), 0.0, 1.0])
def test_fdr_levels_that_are_not_numbers_in_the_open_unit_interval_raise_a_domain_error(q):
    with pytest.raises(DomainError):
        connectivity.check_fdr_level(q)
    with pytest.raises(DomainError):
        bh_fdr([0.01, 0.2], q)
