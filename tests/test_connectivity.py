"""Coherence, partial coherence, band statistics, and the inference stack."""

import numpy as np
import pytest

from specshrink import (
    BandStats,
    ConnectivityResult,
    DegenerateChannelError,
    DimensionError,
    DomainError,
    EmptyBandError,
    FrequencyGrid,
    MultiTrialSeries,
    NearSingularError,
    PipelineError,
    PipelineOptions,
    SpectralEstimate,
    apply_fdr,
    band_average,
    bh_fdr,
    coherence,
    exact_sum,
    fisher_z,
    fit_var,
    jackknife_band_stats,
    pairwise_tests,
    partial_coherence,
    shrinkage_pipeline,
    welch_t,
)


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
    stack = np.stack(reps)
    mean = exact_sum(stack) / 5
    se = np.sqrt(4 / 5 * exact_sum((stack - mean) ** 2))
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
    # the periodogram mean and the span groups still sum in trial order
    opts = PipelineOptions(max_order=2)
    a = jackknife_band_stats(series, (8.0, 12.0), opts)
    b = jackknife_band_stats(permuted, (8.0, 12.0), opts)
    np.testing.assert_allclose(a.mean_z, b.mean_z, rtol=0, atol=1e-14)
    np.testing.assert_allclose(a.se, b.se, rtol=0, atol=1e-14)


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


def test_jackknife_se_hand_example():
    # replicates 1, 2, 3: mean 2, sum of squared deviations 2,
    # SE = sqrt((n-1)/n * 2) = sqrt(4/3)
    stack = np.array([1.0, 2.0, 3.0])[:, None]
    mean = exact_sum(stack) / 3
    se = np.sqrt(2 / 3 * exact_sum((stack - mean) ** 2))
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
    from scipy import stats
    rng = np.random.default_rng(13)
    for _ in range(500):
        mean_a, mean_b = rng.normal(0.0, 3.0, 2)
        se_a, se_b = rng.uniform(0.01, 2.0, 2)
        n_a, n_b = rng.integers(2, 200, 2)
        t, df, p = welch_t((mean_a, se_a, n_a), (mean_b, se_b, n_b))
        assert p == 2.0 * float(stats.t.sf(abs(t), df))


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
