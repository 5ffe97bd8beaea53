"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test evaluates one numbered criterion and appends a PASS/FAIL line to
the session log that :func:`conftest.pytest_terminal_summary` prints after
the run.  The first two tests share one 20-replicate Monte Carlo benchmark
run, which dominates the suite's runtime.
"""

import time

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from specshrink import (
    FrequencyGrid,
    MultiTrialSeries,
    PipelineOptions,
    SimulationConfig,
    SpectralEstimate,
    VarModel,
    bh_fdr,
    benchmark_ar_coefs,
    coherence,
    band_average,
    compute_periodograms,
    fisher_z,
    fit_var,
    jackknife_band_stats,
    monte_carlo_compare,
    multitaper_estimator,
    partial_coherence,
    read_trials,
    select_taper_count,
    select_var_order,
    shrinkage_pipeline,
    shrinkage_weight,
    simulate_mixture,
    simulate_var,
    smoothed_estimator,
    span_risks,
    var_spectrum,
    welch_t,
    write_trials,
)
from specshrink.cli import main as cli_main
from conftest import full_circle


def report(log, number, title, ok, detail=""):
    line = f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    log.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_run():
    start = time.time()
    result = monte_carlo_compare(
        SimulationConfig(seed=0), estimators=("var", "smoothed", "multitaper", "shrinkage"),
        reps=20, windows=(15, 7, 31))
    return result, time.time() - start


def competitor_bounds(result, name):
    spec, pcoh = result.integrated_spectral, result.integrated_pcoh
    ok_spectral = (spec[name] <= spec["smoothed"] and spec[name] <= spec["multitaper"])
    best_pcoh = min(pcoh["var"], pcoh["smoothed"], pcoh["multitaper"])
    return ok_spectral, pcoh[name] <= 1.1 * best_pcoh, best_pcoh


def test_criterion_1_simulation_study(benchmark_run, acceptance_log):
    result, elapsed = benchmark_run
    ok_spectral, ok_pcoh, best_pcoh = competitor_bounds(result, "shrinkage")

    # every channel of the autoregressive part peaks at the same frequency bin
    model = VarModel(benchmark_ar_coefs(), np.eye(12))
    auto = var_spectrum(model, result.grid).matrices[:, range(12), range(12)].real
    peaks = {int(b) for b in auto.argmax(axis=0)}
    near = sorted({b + d for b in peaks for d in (-2, -1, 0, 1, 2)})
    weight_near_peaks = result.mean_weight["shrinkage"][near]
    ok_weight = bool(np.all(weight_near_peaks > 0.5))
    ok_time = elapsed <= 900.0

    spec, pcoh = result.integrated_spectral, result.integrated_pcoh
    report(acceptance_log, 1, "simulation-study reproduction",
           ok_spectral and ok_pcoh and ok_weight and ok_time,
           f"spectral {spec['shrinkage']:.4f} vs smoothed {spec['smoothed']:.4f}, "
           f"multitaper {spec['multitaper']:.4f}; pcoh {pcoh['shrinkage']:.4f} vs "
           f"1.1x best {1.1 * best_pcoh:.4f}; min weight near peaks "
           f"{weight_near_peaks.min():.3f}; {elapsed:.0f}s")


def test_criterion_2_var_spectrum_oracle(acceptance_log):
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(20):
        n_channels = int(rng.integers(1, 5))
        order = int(rng.integers(1, 3))
        coefs = rng.normal(scale=0.4, size=(order, n_channels, n_channels))
        # rescale the roots so the spectral radius lands at a random stable target
        radius = VarModel(coefs, np.eye(n_channels)).spectral_radius()
        scale = radius / rng.uniform(0.3, 0.9)
        coefs *= scale ** -np.arange(1.0, order + 1)[:, None, None]
        root = rng.normal(size=(n_channels, n_channels))
        model = VarModel(coefs, root @ root.T + 0.1 * np.eye(n_channels))
        assert model.is_stable

        total = (2 * np.pi / 1024) * \
            full_circle(var_spectrum(model, FrequencyGrid(1024))).sum(axis=0)
        companion = model.companion()
        forcing = np.zeros_like(companion)
        forcing[:n_channels, :n_channels] = model.noise_cov
        cov = solve_discrete_lyapunov(companion, forcing)[:n_channels, :n_channels]
        worst = max(worst, np.linalg.norm(total.real - cov) / np.linalg.norm(cov))
    report(acceptance_log, 2, "grid sum matches lag-0 covariance",
           worst < 1e-3, f"worst relative error {worst:.2e}")


def test_criterion_3_least_squares_recovery(acceptance_log):
    coefs = np.stack([
        np.array([[0.40, 0.10, 0.00], [0.00, 0.30, 0.10], [0.10, 0.00, 0.20]]),
        np.array([[0.20, 0.00, 0.05], [0.05, 0.20, 0.00], [0.00, 0.05, 0.20]])])
    assert VarModel(coefs, np.eye(3)).is_stable
    max_err, bic_hits = 0.0, 0
    for seed in range(20):
        values = np.stack([simulate_var(coefs, np.eye(3), 256, seed=(31, seed, n))
                           for n in range(50)])
        series = MultiTrialSeries(values=values, sampling_rate=1.0)
        fit = fit_var(series, 2)
        max_err = max(max_err, float(np.max(np.abs(fit.coefs - coefs))))
        bic_hits += select_var_order(series, 5).order == 2

    # single-trial path against a directly coded least-squares solve
    single = MultiTrialSeries(values=values[:1], sampling_rate=1.0)
    x = values[0]
    design = np.hstack([x[:, 1:-1].T, x[:, :-2].T])
    response = x[:, 2:].T
    stacked, *_ = np.linalg.lstsq(design, response, rcond=None)
    direct = np.stack([stacked[:3].T, stacked[3:].T])
    ols_err = float(np.max(np.abs(fit_var(single, 2).coefs - direct)))

    report(acceptance_log, 3, "multi-trial least-squares recovery",
           max_err < 0.05 and bic_hits >= 18 and ols_err < 1e-9,
           f"max coefficient error {max_err:.4f}; order picked {bic_hits}/20; "
           f"single-trial gap {ols_err:.1e}")


def random_pd_spectrum(rng, n_channels, n_frequencies=4, sampling_rate=8.0):
    shape = (n_frequencies, n_channels, n_channels)
    factors = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    matrices = factors @ np.conj(np.transpose(factors, (0, 2, 1)))
    matrices += 3.0 * np.eye(n_channels)
    matrices[0] = matrices[0].real
    matrices[-1] = matrices[-1].real
    return SpectralEstimate(matrices=matrices,
                            grid=FrequencyGrid(2 * (n_frequencies - 1), sampling_rate),
                            tag="raw_mean")


def cofactor_inverse(matrix):
    n = len(matrix)
    adjugate = np.empty_like(matrix)
    for a in range(n):
        for b in range(n):
            minor = np.delete(np.delete(matrix, a, axis=0), b, axis=1)
            adjugate[b, a] = (-1) ** (a + b) * np.linalg.det(minor)
    return adjugate / np.linalg.det(matrix)


def test_criterion_4_partial_coherence_oracles(acceptance_log):
    rng = np.random.default_rng(4)
    pair_gap = 0.0
    for _ in range(100):
        estimate = random_pd_spectrum(rng, 2)
        gap = np.abs(partial_coherence(estimate).values - coherence(estimate).values)
        pair_gap = max(pair_gap, float(gap.max()))

    flat = np.tile(np.full((3, 3), 0.5) + 0.5 * np.eye(3), (4, 1, 1)).astype(complex)
    equi = SpectralEstimate(matrices=flat, grid=FrequencyGrid(6, 8.0),
                            tag="raw_mean")
    equi_gap = float(np.abs(partial_coherence(equi).values[:, 0, 1] - 1 / 9).max())

    rescale_gap = 0.0
    for _ in range(20):
        estimate = random_pd_spectrum(rng, 4)
        scales = np.diag(rng.uniform(0.1, 10.0, size=4))
        scaled = SpectralEstimate(matrices=scales @ estimate.matrices @ scales,
                                  grid=estimate.grid, tag="raw_mean")
        rescale_gap = max(rescale_gap, float(np.abs(
            partial_coherence(scaled).values - partial_coherence(estimate).values).max()))

    cofactor_gap = 0.0
    for n_channels in (2, 3, 4, 5):
        for _ in range(5):
            estimate = random_pd_spectrum(rng, n_channels)
            rho = partial_coherence(estimate).values
            for j, matrix in enumerate(estimate.matrices):
                inverse = cofactor_inverse(matrix)
                scale = np.sqrt(np.diag(inverse).real)
                expected = np.abs(inverse / np.outer(scale, scale)) ** 2
                np.fill_diagonal(expected, 1.0)
                cofactor_gap = max(cofactor_gap, float(np.abs(rho[j] - expected).max()))

    report(acceptance_log, 4, "partial-coherence oracles",
           pair_gap < 1e-12 and equi_gap < 1e-10 and rescale_gap < 1e-10
           and cofactor_gap < 1e-9,
           f"two-channel gap {pair_gap:.1e}; equicorrelated gap {equi_gap:.1e}; "
           f"rescaling gap {rescale_gap:.1e}; cofactor gap {cofactor_gap:.1e}")


def test_criterion_5_weight_algebra_and_stability(benchmark_run, acceptance_log):
    exact = (shrinkage_weight(0.0, 4.0, 4.0) == (1.0, 1.0)
             and shrinkage_weight(2.25, 0.0, 2.25) == (0.0, 0.0)
             and shrinkage_weight(7.0, 7.0, 7.0) == (0.5, 0.5)
             and shrinkage_weight(0.1, 0.2, 1.0) == (0.55, 0.55))
    clamped = (shrinkage_weight(5.0, 0.0, 1.0) == (-2.0, 0.0)
               and shrinkage_weight(0.0, 5.0, 1.0) == (3.0, 1.0))

    rng = np.random.default_rng(5)
    values = rng.standard_normal((12, 2, 64))
    options = PipelineOptions(var_order=1, fixed_span=7, window=15)
    base = shrinkage_pipeline(
        MultiTrialSeries(values=values, sampling_rate=1.0), options).diagnostics
    scaled = shrinkage_pipeline(
        MultiTrialSeries(values=3.7 * values, sampling_rate=1.0), options).diagnostics
    factor = 3.7**4
    equivariant = True
    for raw, multiplied in ((base.param_risk, scaled.param_risk),
                            (base.nonparam_risk, scaled.nonparam_risk),
                            (base.separation, scaled.separation)):
        equivariant &= bool(np.all(np.abs(multiplied - factor * raw)
                                   <= 1e-10 * factor * np.abs(raw)))
    equivariant &= bool(np.all(np.abs(scaled.weight_raw - base.weight_raw)
                               <= 1e-10 * np.abs(base.weight_raw)))

    result, _ = benchmark_run
    stable = True
    for name in ("shrinkage", "shrinkage_w7", "shrinkage_w31"):
        ok_spectral, ok_pcoh, _ = competitor_bounds(result, name)
        stable &= ok_spectral and ok_pcoh

    report(acceptance_log, 5, "weight algebra and window stability",
           exact and clamped and equivariant and stable,
           f"plug-in cases exact {exact}; clamping exact {clamped}; "
           f"scale equivariance {equivariant}; orderings at windows 7/15/31 {stable}")


def test_criterion_6_risk_selection_behavior(acceptance_log):
    rng = np.random.default_rng(6)
    argmin_ok = True
    for _ in range(5):
        series = MultiTrialSeries(values=rng.standard_normal((4, 2, 64)),
                                  sampling_rate=1.0)
        pgrams = compute_periodograms(series)
        grid = (3, 5, 7, 9, 11, 13, 15)
        _, smoothing = smoothed_estimator(series, span_grid=grid)
        for trial in range(series.n_trials):
            risks = span_risks(pgrams, grid)[trial]
            argmin_ok &= smoothing.selected_spans[trial] == grid[int(np.argmin(risks))]
        tapers = select_taper_count(series)
        for trial in range(series.n_trials):
            chosen = tapers.per_trial[trial]
            argmin_ok &= chosen == 1 + int(np.argmin(tapers.risks[trial]))

    white_spans, peaked_spans = [], []
    white_tapers, peaked_tapers = [], []
    peaked_coefs = np.array([[[1.4]], [[-0.9]]])
    for seed in range(20):
        white = MultiTrialSeries(
            values=np.random.default_rng((60, seed)).standard_normal((6, 1, 128)),
            sampling_rate=1.0)
        values = np.stack([simulate_var(peaked_coefs, np.eye(1), 128, seed=(61, seed, n))
                           for n in range(6)])
        peaked = MultiTrialSeries(values=values, sampling_rate=1.0)
        _, white_config = smoothed_estimator(white)
        _, peaked_config = smoothed_estimator(peaked)
        white_spans.extend(white_config.selected_spans)
        peaked_spans.extend(peaked_config.selected_spans)
        white_tapers.extend(select_taper_count(white).per_trial)
        peaked_tapers.extend(select_taper_count(peaked).per_trial)
    span_order = np.median(white_spans) >= np.median(peaked_spans)
    taper_order = np.median(white_tapers) >= np.median(peaked_tapers)

    report(acceptance_log, 6, "risk-based span and taper selection",
           argmin_ok and span_order and taper_order,
           f"argmin exhaustive {argmin_ok}; median spans white/peaked "
           f"{np.median(white_spans):.0f}/{np.median(peaked_spans):.0f}; "
           f"median tapers {np.median(white_tapers):.0f}/{np.median(peaked_tapers):.0f}")


def brute_force_bh(pvals, q):
    m = len(pvals)
    ordered = np.sort(pvals)
    k_best = 0
    for k in range(1, m + 1):
        if ordered[k - 1] <= q * k / m:
            k_best = k
    if k_best == 0:
        return np.zeros(m, dtype=bool)
    return pvals <= ordered[k_best - 1]


def coupled_condition(seed, coupled, n_trials=16, n_samples=64, amplitude=1.8):
    """White noise plus a 10 Hz line in channels 0-1, phase-locked iff coupled."""
    rng = np.random.default_rng((802, seed, int(coupled)))
    t = np.arange(n_samples)
    values = np.empty((n_trials, 3, n_samples))
    for n in range(n_trials):
        values[n] = rng.standard_normal((3, n_samples))
        phase0 = rng.uniform(0, 2 * np.pi)
        phase1 = phase0 if coupled else rng.uniform(0, 2 * np.pi)
        values[n, 0] += amplitude * np.cos(2 * np.pi * 10 * t / n_samples + phase0)
        values[n, 1] += amplitude * np.cos(2 * np.pi * 10 * t / n_samples + phase1)
    return MultiTrialSeries(values=values, sampling_rate=float(n_samples))


def test_criterion_7_inference_stack(acceptance_log, tmp_path):
    rng = np.random.default_rng(7)
    bh_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        pvals = rng.uniform(size=m)
        if rng.random() < 0.3:
            pvals = np.round(pvals, 1)  # force ties
        if rng.random() < 0.1:
            pvals[rng.integers(m)] = rng.choice([0.0, 1.0])
        q = float(rng.choice([0.01, 0.05, 0.1, 0.25]))
        bh_ok &= bool(np.array_equal(bh_fdr(pvals, q), brute_force_bh(pvals, q)))

    t, df, p = welch_t((1.0, 1.0, 5), (0.0, 1.0, 5))
    welch_ok = (abs(t - 0.7071067811865475) < 1e-9 and abs(df - 8.0) < 1e-9
                and abs(p - 0.49957589436325933) < 1e-9)
    t2, _, _ = welch_t((1.0, 0.5, 5), (0.0, 0.5, 5))
    welch_ok &= abs(t2 - np.sqrt(2.0)) < 1e-9

    def jackknife_formula(replicates):
        replicates = np.asarray(replicates, dtype=float)
        n = len(replicates)
        mean = replicates.sum() / n
        return mean, np.sqrt((n - 1) / n * ((replicates - mean) ** 2).sum())

    mean, se = jackknife_formula((1.0, 2.0, 3.0))
    jack_ok = abs(mean - 2.0) < 1e-9 and abs(se - 1.1547005383792515) < 1e-9
    series = coupled_condition(0, True, n_trials=5)
    options = PipelineOptions(var_order=1, fixed_span=5)
    stats = jackknife_band_stats(series, (8.0, 12.0), options)
    replicates = []
    for n in range(series.n_trials):
        result = shrinkage_pipeline(series.drop_trial(n), options)
        banded = band_average(partial_coherence(result.estimate), (8.0, 12.0))
        replicates.append(fisher_z(banded.values[0, 1]))
    mean, se = jackknife_formula(replicates)
    jack_ok &= (abs(stats.mean_z[0, 1] - mean) < 1e-9
                and abs(stats.se[0, 1] - se) < 1e-9)

    hits, elsewhere = 0, 0
    for seed in range(20):
        left, right = tmp_path / "left.mts", tmp_path / "right.mts"
        write_trials(left, coupled_condition(seed, False))
        write_trials(right, coupled_condition(seed, True))
        out = tmp_path / f"run{seed}"
        assert cli_main(["connectivity", str(left), str(right), "--out-dir", str(out),
                         "--order", "2", "--fixed-span", "7"]) == 0
        table = (out / "tests.csv").read_text().splitlines()[1:]
        for line in table:
            cells = line.split(",")
            if (cells[0], cells[1]) == ("ch00-ch01", "alpha"):
                hits += cells[8] == "1"
            else:
                elsewhere += cells[8] == "1"
    power_ok = hits >= 18 and elsewhere <= 2

    report(acceptance_log, 7, "inference stack",
           bh_ok and welch_ok and jack_ok and power_ok,
           f"step-up vs brute force {bh_ok}; hand statistics {welch_ok and jack_ok}; "
           f"coupled pair rejected {hits}/20, elsewhere {elsewhere}/100")


def test_criterion_8_white_noise_sanity(acceptance_log):
    rng = np.random.default_rng(88)
    series = MultiTrialSeries(values=rng.standard_normal((120, 2, 256)),
                              sampling_rate=1.0)
    flat = 1.0 / (2 * np.pi)
    grid = FrequencyGrid(256)
    estimates = {"smoothed": smoothed_estimator(series)[0]}
    estimates["multitaper"] = multitaper_estimator(
        series, select_taper_count(series).median)
    order = select_var_order(series, 10).order
    estimates["var"] = var_spectrum(fit_var(series, order), grid)
    estimates["shrinkage"] = shrinkage_pipeline(series).estimate

    deviations = {name: float(np.abs(est.matrices[1:-1, (0, 1), (0, 1)].real
                                     / flat - 1.0).max())
                  for name, est in estimates.items()}
    report(acceptance_log, 8, "white-noise flatness of all estimators",
           max(deviations.values()) < 0.10,
           "; ".join(f"{name} {dev:.3f}" for name, dev in deviations.items()))


def test_criterion_9_determinism_and_round_trip(acceptance_log, tmp_path):
    config = SimulationConfig(n_trials=4, n_samples=64, seed=9)
    series = simulate_mixture(config)
    identical = bool(np.array_equal(series.values, simulate_mixture(config).values))

    options = PipelineOptions(var_order=1, fixed_span=7)
    first = shrinkage_pipeline(series, options)
    second = shrinkage_pipeline(series, options)
    identical &= bool(np.array_equal(first.estimate.matrices, second.estimate.matrices))
    identical &= bool(np.array_equal(first.diagnostics.weight, second.diagnostics.weight))

    path_a, path_b = tmp_path / "a.mts", tmp_path / "b.mts"
    write_trials(path_a, series)
    loaded = read_trials(path_a)
    write_trials(path_b, loaded)
    round_trip = (path_a.read_bytes() == path_b.read_bytes()
                  and bool(np.array_equal(loaded.values, series.values)))

    report(acceptance_log, 9, "determinism and format round-trip",
           identical and round_trip,
           f"bit-identical reruns {identical}; file round-trip {round_trip}")
