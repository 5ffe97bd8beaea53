"""The benchmark's workloads: input generation, CLI argv, output checks.

Inputs are drawn from the package's 12-channel benchmark mixture process
(a block-structured VMA(1) plus a diagonal VAR(5), unit innovations) by a
generator of the benchmark's own that is vectorized over trials, so set-up
stays cheap and the inputs do not change when the package's simulator
does.  Every draw comes from ``SeedSequence([seed, index, workload id])``:
the same seed gives the same inputs, and each op of a run gets its own.

Each workload exposes ``make_inputs``, ``argv`` and ``check``.  ``check``
parses the op's CSVs, returns the list of violated invariants, a digest
of the outputs (compared with the stored reference) and the op's partial
coherence error against the exact mixture spectrum.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

SAMPLING_RATE = 256.0
N_CHANNELS = 12
BURN_IN = 500
#: Index reserved for the reference input, which ignores the run's seed.
REFERENCE_INDEX = 2 ** 31 - 1
REFERENCE_SEED = 0
#: Pair count per band in tests.csv is P(P-1)/2.
N_PAIRS = N_CHANNELS * (N_CHANNELS - 1) // 2
#: Slack allowed above 1 for coherence values, as in the package.
UPPER_SLACK = 1e-10


def mixture_parts():
    """The benchmark process: MA coefficient (P, P) and per-channel AR lags (order, P)."""
    from specshrink.simulation import benchmark_ar_coefs, benchmark_ma_coef
    theta = benchmark_ma_coef()
    ar = benchmark_ar_coefs()
    lags = np.diagonal(ar, axis1=1, axis2=2)
    if not np.array_equal(ar, lags[:, :, None] * np.eye(ar.shape[1])):
        raise ValueError("the benchmark AR part is expected to be diagonal")
    return theta, lags


def simulate(rng, n_trials, n_samples, ma_weight, ar_weight):
    """Trials of ``ma_weight * VMA(1) + ar_weight * diagonal VAR(5)``, shape (N, P, T)."""
    theta, lags = mixture_parts()
    order, p = lags.shape
    z = rng.standard_normal((n_trials, n_samples + 1, p))
    ma = z[:, 1:] + z[:, :-1] @ theta.T
    x = rng.standard_normal((n_trials, BURN_IN + n_samples, p))
    for t in range(1, BURN_IN + n_samples):
        for k in range(min(order, t)):
            x[:, t] += lags[k] * x[:, t - k - 1]
    values = ma_weight * ma + ar_weight * x[:, BURN_IN:]
    return np.ascontiguousarray(values.transpose(0, 2, 1))


def exact_spectrum(n_samples, ma_weight, ar_weight):
    """Exact half-grid spectral matrices of the mixture, shape (T//2 + 1, P, P)."""
    theta, lags = mixture_parts()
    omegas = 2.0 * np.pi * np.arange(n_samples // 2 + 1) / n_samples
    p = theta.shape[0]
    transfer = np.eye(p) + np.exp(-1j * omegas)[:, None, None] * theta
    f_ma = transfer @ np.conj(transfer.transpose(0, 2, 1))
    ar_poly = 1.0 - np.exp(-1j * np.outer(omegas, np.arange(1, lags.shape[0] + 1))) @ lags
    f_ar = np.eye(p) / np.abs(ar_poly)[:, :, None] ** 2
    return (ma_weight ** 2 * f_ma + ar_weight ** 2 * f_ar) / (2.0 * np.pi)


def partial_coherence(matrices):
    """``|g_pq|^2 / (g_pp g_qq)`` with ``g`` the inverse of each matrix; diagonal 1."""
    inv = np.linalg.inv(matrices)
    diag = np.real(np.diagonal(inv, axis1=-2, axis2=-1))
    vals = np.abs(inv) ** 2 / (diag[..., :, None] * diag[..., None, :])
    idx = np.arange(matrices.shape[-1])
    vals[..., idx, idx] = 1.0
    return vals


def hs_norm_sq(matrices):
    """``tr(A A^*) / P`` per matrix, the package's normalized squared HS norm."""
    return np.sum(np.abs(matrices) ** 2, axis=(-2, -1)) / matrices.shape[-1]


def band_mask(n_samples, lo, hi):
    hertz = np.arange(n_samples // 2 + 1) * SAMPLING_RATE / n_samples
    return (hertz >= lo) & (hertz <= hi)


def read_csv(path):
    """A CSV as ``{column: list of str}``."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def floats(column):
    return np.array([float(v) for v in column])


def write_series(path, values):
    from specshrink.io import write_trials
    from specshrink.timeseries import MultiTrialSeries
    write_trials(path, MultiTrialSeries(values=values, sampling_rate=SAMPLING_RATE))


class Checker:
    """Collects invariant violations and the output digest of one op."""

    def __init__(self):
        self.errors = []
        self.values = {}
        self.choices = {}

    def require(self, ok, message):
        if not ok:
            self.errors.append(message)

    def finite(self, name, arr):
        self.require(bool(np.all(np.isfinite(arr))), f"{name}: non-finite values")

    def in_unit(self, name, arr):
        self.require(bool(np.all((arr >= 0.0) & (arr <= 1.0 + UPPER_SLACK))),
                     f"{name}: values outside [0, 1]")

    def rows(self, name, table, expected):
        count = len(next(iter(table.values()), []))
        self.require(count == expected, f"{name}: {count} rows, expected {expected}")
        return count == expected

    def digest(self):
        return {"values": {k: [float(v) for v in np.ravel(a)] for k, a in self.values.items()},
                "choices": self.choices}


@dataclass(frozen=True)
class Inputs:
    paths: tuple
    seed: int
    truths: tuple  # (ma_weight, ar_weight) of each input file's mixture


class Estimate:
    """``specshrink estimate`` with default flags on the paper's default dataset."""

    name = "estimate"
    ident = 1
    n_trials = 120
    reference_trials = 30
    n_samples = 256
    weights = (0.65, 0.35)
    max_order = 10

    def trials_per_op(self):
        return self.n_trials

    def make_inputs(self, workdir, seed, index):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index, self.ident]))
        path = os.path.join(workdir, f"estimate-{index}.mts")
        write_series(path, simulate(rng, self.n_trials, self.n_samples, *self.weights))
        return Inputs(paths=(path,), seed=seed, truths=(self.weights,))

    def argv(self, inputs, outdir):
        return ["estimate", inputs.paths[0], "--out-dir", outdir]

    def check(self, inputs, outdir):
        c = Checker()
        n_freq, p = self.n_samples // 2 + 1, N_CHANNELS
        spectra = read_csv(os.path.join(outdir, "spectra.csv"))
        cross = read_csv(os.path.join(outdir, "cross_spectra.csv"))
        weights = read_csv(os.path.join(outdir, "weights.csv"))
        with open(os.path.join(outdir, "fit_report.txt"), encoding="utf-8") as handle:
            report = dict(line.split(" = ", 1) for line in handle.read().splitlines())
        if not (c.rows("spectra.csv", spectra, n_freq * p)
                and c.rows("cross_spectra.csv", cross, n_freq * N_PAIRS)
                and c.rows("weights.csv", weights, n_freq)):
            return c, None
        auto = floats(spectra["value"]).reshape(n_freq, p)
        re = floats(cross["real"]).reshape(n_freq, N_PAIRS)
        im = floats(cross["imag"]).reshape(n_freq, N_PAIRS)
        w_raw, w = floats(weights["w_raw"]), floats(weights["w"])
        risks = np.stack([floats(weights[k]) for k in ("alpha2", "beta2", "delta2")])
        for name, arr in (("spectra", auto), ("cross_spectra", re + im), ("weights", w_raw),
                          ("risks", risks)):
            c.finite(name, arr)
        c.require(bool(np.all(auto > 0.0)), "spectra: autospectrum not positive")
        c.require(bool(np.all(risks >= 0.0)), "weights.csv: negative risk term")
        c.in_unit("weights.csv w", w)
        c.require(bool(np.allclose(w, np.clip(w_raw, 0.0, 1.0), rtol=1e-11, atol=0.0)),
                  "weights.csv: w is not w_raw clipped to [0, 1]")
        order = int(report.get("var_order", "0"))
        spans = [int(s) for s in report.get("selected_spans", "").split(",") if s]
        c.require(1 <= order <= self.max_order, f"fit_report: var_order {order} off the grid")
        c.require(len(spans) == self.n_trials, f"fit_report: {len(spans)} spans")
        c.require(all(s % 2 == 1 and 3 <= s <= 63 for s in spans), "fit_report: span off grid")
        c.choices.update(var_order=order, spans=spans, window=report.get("window"))

        mats = np.zeros((n_freq, p, p), dtype=complex)
        iu = np.triu_indices(p, 1)
        mats[:, iu[0], iu[1]] = re + 1j * im
        mats = mats + np.conj(mats.transpose(0, 2, 1))
        mats[:, np.arange(p), np.arange(p)] = auto
        pcoh = partial_coherence(mats)
        c.finite("partial coherence", pcoh)
        c.in_unit("partial coherence", pcoh)
        c.values.update(spectra=auto, cross_abs2=(re ** 2 + im ** 2).sum(axis=1),
                        cross_re=re.sum(axis=1), cross_im=im.sum(axis=1),
                        weights=np.stack([w_raw, w]), risks=risks)
        truth = partial_coherence(exact_spectrum(self.n_samples, *inputs.truths[0]))
        return c, float(np.sum(hs_norm_sq(pcoh - truth)))


class Connectivity:
    """``specshrink connectivity left.mts right.mts`` with the default bands."""

    name = "connectivity"
    ident = 2
    n_trials = 4
    reference_trials = 3
    n_samples = 256
    conditions = ((0.65, 0.35), (0.35, 0.65))
    bands = (("alpha", 8.0, 12.0), ("beta", 18.0, 30.0))

    def trials_per_op(self):
        return self.n_trials * len(self.conditions)

    def make_inputs(self, workdir, seed, index):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index, self.ident]))
        paths = []
        for side, weights in zip(("left", "right"), self.conditions):
            path = os.path.join(workdir, f"{side}-{index}.mts")
            write_series(path, simulate(rng, self.n_trials, self.n_samples, *weights))
            paths.append(path)
        return Inputs(paths=tuple(paths), seed=seed, truths=self.conditions)

    def argv(self, inputs, outdir):
        return ["connectivity", *inputs.paths, "--out-dir", outdir]

    def check(self, inputs, outdir):
        c = Checker()
        p = N_CHANNELS
        error = 0.0
        for name, lo, hi in self.bands:
            for side, weights in zip(("left", "right"), inputs.truths):
                stem = f"pcoh_{name}_{side}"
                table = read_csv(os.path.join(outdir, stem + ".csv"))
                if not c.rows(stem, table, p * p):
                    return c, None
                vals = floats(table["value"]).reshape(p, p)
                c.finite(stem, vals)
                c.in_unit(stem, vals)
                c.require(bool(np.array_equal(vals, vals.T)), f"{stem}: not symmetric")
                c.require(bool(np.all(np.diag(vals) == 1.0)), f"{stem}: diagonal is not 1")
                c.values[stem] = vals
                truth = partial_coherence(exact_spectrum(self.n_samples, *weights))
                exact = truth[band_mask(self.n_samples, lo, hi)].mean(axis=0)
                error += float(hs_norm_sq(vals - exact))
        tests = read_csv(os.path.join(outdir, "tests.csv"))
        if not c.rows("tests.csv", tests, len(self.bands) * N_PAIRS):
            return c, None
        numeric = {k: floats(tests[k]) for k in ("z_left", "z_right", "se_left", "se_right",
                                                  "t", "p")}
        for key, arr in numeric.items():
            c.finite(f"tests.csv {key}", arr)
        c.require(bool(np.all(numeric["se_left"] >= 0) and np.all(numeric["se_right"] >= 0)),
                  "tests.csv: negative standard error")
        c.in_unit("tests.csv p", numeric["p"])
        c.require(set(tests["rejected"]) <= {"0", "1"}, "tests.csv: rejected is not 0/1")
        c.require(sorted(set(tests["band"])) == sorted(b[0] for b in self.bands),
                  "tests.csv: unexpected bands")
        c.values.update(numeric)
        c.choices.update(pairs=tests["pair"], bands=tests["band"], rejected=tests["rejected"])
        return c, error


class Compare:
    """``specshrink compare`` with four estimators and three risk windows, reduced size."""

    name = "compare"
    ident = 3
    n_trials = 40
    reference_trials = 20
    n_samples = 256
    reps = 1
    columns = ("var", "smoothed", "multitaper", "shrinkage", "shrinkage_w7", "shrinkage_w31")

    def trials_per_op(self):
        return self.n_trials * self.reps

    def make_inputs(self, workdir, seed, index):
        harness_seed = int(np.random.SeedSequence([seed, index, self.ident]).generate_state(
            1, dtype=np.uint32)[0])
        return Inputs(paths=(), seed=harness_seed, truths=())

    def argv(self, inputs, outdir):
        return ["compare", "--reps", str(self.reps), "--trials", str(self.n_trials),
                "--samples", str(self.n_samples), "--seed", str(inputs.seed),
                "--estimators", "var,smoothed,multitaper,shrinkage", "--windows", "15,7,31",
                "--out-dir", outdir]

    def check(self, inputs, outdir):
        c = Checker()
        n_freq = self.n_samples // 2 + 1
        for stem, columns in (("mse_spectral", self.columns), ("mse_pcoh", self.columns),
                              ("mean_weight", ("shrinkage", "shrinkage_w7", "shrinkage_w31"))):
            table = read_csv(os.path.join(outdir, stem + ".csv"))
            if not c.rows(stem, table, n_freq):
                return c, None
            found = tuple(table)[1:]
            if found != columns:
                c.require(False, f"{stem}.csv: columns {found}, expected {columns}")
                return c, None
            vals = np.stack([floats(table[k]) for k in columns])
            c.finite(stem, vals)
            if stem == "mean_weight":
                c.in_unit(stem, vals)
            else:
                c.require(bool(np.all(vals >= 0.0)), f"{stem}.csv: negative error")
            c.values[stem] = vals
        return c, float(c.values["mse_pcoh"][self.columns.index("shrinkage")].sum())


WORKLOADS = {w.name: w for w in (Estimate(), Connectivity(), Compare())}


def resized(workload, n_trials, n_samples=None):
    """A copy of a workload whose inputs have another number of trials or samples."""
    copy = type(workload)()
    copy.n_trials = n_trials
    copy.n_samples = n_samples or workload.n_samples
    return copy


def compare_digests(digest, reference, rtol=1e-6, atol=1e-12):
    """Differences between an op's digest and the stored one, as messages.

    Values match when ``max |a - b| <= rtol * max |b| + atol`` per entry of
    ``values``; every entry of ``choices`` must be identical.
    """
    problems = []
    for key, ref in reference["values"].items():
        got = digest["values"].get(key)
        if got is None or len(got) != len(ref):
            problems.append(f"reference value {key}: shape differs")
            continue
        ref_arr, got_arr = np.asarray(ref), np.asarray(got)
        gap = float(np.max(np.abs(got_arr - ref_arr))) if ref_arr.size else 0.0
        limit = rtol * float(np.max(np.abs(ref_arr), initial=0.0)) + atol
        if not gap <= limit:  # also catches NaN
            problems.append(f"reference value {key}: off by {gap:.3g} (limit {limit:.3g})")
    for key, ref in reference["choices"].items():
        if digest["choices"].get(key) != ref:
            problems.append(f"reference choice {key}: {digest['choices'].get(key)!r} != {ref!r}")
    return problems
