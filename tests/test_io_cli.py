"""Binary/CSV file formats, run configuration, and the command-line interface."""

import inspect
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specshrink import (
    DataFormatError,
    DimensionError,
    DomainError,
    MultiTrialSeries,
    PipelineOptions,
    SimulationConfig,
    apply_fdr,
    bh_fdr,
    default_span_grid,
    monte_carlo_compare,
    read_config,
    read_trials,
    read_trials_csv,
    simulate_var,
    write_trials,
)
from specshrink.cli import build_parser, main
from specshrink.io import RunConfig, format_column, format_value, parse_bands, write_csv

rng = np.random.default_rng(42)


def make_series(n_trials=4, n_channels=2, n_samples=64, sampling_rate=64.0):
    values = rng.standard_normal((n_trials, n_channels, n_samples))
    return MultiTrialSeries(values=values, sampling_rate=sampling_rate)


def test_binary_round_trip_is_bit_exact(tmp_path):
    series = MultiTrialSeries(values=rng.standard_normal((3, 2, 16)),
                              sampling_rate=250.0, channel_labels=("Fz", "Oz"))
    path = tmp_path / "trials.mts"
    write_trials(path, series)
    loaded = read_trials(path)
    np.testing.assert_array_equal(loaded.values, series.values)
    assert loaded.sampling_rate == 250.0
    assert loaded.channel_labels == ("Fz", "Oz")
    # no leftover temp files from the atomic write
    assert [p.name for p in tmp_path.iterdir()] == ["trials.mts"]


def test_binary_reader_reports_byte_offsets(tmp_path):
    series = make_series(2, 2, 8)
    path = tmp_path / "t.mts"
    write_trials(path, series)
    blob = path.read_bytes()

    def expect(data, fragment):
        bad = tmp_path / "bad.mts"
        bad.write_bytes(data)
        with pytest.raises(DataFormatError, match=fragment):
            read_trials(bad)

    expect(blob[:10], "truncated inside the 26-byte header")
    expect(b"XXXX" + blob[4:], r"bad magic.*offset 0\)")
    expect(blob[:4] + b"\x02\x00" + blob[6:], r"version 2.*offset 4\)")
    expect(blob[:-8], r"payload is \d+ bytes, expected 256")
    expect(blob + b"\x00", "payload is 257 bytes, expected 256")
    expect(blob[:27], "truncated in the length prefix of label 0")
    expect(blob[:30], "truncated inside label 0")

    nan = blob[:-128] + np.array([np.nan]).tobytes() + blob[-120:]
    expect(nan, rf"non-finite value \(at byte offset {len(blob) - 128}\)")


def test_csv_import(tmp_path):
    path = tmp_path / "tidy.csv"
    lines = ["trial,channel,time,value"]
    values = rng.standard_normal((2, 2, 4))
    for n in range(2):
        for p in range(2):
            for t in range(4):
                lines.append(f"{n},{p},{t},{float(values[n, p, t])!r}")
    # row order must not matter
    lines[1], lines[-1] = lines[-1], lines[1]
    path.write_text("\n".join(lines) + "\n")
    series = read_trials_csv(path, sampling_rate=100.0)
    np.testing.assert_array_equal(series.values, values)
    assert series.sampling_rate == 100.0


def test_csv_import_rejects_malformed_files(tmp_path):
    def expect(text, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=fragment):
            read_trials_csv(path)

    header = "trial,channel,time,value\n"
    expect("time,value\n0,1\n", "expected header")
    expect(header, "no data rows")
    expect(header + "0,0,0\n", r"expected 4 columns \(line 2\)")
    expect(header + "0,0,zero,1.0\n", r"\(line 2\)")
    expect(header + "0,0,0,1.0\n0,0,0,2.0\n", "duplicate cell trial=0 channel=0 time=0")
    expect(header + "0,0,0,1.0\n0,0,2,2.0\n", "missing cell trial=0 channel=0 time=1")
    expect(header + "-1,0,0,1.0\n", "negative")


def test_csv_import_reports_bad_values_and_short_trials_as_format_errors(tmp_path):
    path = tmp_path / "bad.csv"
    header = "trial,channel,time,value\n"
    for text, fragment in ((header + "0,0,0,1.0\n0,0,1,nan\n", r"non-finite value \(line 3\)"),
                           (header + "0,0,0,inf\n0,0,1,1.0\n", r"non-finite value \(line 2\)"),
                           (header + "0,0,0,1.0\n1,0,0,2.0\n", "at least 2 samples per trial"),
                           (b"trial,channel,time,value\n0,0,0,\xff\n", "not UTF-8 text")):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(DataFormatError, match=fragment):
            read_trials_csv(path)
    path.write_bytes(b"window = \xff7\n")
    with pytest.raises(DataFormatError, match="not UTF-8 text"):
        read_config(path)


def test_csv_import_checks_the_implied_grid_before_allocating_it(tmp_path):
    # 10**12 samples would be an 8 TB grid: the reader must find the gap from
    # the rows it has instead of building the grid
    path = tmp_path / "sparse.csv"
    path.write_text("trial,channel,time,value\n0,0,0,1.0\n0,0,1000000000000,2.0\n")
    start = time.perf_counter()
    with pytest.raises(DataFormatError, match="missing cell trial=0 channel=0 time=1$"):
        read_trials_csv(path)
    assert time.perf_counter() - start < 0.5


def _valid_reader_inputs():
    series = MultiTrialSeries(values=np.arange(16.0).reshape(2, 2, 4) ** 1.5,
                              sampling_rate=32.0, channel_labels=("Fz", "Oz"))
    header = struct.pack("<4sHIIId", b"MTS1", 1, 2, 2, 4, 32.0)
    labels = b"".join(struct.pack("<H", 2) + label.encode() for label in series.channel_labels)
    binary = header + labels + series.values.astype("<f8").tobytes()
    rows = [f"{n},{p},{t},{float(series.values[n, p, t])!r}"
            for n in range(2) for p in range(2) for t in range(4)]
    tidy = "\n".join(["trial,channel,time,value", *rows]).encode() + b"\n"
    config = ("method = var\nwindow = 7  # odd\nspan_min = 3\nspan_max = 21\nmax_order = 4\n"
              "taper_max = 8\nbands = a:1:2,b:3:4\nfdr_q = 0.1\nseed = 2\nout_dir = x\n").encode()
    return {"binary": (read_trials, binary), "csv": (read_trials_csv, tidy),
            "config": (read_config, config)}


READER_INPUTS = _valid_reader_inputs()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), reader=st.sampled_from(sorted(READER_INPUTS)))
def test_readers_raise_only_format_errors_on_damaged_bytes(tmp_path, data, reader):
    read, blob = READER_INPUTS[reader]
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        damaged = bytearray(blob)
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 255)), min_size=1, max_size=4))
        for offset, byte in edits:
            damaged[offset] = byte
    path = tmp_path / f"damaged.{reader}"
    path.write_bytes(bytes(damaged))
    try:
        read(path)
    except DataFormatError:
        pass


def test_csv_formatting(tmp_path):
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(np.float64(1) / 3) == "0.333333333333"
    assert format_value(0.5) == "0.5"
    assert format_value(7) == "7"
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), [(1.0, 2.5), ("x", "y")])
    assert path.read_text() == "a,b\n1,x\n2.5,y\n"
    with pytest.raises(DimensionError):
        write_csv(path, ("a", "b"), [(1.0, 2.5), ("x",)])
    with pytest.raises(DimensionError):
        write_csv(path, ("a", "b"), [(1.0, 2.5)])


def test_csv_columns_format_as_format_value_does():
    floats = [1 / 3, 0.5, -0.0, 0.0, np.nan, np.inf, -np.inf, 1e300, -2.5e-310, 123456789012345.0]
    columns = [np.array(floats), np.array(floats[:7], dtype=np.float32),
               np.array([True, False]), [True, False, np.True_],
               np.array([7, -3, 10**15]), [7, 10**15, np.int64(-3)],
               np.array(["Cz", "O1"]), ["Cz", "O1", "a-b"], floats,
               np.array(floats).reshape(2, 5)[:, 1], np.array(floats, dtype=complex).real]
    for column in columns:
        assert format_column(column) == [format_value(v) for v in column], column
    assert format_column(np.array([-0.0, np.nan, -np.inf])) == ["-0", "nan", "-inf"]


def test_span_grid_from_config_bounds():
    assert RunConfig().span_grid() is None
    assert RunConfig(span_min=3, span_max=9).span_grid() == (3, 5, 7, 9)
    assert RunConfig(span_min=4, span_max=9).span_grid() == (5, 7, 9)
    with pytest.raises(DomainError):
        RunConfig(span_min=10, span_max=9).span_grid()


def test_parse_bands():
    assert parse_bands("alpha:8:12") == (("alpha", 8.0, 12.0),)
    assert parse_bands("a:1:2, b:3:4.5") == (("a", 1.0, 2.0), ("b", 3.0, 4.5))
    with pytest.raises(DataFormatError):
        parse_bands("alpha:8")
    with pytest.raises(DataFormatError):
        parse_bands("alpha:eight:12")


def test_read_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "method = var\n"
        "window = 7   # trailing comment\n"
        "span_max=21\n"
        "bands = theta:4:8\n"
        "\n"
        "fdr_q = 0.01\n")
    config = read_config(path)
    assert config.method == "var"
    assert config.window == 7
    assert config.span_grid() == (3, 5, 7, 9, 11, 13, 15, 17, 19, 21)
    assert config.bands == (("theta", 4.0, 8.0),)
    assert config.fdr_q == 0.01
    assert config.max_order == 10  # untouched default

    bad = tmp_path / "bad.cfg"
    bad.write_text("windowsill = 3\n")
    with pytest.raises(DataFormatError, match=r"unknown key 'windowsill' \(line 1\)"):
        read_config(bad)
    bad.write_text("window\n")
    with pytest.raises(DataFormatError, match="expected key = value"):
        read_config(bad)
    bad.write_text("window = seven\n")
    with pytest.raises(DataFormatError, match=r"bad value for 'window' \(line 1\)"):
        read_config(bad)


# --- command-line interface ---------------------------------------------


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_simulate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.mts", tmp_path / "b.mts"
    assert run_cli("simulate", "--trials", 2, "--samples", 32, "--seed", 9,
                   "--out", a) == 0
    assert run_cli("simulate", "--trials", 2, "--samples", 32, "--seed", 9,
                   "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    series = read_trials(a)
    assert (series.n_trials, series.n_channels, series.n_samples) == (2, 12, 32)
    assert "wrote" in capsys.readouterr().out


def test_parser_defaults_are_the_dataclass_defaults():
    parser, sim = build_parser(), SimulationConfig()
    simulate = parser.parse_args(["simulate", "--out", "x.mts"])
    for dest, field in (("trials", "n_trials"), ("samples", "n_samples"),
                        ("ma_weight", "ma_weight"), ("ar_weight", "ar_weight"),
                        ("burn_in", "burn_in"), ("sampling_rate", "sampling_rate"),
                        ("seed", "seed")):
        assert getattr(simulate, dest) == getattr(sim, field), dest
    compare = parser.parse_args(["compare"])
    assert (compare.trials, compare.samples) == (sim.n_trials, sim.n_samples)
    harness = inspect.signature(monte_carlo_compare).parameters
    assert compare.reps == harness["reps"].default
    assert tuple(compare.estimators.split(",")) == harness["estimators"].default
    options = PipelineOptions()
    assert (RunConfig().window, RunConfig().max_order) == (options.window, options.max_order)
    assert RunConfig().span_min == default_span_grid(sim.n_samples)[0]
    assert RunConfig().seed == harness["seed"].default
    assert inspect.signature(simulate_var).parameters["burn_in"].default == sim.burn_in
    for fdr in (bh_fdr, apply_fdr):
        assert inspect.signature(fdr).parameters["q"].default == RunConfig().fdr_q
    helps = {(command, action.dest): action.help
             for command, sub in next(action.choices for action in parser._actions
                                      if action.dest == "command").items()
             for action in sub._actions}
    bands = ", ".join(f"{name}:{lo:g}:{hi:g}" for name, lo, hi in RunConfig().bands)
    csv_rate = inspect.signature(read_trials_csv).parameters["sampling_rate"].default
    for key, default in ((("connectivity", "fdr_q"), RunConfig().fdr_q),
                         (("compare", "seed"), RunConfig().seed),
                         (("connectivity", "bands"), bands),
                         (("estimate", "method"), RunConfig().method),
                         (("estimate", "sampling_rate"), f"{csv_rate:g}")):
        assert helps[key].endswith(f"(default {default})"), key


def test_cli_estimate_shrinkage_outputs(tmp_path):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    out = tmp_path / "run"
    assert run_cli("estimate", data, "--out-dir", out, "--order", "1",
                   "--window", "5") == 0

    spectra = (out / "spectra.csv").read_text().splitlines()
    assert spectra[0] == "frequency_hz,channel,value"
    assert len(spectra) == 1 + 33 * 2  # J = 64 // 2 + 1 frequencies, 2 channels
    assert spectra[1].startswith("0,ch00,")

    cross = (out / "cross_spectra.csv").read_text().splitlines()
    assert cross[0] == "frequency_hz,channel_a,channel_b,real,imag"
    assert len(cross) == 1 + 33

    weights = (out / "weights.csv").read_text().splitlines()
    assert weights[0] == "frequency_hz,alpha2,beta2,delta2,w_raw,w"
    assert len(weights) == 1 + 33
    w = np.array([line.split(",")[-1] for line in weights[1:]], dtype=float)
    assert np.all((w >= 0.0) & (w <= 1.0))

    report = (out / "fit_report.txt").read_text()
    assert "var_order = 1" in report
    assert "window = 5" in report
    assert "selected_spans = " in report


def test_cli_estimate_other_methods(tmp_path):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    for method, extra in (("raw_mean", ()), ("smoothed", ("--fixed-span", "7")),
                          ("var", ("--order", "2")), ("multitaper", ("--tapers", "3"))):
        out = tmp_path / method
        assert run_cli("estimate", data, "--method", method, "--out-dir", out,
                       *extra) == 0
        assert (out / "spectra.csv").exists()
        assert (out / "cross_spectra.csv").exists()
        assert not (out / "weights.csv").exists()
    assert "tapers = 3" in (tmp_path / "multitaper" / "fit_report.txt").read_text()
    assert "selected_spans = 7" in (tmp_path / "smoothed" / "fit_report.txt").read_text()


def test_cli_fixed_weight_one_matches_var(tmp_path):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    fixed, var = tmp_path / "fixed", tmp_path / "var"
    assert run_cli("estimate", data, "--out-dir", fixed, "--order", "1",
                   "--weight", "1.0") == 0
    assert run_cli("estimate", data, "--method", "var", "--out-dir", var,
                   "--order", "1") == 0
    assert (fixed / "spectra.csv").read_bytes() == (var / "spectra.csv").read_bytes()
    assert (fixed / "cross_spectra.csv").read_bytes() == \
        (var / "cross_spectra.csv").read_bytes()


def test_cli_estimate_from_csv_input(tmp_path):
    path = tmp_path / "tidy.csv"
    lines = ["trial,channel,time,value"]
    values = rng.standard_normal((2, 2, 16))
    for n in range(2):
        for p in range(2):
            for t in range(16):
                lines.append(f"{n},{p},{t},{float(values[n, p, t])!r}")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli("estimate", path, "--method", "raw_mean", "--out-dir", out,
                   "--sampling-rate", "32") == 0
    spectra = (out / "spectra.csv").read_text().splitlines()
    assert len(spectra) == 1 + 9 * 2
    # frequency column runs 0..16 Hz for a 32 Hz sampling rate
    assert spectra[-1].split(",")[0] == "16"
    # without the flag, read_trials_csv's default rate applies
    assert run_cli("estimate", path, "--method", "raw_mean", "--out-dir", out) == 0
    rate = inspect.signature(read_trials_csv).parameters["sampling_rate"].default
    assert (out / "spectra.csv").read_text().splitlines()[-1].split(",")[0] == f"{rate / 2:g}"


@pytest.mark.parametrize("rate", ["inf", "nan", "0", "-256"])
def test_cli_rejects_a_bad_sampling_rate_before_reading_input(tmp_path, capsys, rate):
    message = f"error: sampling_rate must be a finite number > 0, got {float(rate)!r}\n"
    mts, missing, out = tmp_path / "x.mts", tmp_path / "missing.csv", tmp_path / "out"
    for argv in (("simulate", "--trials", "2", "--samples", "16", "--out", mts),
                 ("estimate", missing, "--out-dir", out),
                 ("connectivity", missing, missing, "--out-dir", out)):
        assert run_cli(*argv, "--sampling-rate", rate) == 1
        assert capsys.readouterr().err == message
        assert not mts.exists() and not out.exists()


def test_cli_error_path_is_clean(tmp_path, capsys):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    out = tmp_path / "out"
    # a flag the method does not read is rejected before any file is written
    assert run_cli("estimate", data, "--out-dir", out, "--tapers", "3") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.strip().count("\n") == 0
    assert not (out / "spectra.csv").exists()

    assert run_cli("estimate", tmp_path / "missing.mts", "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith("error: ")

    with pytest.raises(SystemExit):
        run_cli("estimate", data, "--method", "banana")


def test_cli_rejects_an_unknown_method_from_the_config_file(tmp_path, capsys):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = bogus\n")
    out = tmp_path / "out"
    assert run_cli("estimate", data, "--config", cfg, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown method 'bogus'")
    assert "raw_mean, smoothed, var, multitaper, shrinkage" in err
    assert not out.exists()
    # the method is checked before the input is read
    assert run_cli("estimate", tmp_path / "missing.mts", "--config", cfg,
                   "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith("error: unknown method")


def test_cli_config_file_and_flag_precedence(tmp_path):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 7\nmethod = shrinkage\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("estimate", data, "--config", cfg, "--out-dir", out_a,
                   "--order", "1") == 0
    assert "window = 7" in (out_a / "fit_report.txt").read_text()
    # explicit flags override the file
    assert run_cli("estimate", data, "--config", cfg, "--out-dir", out_b,
                   "--order", "1", "--window", "5") == 0
    assert "window = 5" in (out_b / "fit_report.txt").read_text()


def test_cli_connectivity_single_condition(tmp_path):
    data = tmp_path / "t.mts"
    write_trials(data, make_series(n_trials=6))
    out = tmp_path / "out"
    assert run_cli("connectivity", data, "--out-dir", out, "--order", "1",
                   "--fixed-span", "7", "--band", "low:4:8", "--band", "high:12:20") == 0
    for name in ("pcoh_low.csv", "pcoh_high.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "channel_a,channel_b,value"
        assert len(lines) == 1 + 4  # full 2 x 2 matrix
    assert not (out / "tests.csv").exists()


def test_cli_connectivity_two_conditions(tmp_path, capsys):
    left, right = tmp_path / "l.mts", tmp_path / "r.mts"
    write_trials(left, make_series(n_trials=6))
    write_trials(right, make_series(n_trials=5))
    out = tmp_path / "out"
    assert run_cli("connectivity", left, right, "--out-dir", out, "--order", "1",
                   "--fixed-span", "7", "--q", "0.1") == 0
    for band in ("alpha", "beta"):  # default bands
        assert (out / f"pcoh_{band}_left.csv").exists()
        assert (out / f"pcoh_{band}_right.csv").exists()
    lines = (out / "tests.csv").read_text().splitlines()
    assert lines[0] == ("pair,band,z_left,z_right,se_left,se_right,t,p,rejected")
    assert len(lines) == 1 + 2  # one channel pair in each of two bands
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "ch00-ch01"
        assert cells[1] in ("alpha", "beta")
        assert 0.0 <= float(cells[7]) <= 1.0
        assert cells[8] in ("0", "1")
    assert "q=0.1" in capsys.readouterr().out

    bad = tmp_path / "bad.mts"
    write_trials(bad, make_series(n_trials=4, n_channels=3))
    assert run_cli("connectivity", left, bad, "--out-dir", out) == 1
    assert "different channel counts" in capsys.readouterr().err


def test_cli_compare_writes_mse_tables(tmp_path):
    out = tmp_path / "out"
    # 24 trials: the raw periodogram mean must outrank the 12 channels or its
    # partial coherence is undefined
    assert run_cli("compare", "--reps", "1", "--trials", "24", "--samples", "64",
                   "--estimators", "raw_mean,shrinkage", "--windows", "5,3",
                   "--max-order", "1", "--out-dir", out) == 0
    for name in ("mse_spectral.csv", "mse_pcoh.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "frequency_hz,raw_mean,shrinkage,shrinkage_w3"
        assert len(lines) == 1 + 33
        assert all(float(cell) >= 0.0 for cell in lines[1].split(",")[1:])
    weight = (out / "mean_weight.csv").read_text().splitlines()
    assert weight[0] == "frequency_hz,shrinkage,shrinkage_w3"
    assert len(weight) == 1 + 33


def test_cli_csvs_are_byte_identical_to_per_cell_formatting(tmp_path, monkeypatch):
    import specshrink.io as sio

    left, right = tmp_path / "l.mts", tmp_path / "r.mts"
    write_trials(left, make_series(n_trials=6, n_channels=3))
    write_trials(right, make_series(n_trials=5, n_channels=3))
    commands = {
        "estimate": ("estimate", left, "--order", "1", "--window", "5"),
        "connectivity": ("connectivity", left, right, "--order", "1", "--fixed-span", "7"),
        "compare": ("compare", "--reps", "1", "--trials", "24", "--samples", "64",
                    "--estimators", "raw_mean,shrinkage", "--max-order", "1"),
    }

    def csv_outputs(tag):
        files = {}
        for name, argv in commands.items():
            out = tmp_path / tag / name
            assert run_cli(*argv, "--out-dir", out) == 0
            files.update({(name, path.name): path.read_bytes() for path in out.glob("*.csv")})
        return files

    fast = csv_outputs("fast")
    monkeypatch.setattr(sio, "format_column", lambda values: [format_value(v) for v in values])
    assert csv_outputs("per_cell") == fast
    assert {name for _, name in fast} >= {"spectra.csv", "cross_spectra.csv", "weights.csv",
                                          "tests.csv", "mse_pcoh.csv", "mean_weight.csv"}


def test_cli_compare_uses_the_configured_taper_grid(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("taper_max = 1\n")
    out = tmp_path / "out"
    assert run_cli("compare", "--reps", "1", "--trials", "24", "--samples", "64",
                   "--estimators", "multitaper", "--config", cfg, "--out-dir", out) == 0
    sim = SimulationConfig(n_trials=24, n_samples=64)
    kwargs = dict(estimators=("multitaper",), reps=1, seed=0)
    one_taper = monte_carlo_compare(sim, options=PipelineOptions(max_order=1, taper_grid=(1,)),
                                    **kwargs)
    default = monte_carlo_compare(sim, options=PipelineOptions(max_order=1), **kwargs)
    for name, field in (("mse_spectral.csv", "spectral_mse"), ("mse_pcoh.csv", "pcoh_mse")):
        column = [line.split(",")[1] for line in (out / name).read_text().splitlines()[1:]]
        assert column == [format_value(v) for v in getattr(one_taper, field)["multitaper"]]
        assert column != [format_value(v) for v in getattr(default, field)["multitaper"]]


def test_importing_the_cli_does_not_load_scipy_stats():
    import os
    import subprocess
    import sys

    import specshrink
    src = os.path.dirname(os.path.dirname(os.path.abspath(specshrink.__file__)))
    code = ("import sys, specshrink.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_compare_takes_max_order_from_the_harness_then_the_file_then_the_flag(
        tmp_path, monkeypatch):
    import specshrink.shrinkage as shrinkage
    seen = []
    select = shrinkage.select_var_order

    def recording_select(series, max_order):
        seen.append(max_order)
        return select(series, max_order)

    monkeypatch.setattr(shrinkage, "select_var_order", recording_select)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_order = 1\n")
    base = ("compare", "--reps", "1", "--trials", "24", "--samples", "64",
            "--estimators", "var")
    for extra, expected in (((), 8), (("--config", cfg), 1),
                            (("--config", cfg, "--max-order", "2"), 2)):
        seen.clear()
        assert run_cli(*base, *extra, "--out-dir", tmp_path / "out") == 0
        assert seen == [expected]


@pytest.mark.parametrize("command, flags, config, message", [
    ("estimate", ("--max-order", "3", "--order", "1"), "", "--max-order is not read with --order"),
    ("estimate", ("--span-min", "9"), "", "span_min 9 needs span_max"),
    ("estimate", (), "span_min = 9\n", "span_min 9 needs span_max"),
    ("connectivity", ("--span-min", "5"), "", "span_min 5 needs span_max"),
    ("compare", ("--reps", "1", "--trials", "24", "--samples", "64"), "span_min = 9\n",
     "span_min 9 needs span_max"),
    ("estimate", (), "bands = a:1:2\n", "estimate does not use config key 'bands'"),
    ("estimate", (), "fdr_q = 0.1\n", "estimate does not use config key 'fdr_q'"),
    ("estimate", (), "seed = 9\n", "estimate does not use config key 'seed'"),
    ("connectivity", (), "method = var\n", "connectivity does not use config key 'method'"),
    ("connectivity", (), "taper_max = 4\n",
     "connectivity does not use config key 'taper_max'"),
    ("connectivity", (), "seed = 9\n", "connectivity does not use config key 'seed'"),
    ("compare", ("--reps", "1", "--trials", "8", "--samples", "64"), "bands = a:1:2\n",
     "compare does not use config key 'bands'"),
    ("compare", ("--reps", "1", "--trials", "8", "--samples", "64"), "fdr_q = 0.1\n",
     "compare does not use config key 'fdr_q'"),
    ("compare", ("--reps", "1", "--trials", "8", "--samples", "64"), "method = var\n",
     "compare does not use config key 'method'"),
    ("estimate", ("--window", "4"), "", "risk window must be an odd integer >= 1, got 4"),
    ("estimate", ("--window", "0"), "", "risk window must be an odd integer >= 1, got 0"),
    ("estimate", ("--max-order", "0"), "", "max_order must be a positive integer, got 0"),
    ("connectivity", (), "window = -3\n", "risk window must be an odd integer >= 1, got -3"),
    ("connectivity", ("--max-order", "-1"), "",
     "max_order must be a positive integer, got -1"),
    ("compare", ("--reps", "1", "--trials", "8", "--samples", "64"), "window = 6\n",
     "risk window must be an odd integer >= 1, got 6"),
    ("estimate", ("--fixed-span", "4"), "", "fixed_span must be an odd integer >= 1, got 4"),
    ("estimate", ("--method", "multitaper", "--tapers", "0"), "",
     "n_tapers must be a positive integer, got 0"),
    ("estimate", (), "taper_max = 0\n",
     "taper counts must be nonempty and strictly increasing, got ()"),
    ("connectivity", ("--q", "1.5"), "", "q must lie in (0, 1), got 1.5"),
    ("connectivity", (), "fdr_q = 1\n", "q must lie in (0, 1), got 1.0"),
    ("connectivity", ("--band", "a:12:8"), "", "invalid band [12.0, 8.0]"),
    ("connectivity", ("--band", "a:nan:4"), "", "invalid band [nan, 4.0]"),
    ("connectivity", ("--band", "a:8:12", "--band", "a:20:30"), "",
     "repeated band 'a'; each may appear once"),
    ("connectivity", ("--q", "0.2"), "", "--q is not read with one input file"),
    ("estimate", ("--sampling-rate", "500"), "",
     "--sampling-rate is read only for CSV inputs; other files carry a rate"),
    ("connectivity", ("--sampling-rate", "500"), "",
     "--sampling-rate is read only for CSV inputs; other files carry a rate"),
    ("estimate", ("--weight", "1.5"), "", "fixed_weight must be a number in [0, 1], got 1.5"),
    ("estimate", ("--weight", "nan"), "", "fixed_weight must be a number in [0, 1], got nan"),
])
def test_cli_rejects_dropped_settings_before_reading_input(tmp_path, capsys, command, flags,
                                                            config, message):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    inputs = () if command == "compare" else (data,)
    missing = () if command == "compare" else (tmp_path / "missing.mts",)
    for paths in (inputs, missing):
        assert run_cli(command, *paths, *flags, "--config", cfg, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()


def test_cli_rejects_negative_seeds_before_simulating(tmp_path, capsys, monkeypatch):
    import specshrink.simulation as simulation

    def no_simulation(config):
        raise AssertionError("simulated before checking the seed")

    monkeypatch.setattr(simulation, "simulate_mixture", no_simulation)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    mts, out = tmp_path / "x.mts", tmp_path / "out"
    base = ("compare", "--reps", "1", "--trials", "8", "--samples", "64", "--out-dir", out)
    for argv in (("simulate", "--seed", "-1", "--out", mts),
                 (*base, "--seed", "-3"),
                 (*base, "--config", cfg)):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative int")
        assert err.count("\n") == 1
        assert not mts.exists() and not out.exists()


def test_harness_rejects_repeated_windows_and_estimators_before_simulating(tmp_path,
                                                                            monkeypatch):
    import specshrink.simulation as simulation

    def no_simulation(config):
        raise AssertionError("simulated before checking its arguments")

    monkeypatch.setattr(simulation, "simulate_mixture", no_simulation)
    sim = SimulationConfig(n_trials=8, n_samples=64)
    with pytest.raises(DomainError, match="repeated window 5"):
        monte_carlo_compare(sim, estimators=("shrinkage",), windows=(5, 3, 5))
    with pytest.raises(DomainError, match="repeated estimator 'var'"):
        monte_carlo_compare(sim, estimators=("var", "smoothed", "var"))
    base = ("compare", "--reps", "1", "--trials", "8", "--samples", "64")
    for flags in (("--windows", "5,5"), ("--estimators", "var,var")):
        out = tmp_path / flags[0].strip("-")
        assert run_cli(*base, *flags, "--out-dir", out) == 1
        assert not (out / "mse_spectral.csv").exists()


def test_harness_checks_every_window_before_simulating(tmp_path, capsys, monkeypatch):
    import specshrink.simulation as simulation

    def no_simulation(config):
        raise AssertionError("simulated before checking the windows")

    monkeypatch.setattr(simulation, "simulate_mixture", no_simulation)
    sim = SimulationConfig(n_trials=8, n_samples=64)
    for windows, message in (((15, 4), "odd integer >= 1, got 4"),
                             ((15, 4.5), "odd integer >= 1, got 4.5"),
                             ((5, True), "odd integer >= 1, got True"),
                             ((5, 65), "risk window 65 does not fit")):
        with pytest.raises(DomainError, match=message):
            monte_carlo_compare(sim, estimators=("shrinkage",), windows=windows)
    base = ("compare", "--reps", "1", "--trials", "8", "--samples", "64")
    for windows, message in (("15,4", "risk window must be an odd integer >= 1, got 4"),
                             ("15,4.5", "--windows takes comma-separated integers, got '15,4.5'"),
                             ("5,65", "risk window 65 does not fit a full circle of 64 "
                                      "frequencies")):
        out = tmp_path / "out"
        assert run_cli(*base, "--windows", windows, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_cli_reports_a_config_file_that_is_not_utf8_in_one_line(tmp_path):
    import os
    import subprocess
    import sys

    import specshrink
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"window = 7\nmethod = \xff\xfe\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(specshrink.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "specshrink.cli", "estimate", str(data),
                           "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command, flags, message", [
    ("estimate", ("--tapers", "16"), "--tapers is not read by shrinkage"),
    ("estimate", ("--method", "var", "--weight", "0.3"), "--weight is not read by var"),
    ("estimate", ("--method", "smoothed", "--max-order", "3"),
     "--max-order is not read by smoothed"),
    ("estimate", ("--method", "var", "--fixed-span", "5"), "--fixed-span is not read by var"),
    ("estimate", ("--method", "raw_mean", "--window", "5"), "--window is not read by raw_mean"),
    ("estimate", ("--method", "multitaper", "--order", "2"),
     "--order is not read by multitaper"),
    ("estimate", ("--order", "2", "--max-order", "5"), "--max-order is not read with --order"),
    ("estimate", ("--method", "smoothed", "--fixed-span", "7", "--span-max", "9"),
     "--span-max is not read with --fixed-span"),
    ("connectivity", ("--fixed-span", "7", "--span-min", "5"),
     "--span-min is not read with --fixed-span"),
    ("connectivity", ("--band", "a:1"), "band 'a:1' is not name:lo:hi"),
    ("compare", ("--estimators", "var", "--windows", "5,7"), "--windows is not read by var"),
    ("compare", ("--estimators", "multitaper,truth", "--max-order", "2"),
     "--max-order is not read by multitaper, truth"),
    ("compare", ("--estimators", ","), "need at least one estimator"),
    ("compare", ("--estimators", "banana", "--windows", "5"), "unknown estimator 'banana'; "
     "expected one of ('raw_mean', 'smoothed', 'var', 'multitaper', 'shrinkage', 'truth')"),
])
def test_cli_rejects_flags_the_estimators_do_not_read(tmp_path, capsys, monkeypatch, command,
                                                      flags, message):
    import specshrink.simulation as simulation

    def no_simulation(config):
        raise AssertionError("simulated before checking the flags")

    monkeypatch.setattr(simulation, "simulate_mixture", no_simulation)
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    out = tmp_path / "out"
    inputs = ((),) if command == "compare" else ((data,), (tmp_path / "missing.mts",))
    for paths in inputs:
        assert run_cli(command, *paths, *flags, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_cli_config_keys_keep_the_per_command_rule(tmp_path):
    data = tmp_path / "t.mts"
    write_trials(data, make_series())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 7\nspan_max = 9\nmax_order = 2\n")
    out = tmp_path / "out"
    assert run_cli("estimate", data, "--method", "var", "--order", "1", "--config", cfg,
                   "--out-dir", out) == 0
    assert (out / "fit_report.txt").read_text() == "var_order = 1\n"


def test_cli_connectivity_checks_bands_before_any_pipeline(tmp_path, capsys, monkeypatch):
    import specshrink.cli as cli

    def no_pipeline(*args, **kwargs):
        raise AssertionError("ran a pipeline before checking the bands")

    monkeypatch.setattr(cli, "shrinkage_pipeline", no_pipeline)
    monkeypatch.setattr(cli, "jackknife_band_stats", no_pipeline)
    left, right = tmp_path / "l.mts", tmp_path / "r.mts"
    write_trials(left, make_series(n_trials=6))
    write_trials(right, make_series(n_trials=5))
    out = tmp_path / "out"
    for inputs in ((left,), (left, right)):
        assert run_cli("connectivity", *inputs, "--band", "a:8:12", "--band", "b:200:300",
                       "--out-dir", out) == 1
        assert capsys.readouterr().err == ("error: no Fourier frequencies inside "
                                           "[200.0, 300.0] Hz at sampling rate 64.0\n")
        assert not out.exists()
