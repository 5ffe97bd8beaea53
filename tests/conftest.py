"""Shared test fixtures: the acceptance-criteria verdict log, and the stacked
per-trial periodograms that the estimators' trial passes are checked against."""

import numpy as np
import pytest

from specshrink import FrequencyGrid, raw_periodogram

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Mutable list of per-criterion verdict lines, printed after the run."""
    return ACCEPTANCE_LINES


def stacked_periodograms(series):
    """Every trial's periodogram matrices, ``(N, n_freq, P, P)``: :func:`raw_periodogram`
    trial by trial, stacked.  The package keeps only the trials' DFTs."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    return np.stack([raw_periodogram(values, grid) for values in series.values])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
