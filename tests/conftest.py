"""Shared test fixtures: the acceptance-criteria verdict log, the stacked
per-trial periodograms that the estimators' trial passes are checked against,
and the outcome of a guarded call that certified guards are checked against."""

import warnings

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


def guard_outcome(func, *args):
    """What ``func(*args)`` returns, or the type and message of the exception it raises, and
    the ``(category, message)`` of every warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = func(*args)
        except Exception as err:  # the exception is the outcome compared
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
