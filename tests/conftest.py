"""Shared test fixtures: the acceptance-criteria verdict log, one trial's DFT
and periodogram matrices and the stacked per-trial periodograms that the
estimators' trial passes are checked against, the outcome of a guarded
call that certified guards are checked against, the conjugate-symmetric
extension of half-grid matrices to the full circle and the full-circle
smoothing that the lag-domain smoothing is checked against, and the exactly
rounded sums over trials that the package's trial sums are checked against."""

import math
import warnings

import numpy as np
import pytest

from specshrink import DimensionError, FrequencyGrid, symmetrize
from specshrink.periodogram import _half_grid_dft
from specshrink.smoothing import _kernel_transfer

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Mutable list of per-criterion verdict lines, printed after the run."""
    return ACCEPTANCE_LINES


def trial_dft(values, grid):
    """Half-grid DFT of one trial, shape ``(n_channels, n_frequencies)``, as the package
    computes each trial's; ``values`` is the ``(n_channels, n_samples)`` block of one trial."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.n_samples:
        raise DimensionError(
            f"expected (n_channels, {grid.n_samples}) trial block, got {values.shape}")
    return _half_grid_dft(values, grid)


def raw_periodogram(values, grid):
    """Periodogram matrices ``d d^* / T`` of one trial, shape ``(n_freq, P, P)``: Hermitian
    positive semidefinite of rank one by construction."""
    d = trial_dft(values, grid)
    return np.einsum("pj,qj->jpq", d, np.conj(d)) / grid.n_samples


def stacked_periodograms(series):
    """Every trial's periodogram matrices, ``(N, n_freq, P, P)``: :func:`raw_periodogram`
    trial by trial, stacked.  The package keeps only the trials' DFTs."""
    grid = FrequencyGrid(series.n_samples, series.sampling_rate)
    return np.stack([raw_periodogram(values, grid) for values in series.values])


def extend_full_circle(matrices, n_samples):
    """Half-grid matrices ``(floor(n_samples/2) + 1, P, P)`` extended to the full circle of
    ``n_samples`` frequencies: index ``j`` holds the value at ``2*pi*j/n_samples``, and the
    entries above the half grid are ``conj(matrices[n_samples - j])``."""
    matrices = np.asarray(matrices, dtype=complex)
    n_half = n_samples // 2 + 1
    if matrices.ndim != 3 or matrices.shape[0] != n_half:
        raise DimensionError(
            f"expected {n_half} half-grid matrices for n_samples={n_samples}, "
            f"got shape {matrices.shape}")
    out = np.empty((n_samples,) + matrices.shape[1:], dtype=complex)
    out[:n_half] = matrices
    out[n_half:] = np.conj(matrices[1:n_samples - n_half + 1][::-1])
    return out


def full_circle(estimate):
    """A :class:`~specshrink.SpectralEstimate`'s matrices on all ``n_samples`` Fourier
    frequencies, by :func:`extend_full_circle`."""
    return extend_full_circle(estimate.matrices, estimate.grid.n_samples)


def full_circle_smooth(matrices, span, n_samples):
    """Half-grid matrices smoothed with the span's Hann kernel on the full circle: a
    complex FFT of the conjugate-symmetric extension, the kernel's transfer, the inverse
    FFT, and the Hermitian part of its half grid."""
    full = extend_full_circle(matrices, n_samples)
    if span == 1:
        return full[: n_samples // 2 + 1]
    transfer = _kernel_transfer(span, n_samples)
    smoothed = np.fft.ifft(np.fft.fft(full, axis=0) * transfer[:, None, None], axis=0)
    return symmetrize(smoothed[: n_samples // 2 + 1])


def fsum_columns(stack):
    """``math.fsum`` of every column of ``stack`` over its first axis, the exactly rounded
    sum, shape ``stack.shape[1:]``: it does not depend on the order of the summands."""
    stack = np.asarray(stack, dtype=float)
    columns = stack.reshape(len(stack), -1).T.tolist()
    return np.array([math.fsum(col) for col in columns]).reshape(stack.shape[1:])


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
