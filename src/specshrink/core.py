"""Shared foundations: frequency grids, spectral-matrix containers, matrix norms.

All estimators in this package produce a spectral density matrix per Fourier
frequency.  Only the closed half grid ``omega_j = 2*pi*j/T`` for
``j = 0 .. floor(T/2)`` is ever stored; values on the negative half circle
follow from conjugate symmetry, ``f(-omega) = conj(f(omega))``, and are
materialised on demand by :func:`extend_full_circle`.
"""

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError

#: Tags a spectral estimate may carry, identifying how it was produced.
ESTIMATOR_TAGS = ("raw_mean", "smoothed", "var", "multitaper", "shrinkage", "truth")

#: Relative tolerance for Hermitian-deviation checks.
HERMITIAN_RTOL = 1e-10
#: Relative tolerance (against the trace) for eigenvalue positivity checks.
PSD_RTOL = 1e-8


@dataclass(frozen=True)
class FrequencyGrid:
    """The discrete Fourier frequencies of a length-``n_samples`` record.

    Frequencies are ``omega_j = 2*pi*j / n_samples`` radians per sample for
    ``j = 0 .. floor(n_samples/2)``, i.e. the closed interval ``[0, pi]``.

    Parameters
    ----------
    n_samples : int
        Record length ``T``; must be at least 2.
    sampling_rate : float, optional
        Samples per second.  Only needed to express frequencies in hertz.
    """

    n_samples: int
    sampling_rate: float | None = None

    def __post_init__(self):
        if self.n_samples < 2:
            raise DimensionError(f"need n_samples >= 2, got {self.n_samples}")
        if self.sampling_rate is not None:
            object.__setattr__(self, "sampling_rate", check_rate(self.sampling_rate))

    @property
    def n_frequencies(self) -> int:
        """Number of stored frequencies, ``floor(n_samples/2) + 1``."""
        return self.n_samples // 2 + 1

    @cached_property
    def omegas(self) -> np.ndarray:
        """Angular frequencies in radians per sample, shape ``(n_frequencies,)``."""
        out = 2.0 * np.pi * np.arange(self.n_frequencies) / self.n_samples
        out.flags.writeable = False
        return out

    @cached_property
    def hertz(self) -> np.ndarray:
        """Frequencies in Hz; requires ``sampling_rate``."""
        if self.sampling_rate is None:
            raise DomainError("grid has no sampling_rate; frequencies in Hz are undefined")
        out = self.omegas * self.sampling_rate / (2.0 * np.pi)
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        return self.n_frequencies


def check_count(value, name: str, *, odd: bool = False, low: int = 1) -> int:
    """``value`` as an ``int`` if it is a count: an ``int`` or ``np.integer``, not a ``bool``,
    at least ``low``, and odd when ``odd`` is set.  Else :class:`DomainError` naming ``name``."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < low or (odd and value % 2 == 0)):
        rule = (f"an odd integer >= {low}" if odd else "a positive integer" if low == 1
                else f"an integer >= {low}")
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def check_grid(values, name: str, *, odd: bool = False) -> tuple[int, ...]:
    """A nonempty, strictly increasing grid of counts as ints; ``name`` is the plural."""
    grid = tuple(check_count(value, name, odd=odd) for value in values)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"{name} must be nonempty and strictly increasing, got {grid}")
    return grid


def _is_real(value) -> bool:
    """Whether ``value`` is an ``int``, ``float`` or numpy number, and not a ``bool``."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_real(value, name: str) -> float:
    """``value`` as a ``float`` if it is a real number and finite.  Else :class:`DomainError`
    naming ``name``."""
    if not (_is_real(value) and -math.inf < value < math.inf):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_rate(value) -> float:
    """A sampling rate as a ``float`` if it is a real number, finite and above 0.  Else
    :class:`DomainError`."""
    if not (_is_real(value) and 0.0 < value < math.inf):
        raise DomainError(f"sampling_rate must be a finite number > 0, got {value!r}")
    return float(value)


def check_weight(value, name: str) -> float:
    """``value`` as a ``float`` if it is a real number in [0, 1].  Else :class:`DomainError`
    naming ``name``."""
    if not (_is_real(value) and 0.0 <= value <= 1.0):
        raise DomainError(f"{name} must be a number in [0, 1], got {value!r}")
    return float(value)


def _worker_count(n_tasks: int) -> int:
    """Threads for ``n_tasks`` independent tasks: the CPUs this process may run on, at most
    ``n_tasks`` and at least 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def map_trials(func, n_trials: int, scratch=None):
    """Yield ``func(n)`` for ``n = 0 .. n_trials - 1``, in trial order, computed on a pool
    of threads, one per available CPU and at most one per trial.

    A trial is submitted only when an earlier result has been taken, so at most
    one finished result per worker waits and memory stays bounded by the
    worker count, not the trial count.  Reducing the results in the order
    they arrive gives the serial loop's bits for any number of workers.
    ``func`` pays off when it spends its time in numpy calls that release the
    interpreter lock.  An exception raised by ``func`` reaches the caller
    unchanged, at the trial that raised it.

    ``scratch``, if given, is called in the calling thread once per worker
    plus once, and ``func`` is called as ``func(n, space)`` with one of its
    results that no other trial in flight holds.  ``func`` may return views
    of its space: a result stays valid until the next one is taken.  Large
    working arrays belong there.  The C allocator gives each thread an arena
    of its own and keeps freed blocks in it, so arrays that workers allocate
    leave a varying amount of memory resident from run to run; buffers made
    in the calling thread are allocated and freed in the same order every time.
    """
    from concurrent.futures import ThreadPoolExecutor  # imports logging: keep it off start-up

    workers = _worker_count(n_trials)
    task = func
    if scratch is not None:
        # Trials n .. n + workers are in flight while trial n's result is used.
        spaces = [scratch() for _ in range(min(workers, n_trials) + 1)]

        def task(n):
            return func(n, spaces[n % len(spaces)])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(task, n) for n in range(min(workers, n_trials)))
        next_trial = len(pending)
        while pending:
            result = pending.popleft().result()
            if next_trial < n_trials:
                pending.append(pool.submit(task, next_trial))
                next_trial += 1
            yield result


def _square_matrices(matrices, dtype=None) -> np.ndarray:
    """``matrices`` as an array, which must be one square matrix or a batch of them."""
    matrices = np.asarray(matrices, dtype=dtype)
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {matrices.shape}")
    return matrices


def symmetrize(matrices: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(A + A^*) / 2``, batched over leading axes."""
    matrices = _square_matrices(matrices)
    return 0.5 * (matrices + np.conj(np.swapaxes(matrices, -1, -2)))


def hs_norm_sq(matrices: np.ndarray) -> np.ndarray | float:
    """Normalised squared Hilbert-Schmidt norm, ``tr(A A^*) / P``.

    The normalisation by the matrix dimension ``P`` makes the norm of the
    identity equal to 1 regardless of dimension, so risk quantities are
    comparable across channel counts.

    Parameters
    ----------
    matrices : array_like
        One square matrix ``(P, P)`` or a batch ``(..., P, P)``.

    Returns
    -------
    float or ndarray
        Nonnegative real norm(s); a scalar for a single matrix, an array of
        the leading batch shape otherwise.
    """
    matrices = _square_matrices(matrices)
    p = matrices.shape[-1]
    out = np.sum(np.abs(matrices) ** 2, axis=(-2, -1)) / p
    return float(out) if out.ndim == 0 else out


def hermitian_cond(matrices: np.ndarray) -> np.ndarray | float:
    """2-norm condition number of Hermitian matrices, from their eigenvalues.

    The singular values of a Hermitian matrix are the moduli of its
    eigenvalues, so ``max|lambda| / min|lambda|`` from
    :func:`numpy.linalg.eigvalsh` equals ``np.linalg.cond`` up to rounding,
    without the SVD.  Only the lower triangle is read.  A singular matrix
    (the zero matrix included) gives ``inf``, without a warning.

    Parameters
    ----------
    matrices : array_like
        One Hermitian matrix ``(P, P)`` or a batch ``(..., P, P)``.

    Returns
    -------
    float or ndarray
        A scalar for a single matrix, an array of the batch shape otherwise.
    """
    matrices = _square_matrices(matrices)
    mags = np.abs(np.linalg.eigvalsh(matrices))
    top, bottom = mags.max(axis=-1), mags.min(axis=-1)
    out = np.full(bottom.shape, np.inf)
    np.divide(top, bottom, out=out, where=bottom > 0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ValidationReport:
    """Numerical health of one or more spectral matrices.

    ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian part
    ``(A + A^*)/2``, minimised over the batch.  Hermitian deviation is held to
    :data:`HERMITIAN_RTOL` times the largest entry, the eigenvalue floor to
    :data:`PSD_RTOL` times the largest trace.
    """

    hermitian_deviation: float
    min_eigenvalue: float
    scale: float
    max_trace: float

    @property
    def hermitian_ok(self) -> bool:
        return self.hermitian_deviation <= HERMITIAN_RTOL * max(self.scale, 1e-300)

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue >= -PSD_RTOL * max(self.max_trace, 1e-300)

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.psd_ok


def validate_spectral(matrices: np.ndarray) -> ValidationReport:
    """Check Hermitian symmetry and positive semidefiniteness.

    Parameters
    ----------
    matrices : array_like
        A single ``(P, P)`` matrix or a batch ``(..., P, P)``.

    Returns
    -------
    ValidationReport
        Worst-case deviations over the batch plus pass/fail flags.
    """
    matrices = _square_matrices(matrices, complex)
    conj_t = np.conj(np.swapaxes(matrices, -1, -2))
    deviation = float(np.max(np.abs(matrices - conj_t))) if matrices.size else 0.0
    scale = float(np.max(np.abs(matrices))) if matrices.size else 0.0
    herm = 0.5 * (matrices + conj_t)
    eigs = np.linalg.eigvalsh(herm)
    min_eig = float(np.min(eigs))
    max_trace = float(np.max(np.abs(np.trace(herm, axis1=-2, axis2=-1).real)))
    return ValidationReport(hermitian_deviation=deviation, min_eigenvalue=min_eig,
                            scale=scale, max_trace=max_trace)


@dataclass(frozen=True)
class SpectralEstimate:
    """A spectral density matrix per frequency of a :class:`FrequencyGrid`.

    Attributes
    ----------
    grid : FrequencyGrid
        The frequencies the matrices live on.
    matrices : ndarray
        Complex array of shape ``(n_frequencies, P, P)``.
    tag : str
        Which estimator produced this; one of :data:`ESTIMATOR_TAGS`.
    """

    grid: FrequencyGrid
    matrices: np.ndarray
    tag: str = "raw_mean"

    def __post_init__(self):
        mats = np.ascontiguousarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionError(f"matrices must be (n_freq, P, P), got {mats.shape}")
        if mats.shape[0] != self.grid.n_frequencies:
            raise DimensionError(
                f"{mats.shape[0]} matrices for a grid of {self.grid.n_frequencies} frequencies")
        if self.tag not in ESTIMATOR_TAGS:
            raise DomainError(f"unknown estimator tag {self.tag!r}; expected one of {ESTIMATOR_TAGS}")
        if not np.all(np.isfinite(mats.view(float))):
            raise DomainError("spectral matrices contain non-finite entries")
        object.__setattr__(self, "matrices", mats)

    @property
    def n_channels(self) -> int:
        return self.matrices.shape[1]

    def validate(self) -> ValidationReport:
        """Worst-case Hermitian/PSD report over all frequencies."""
        return validate_spectral(self.matrices)

    def full_circle(self) -> np.ndarray:
        """Matrices on all ``n_samples`` Fourier frequencies via conjugate symmetry."""
        return extend_full_circle(self.matrices, self.grid.n_samples)


#: Elements per column block in :func:`exact_sum`: a block's three working
#: arrays take 768 KiB together, small enough to stay in cache.
_EXACT_SUM_BLOCK = 1 << 15


def exact_sum(stack: np.ndarray) -> np.ndarray:
    """Sum an array over its first axis with exactly rounded accumulation.

    Every element of the result is bit-identical to ``math.fsum`` over the
    corresponding column, so it is independent of the order of the
    summands.  This is what makes trial-order permutation invariance
    bit-exact in the estimators that advertise it.  An empty first axis
    sums to zeros.

    Columns are processed in blocks of about 2**15 elements by error-free
    extraction (Rump, Ogita & Oishi, "Accurate floating-point summation
    part I", 2008).  With ``N`` summands, ``M = ceil(log2(N + 2))`` and
    ``mu`` the column's largest magnitude, ``sigma = 2**(M + e)`` with
    ``mu <= 2**e`` splits each summand into ``high = (sigma + x) - sigma``
    and the remainder ``x - high``, both exact; the highs are multiples of
    ``2**(e + M - 53)`` below ``sigma`` in magnitude, so their column sum is
    exact in any order.  Extraction repeats on the remainders, dropping
    columns that became zero, and leaves each column's exact sum in a few
    partials: one is already the result, two are rounded by one IEEE
    addition, more go to ``math.fsum``.  A block holding a non-finite value
    or a magnitude of ``2**(1020 - M)`` or more, where ``sigma`` could
    overflow, falls back to ``math.fsum`` per column; so do all-zero
    columns, whose signed zero is ``math.fsum``'s to choose.  The fallback
    keeps fsum's ``inf`` and ``nan`` results and its ``ValueError`` and
    ``OverflowError`` exactly.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim < 1:
        raise DimensionError("exact_sum needs at least one axis to reduce over")
    n_rows = arr.shape[0]
    flat = arr.reshape(n_rows, math.prod(arr.shape[1:]))
    if n_rows == 0:
        return np.zeros(arr.shape[1:])
    out = np.empty(flat.shape[1])
    width = max(1, _EXACT_SUM_BLOCK // n_rows)
    for start in range(0, flat.shape[1], width):
        out[start:start + width] = _exact_column_sums(flat[:, start:start + width])
    return out.reshape(arr.shape[1:])


def _exact_column_sums(block: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every column of a 2-D float block, by extraction."""
    m_bits = (block.shape[0] + 1).bit_length()  # 2**m_bits >= N + 2
    mu = np.maximum(block.max(axis=0), -block.min(axis=0))
    if not np.all(mu < math.ldexp(1.0, 1020 - m_bits)):  # also catches inf and nan
        return np.array([math.fsum(col) for col in block.T.tolist()])
    out = np.empty(block.shape[1])
    cols = np.flatnonzero(mu)
    if cols.size < mu.size:
        zero = np.flatnonzero(mu == 0.0)
        out[zero] = [math.fsum(col) for col in block[:, zero].T.tolist()]
        rest, mu = block[:, cols], mu[cols]
    else:
        rest = block.copy()
    high = np.empty_like(rest)
    levels = []
    while cols.size:
        sigma = np.ldexp(1.0, np.frexp(mu)[1] + m_bits)
        np.add(sigma, rest, out=high)
        high -= sigma
        rest -= high
        levels.append((cols, high.sum(axis=0)))
        mu = np.maximum(rest.max(axis=0), -rest.min(axis=0))
        live = mu > 0.0
        if not live.all():
            cols, rest, mu = cols[live], rest[:, live], mu[live]
            high = high[:, :cols.size]
    if levels:
        cols, total = levels[0]
        out[cols] = total
    if len(levels) > 1:
        cols, total = levels[1]
        out[cols] += total  # one correctly rounded addition of two partials
    if len(levels) > 2:
        partials = np.zeros((len(levels), block.shape[1]))
        for row, (cols, total) in zip(partials, levels):
            row[cols] = total
        deep = levels[2][0]
        out[deep] = [math.fsum(col) for col in partials[:, deep].T.tolist()]
    return out


def extend_full_circle(matrices: np.ndarray, n_samples: int) -> np.ndarray:
    """Extend half-grid matrices to the full circle of ``n_samples`` frequencies.

    Index ``j`` of the result holds the value at ``2*pi*j/n_samples`` for
    ``j = 0 .. n_samples - 1``; entries above the half grid are filled with
    ``conj(matrices[n_samples - j])``.

    Parameters
    ----------
    matrices : ndarray
        Shape ``(floor(n_samples/2) + 1, P, P)``.
    n_samples : int
        Full circle length ``T``.

    Returns
    -------
    ndarray
        Shape ``(n_samples, P, P)``.
    """
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
