"""Shared foundations: frequency grids, spectral-matrix containers, matrix norms.

All estimators in this package produce a spectral density matrix per Fourier
frequency.  Only the closed half grid ``omega_j = 2*pi*j/T`` for
``j = 0 .. floor(T/2)`` is ever stored; values on the negative half circle
follow from conjugate symmetry, ``f(-omega) = conj(f(omega))``.
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
        Record length ``T``, a count (:func:`check_count`) of at least 2; an
        integer below 2 raises :class:`DimensionError`.
    sampling_rate : float, optional
        Samples per second.  Only needed to express frequencies in hertz.
    """

    n_samples: int
    sampling_rate: float | None = None

    def __post_init__(self):
        n_samples = self.n_samples
        if isinstance(n_samples, (int, np.integer)) and not isinstance(n_samples, bool) \
                and n_samples < 2:
            raise DimensionError(f"need n_samples >= 2, got {n_samples}")
        object.__setattr__(self, "n_samples", check_count(n_samples, "n_samples", low=2))
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
    def phase(self) -> np.ndarray:
        """``exp(-1j * omegas)``, shape ``(n_frequencies,)``, exactly ``-1`` at ``omega = pi``.

        The factor moves numpy's t = 0-based transforms to the t = 1-based
        convention; with an exact ``-1`` the Nyquist DFT of a real series stays real.
        """
        out = np.exp(-1j * self.omegas)
        if self.n_samples % 2 == 0:
            out[-1] = -1.0
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


def map_trials(func, n_trials: int, scratch):
    """Yield ``func(n, space)`` for ``n = 0 .. n_trials - 1``, in trial order, computed on a
    pool of threads, one per available CPU and at most one per trial.

    ``scratch`` is called in the calling thread once per worker, and not at all
    for zero trials; trial ``n`` works in space ``n % workers``.  Trial
    ``n + workers`` reuses trial ``n``'s space, so it is submitted only when the
    caller asks for the result after trial ``n``'s: ``func`` may return views of
    its space, and a result stays valid until the next one is asked for.  At
    most ``n + workers`` trials have started when result ``n`` is yielded, so
    memory is bounded by the worker count, not the trial count.  Reducing the
    results in the order they arrive gives the serial loop's bits for any
    number of workers.  ``func`` pays off when it spends its time in numpy
    calls that release the interpreter lock.  An exception raised by ``func``
    reaches the caller unchanged, at the trial that raised it.

    Large working arrays belong in the spaces.  The C allocator gives each
    thread an arena of its own and keeps freed blocks in it, so arrays that
    workers allocate leave a varying amount of memory resident from run to run;
    buffers made in the calling thread are allocated and freed in the same order
    every time.
    """
    if not n_trials:
        return
    from concurrent.futures import ThreadPoolExecutor  # imports logging: keep it off start-up

    workers = _worker_count(n_trials)
    spaces = [scratch() for _ in range(workers)]

    def task(n):
        return func(n, spaces[n % workers])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(task, n) for n in range(workers))
        for n in range(workers, n_trials + workers):
            yield pending.popleft().result()
            if n < n_trials:  # trial n - workers is done with the space
                pending.append(pool.submit(task, n))


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
    if np.iscomplexobj(matrices):  # the float view holds the real and imaginary parts
        matrices = np.ascontiguousarray(matrices, dtype=complex).view(float)
    out = np.sum(np.square(matrices), axis=(-2, -1)) / p
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


def certified_inverse(matrices: np.ndarray, limit: float) -> np.ndarray | None:
    """``np.linalg.inv(matrices)`` if the inverse certifies that every matrix has a 2-norm
    condition number at most ``limit``; else None.

    The certificate is ``||A||_F * ||A**-1||_F <= limit / 2`` for every matrix, with
    the computed inverse.  The product bounds ``cond_2(A)`` from above, and the
    factor 2 absorbs the inverse's own rounding, a relative error of order
    ``P * eps * cond_2(A)``, for any ``limit`` far below ``1 / eps``.  None also
    when the inversion raises :class:`numpy.linalg.LinAlgError` (an exactly
    singular matrix) or a bound is not finite; no floating-point warning
    escapes.  None says only that the bound could not certify: a caller that
    must know whether the limit holds then computes the exact condition numbers.

    Parameters
    ----------
    matrices : array_like
        One square matrix ``(P, P)`` or a batch ``(..., P, P)``.
    limit : float
        The condition number each matrix must be certified to stay below.
    """
    matrices = _square_matrices(matrices)
    try:
        inverse = np.linalg.inv(matrices)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        bound = (np.linalg.norm(matrices, axis=(-2, -1))
                 * np.linalg.norm(inverse, axis=(-2, -1)))
    return inverse if np.all(bound <= 0.5 * limit) else None


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


def canonical_trial_order(values: np.ndarray) -> np.ndarray:
    """Trial indices of ``values`` (trials on the first axis) sorted by each trial's
    bytes in C order, compared as unsigned bytes, first byte first.

    The sequence of trial contents this order gives does not depend on the
    order the trials come in, so a reduction that visits the trials in it,
    in any fixed arithmetic, gives the same bits for every permutation of
    the trials.  Byte-identical trials tie; the sort is stable, so they keep
    their input order, and which of them comes first cannot change the
    contents visited.
    """
    arr = np.ascontiguousarray(values)
    row_bytes = arr.itemsize * math.prod(arr.shape[1:])
    # One opaque item per trial; its size is given, since reshape(0, -1) cannot infer it.
    keys = arr.view(np.uint8).reshape(len(arr), row_bytes).view(np.dtype((np.void, row_bytes)))
    return np.argsort(keys.reshape(len(arr)), kind="stable")
