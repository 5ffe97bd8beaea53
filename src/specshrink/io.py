"""File formats: binary trial data, CSV import/export, and run configuration.

Binary trial-data layout (little endian throughout)::

    magic   4 bytes  b"MTS1"
    version u16      1
    n_trials   u32
    n_channels u32
    n_samples  u32
    sampling_rate f64
    labels  n_channels x (u16 byte length + UTF-8 bytes)
    payload n_trials*n_channels*n_samples float64, [trial][channel][time] order

The payload length must match the header exactly; trailing bytes are an
error.  All writers are atomic (temp file in the target directory, then
rename), so a failed run never leaves a partial output file.
"""

import math
import os
import struct
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .connectivity import DEFAULT_FDR_Q
from .core import check_rate
from .errors import DataFormatError, DimensionError, DomainError
from .shrinkage import DEFAULT_WINDOW, PipelineOptions
from .simulation import SimulationConfig
from .smoothing import MIN_AUTO_SPAN
from .timeseries import MultiTrialSeries

MAGIC = b"MTS1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIId")

#: Default analysis bands in Hz.
DEFAULT_BANDS = (("alpha", 8.0, 12.0), ("beta", 18.0, 30.0))


def _atomic_write(path, data: bytes):
    """Write ``data`` to ``path`` through a temporary file in its directory, with the
    mode ``open()`` would give a new file (``mkstemp`` makes it 0600)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trials(path, series: MultiTrialSeries):
    """Serialize a :class:`MultiTrialSeries` to the binary trial-data format."""
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, series.n_trials, series.n_channels,
                          series.n_samples, series.sampling_rate)
    parts = [header]
    for label in series.channel_labels:
        encoded = label.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DomainError(f"channel label too long to serialize: {label[:32]!r}...")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
    parts.append(np.ascontiguousarray(series.values, dtype="<f8").tobytes())
    _atomic_write(path, b"".join(parts))


def read_trials(path) -> MultiTrialSeries:
    """Parse a binary trial-data file; failures report the byte offset."""
    with open(path, "rb") as handle:
        blob = handle.read()

    def fail(offset, message):
        raise DataFormatError(f"{path}: {message} (at byte offset {offset})")

    if len(blob) < _HEADER.size:
        fail(len(blob), f"file truncated inside the {_HEADER.size}-byte header")
    magic, version, n_trials, n_channels, n_samples, sampling_rate = \
        _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        fail(0, f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        fail(4, f"unsupported format version {version}")
    if n_trials < 1 or n_channels < 1 or n_samples < 2:
        fail(6, f"invalid dimensions n_trials={n_trials} n_channels={n_channels} "
                f"n_samples={n_samples}")
    if not (np.isfinite(sampling_rate) and sampling_rate > 0):
        fail(18, f"invalid sampling rate {sampling_rate}")

    offset = _HEADER.size
    labels = []
    for index in range(n_channels):
        if offset + 2 > len(blob):
            fail(offset, f"file truncated in the length prefix of label {index}")
        (length,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + length > len(blob):
            fail(offset, f"file truncated inside label {index}")
        try:
            labels.append(blob[offset:offset + length].decode("utf-8"))
        except UnicodeDecodeError:
            fail(offset, f"label {index} is not valid UTF-8")
        offset += length

    expected = 8 * n_trials * n_channels * n_samples
    if len(blob) - offset != expected:
        fail(offset, f"payload is {len(blob) - offset} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f8", count=n_trials * n_channels * n_samples,
                           offset=offset).reshape(n_trials, n_channels, n_samples)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values.ravel())))
        fail(offset + 8 * bad, "payload contains a non-finite value")
    return MultiTrialSeries(values=values, sampling_rate=sampling_rate,
                            channel_labels=tuple(labels))


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that do not decode raise :class:`DataFormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [line.rstrip("\n") for line in handle]
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: not UTF-8 text ({err.reason})") from None


def read_trials_csv(path, sampling_rate: float = 1.0) -> MultiTrialSeries:
    """Import trials from a tidy CSV with columns ``trial,channel,time,value``.

    Indices are 0-based integers, values are finite, and every (trial,
    channel, time) cell must appear exactly once; dimensions are inferred
    from the largest indices, and each trial needs at least 2 samples.
    A file of plain rows is parsed in one vectorized pass; any other file is
    parsed line by line, which accepts the same files, gives the same
    values and reports the first bad line.
    """
    check_rate(sampling_rate)
    lines = _text_lines(path)
    if not lines or lines[0].strip() != "trial,channel,time,value":
        raise DataFormatError(f"{path}: expected header 'trial,channel,time,value' (line 1)")
    grid = _plain_rows_grid(lines[1:])
    if grid is None:
        grid = _rows_grid(path, lines)
    return MultiTrialSeries(values=grid, sampling_rate=sampling_rate)


#: The only bytes :func:`_plain_rows_grid` takes in a data row.
_PLAIN_ROW_BYTES = b"0123456789,.eE+- \t"
_ROW_DTYPE = np.dtype([("trial", np.int64), ("channel", np.int64), ("time", np.int64),
                       ("value", np.float64)])


def _plain_rows_grid(rows: list[str]) -> np.ndarray | None:
    """The ``(trials, channels, samples)`` grid of the data ``rows``, parsed in one
    vectorized pass, or None unless the rows hold every cell exactly once, with integer
    indices, a finite value and at least 2 samples per trial, and use only the bytes of
    :data:`_PLAIN_ROW_BYTES`.  Empty rows are skipped.

    On those bytes numpy parses an integer or a float as ``int`` and ``float`` do,
    or rejects it, so a grid returned here is the grid :func:`_rows_grid` builds.
    """
    try:
        plain = ",".join(rows).encode("ascii").translate(None, _PLAIN_ROW_BYTES) == b""
    except UnicodeEncodeError:
        return None
    if not plain:
        return None
    try:
        with warnings.catch_warnings():
            # an empty file warns, and older numpy parses "1.0" as an integer with a warning
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    cells = [table[axis] for axis in ("trial", "channel", "time")]
    if min(axis.min() for axis in cells) < 0 or not np.all(np.isfinite(table["value"])):
        return None
    shape = tuple(int(axis.max()) + 1 for axis in cells)
    if math.prod(shape) != len(table) or shape[2] < 2:
        return None
    position = np.ravel_multi_index(cells, shape)
    seen = np.zeros(len(table), dtype=bool)
    seen[position] = True
    if not seen.all():  # as many rows as cells, so a cell left out means another repeated
        return None
    grid = np.empty(len(table))
    grid[position] = table["value"]
    return grid.reshape(shape)


def _rows_grid(path, lines: list[str]) -> np.ndarray:
    """The grid of a trial CSV's ``lines`` (header first), parsed line by line; the first
    fault raises :class:`DataFormatError` naming its line or cell."""
    cells, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(f"{path}: expected 4 columns (line {lineno})")
        try:
            cells.append((int(parts[0]), int(parts[1]), int(parts[2])))
            values.append(float(parts[3]))
        except ValueError as err:
            raise DataFormatError(f"{path}: {err} (line {lineno})") from None
        if not math.isfinite(values[-1]):
            raise DataFormatError(f"{path}: non-finite value (line {lineno})")
    if not cells:
        raise DataFormatError(f"{path}: no data rows")
    if min(min(cell) for cell in cells) < 0:
        raise DataFormatError(f"{path}: negative trial/channel/time index")
    seen = set()
    for cell in cells:
        if cell in seen:
            raise DataFormatError(
                "{}: duplicate cell trial={} channel={} time={}".format(path, *cell))
        seen.add(cell)
    n_trials, n_channels, n_samples = (max(axis) + 1 for axis in zip(*cells))
    if len(seen) != n_trials * n_channels * n_samples:
        # Sorted cells follow the grid in C order up to the first one missing;
        # the grid is never allocated, so huge indices cost nothing.
        position = next((k for k, cell in enumerate(sorted(seen))
                         if cell != _grid_cell(k, n_channels, n_samples)), len(seen))
        raise DataFormatError("{}: missing cell trial={} channel={} time={}".format(
            path, *_grid_cell(position, n_channels, n_samples)))
    if n_samples < 2:
        raise DataFormatError(f"{path}: need at least 2 samples per trial, got {n_samples}")
    grid = np.empty((n_trials, n_channels, n_samples))
    grid[tuple(np.array(cells).T)] = values
    return grid


def _grid_cell(position: int, n_channels: int, n_samples: int) -> tuple[int, int, int]:
    """The (trial, channel, time) cell at a C-order position of the grid."""
    trial, rest = divmod(position, n_channels * n_samples)
    return (trial, *divmod(rest, n_samples))


def format_value(value) -> str:
    """Render a CSV cell: floats with 12 significant digits, others as str."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def format_column(values) -> list[str]:
    """:func:`format_value` of every cell of a column.  A float array is
    formatted in one pass over its ``tolist()``, by the same rule, and a list
    of ``str`` cells, which that rule leaves as they are, is returned as is."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return [f"{v:.12g}" for v in values.tolist()]
        values = values.tolist()
    if isinstance(values, list) and set(map(type, values)) <= {str}:
        return values
    return [format_value(v) for v in values]


def write_csv(path, header, columns):
    """Write a CSV file atomically with the package's fixed formatting.

    ``columns`` holds one sequence of cells per header field, all of one
    length; each is formatted by :func:`format_column`.
    """
    cells = [format_column(column) for column in columns]
    if len(cells) != len(header) or len({len(column) for column in cells}) > 1:
        raise DimensionError(
            f"{len(header)} header fields need as many columns of one length, got "
            f"lengths {[len(column) for column in cells]}")
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_text(path, text: str):
    """Write a small text report atomically."""
    _atomic_write(path, text.encode("utf-8"))


@dataclass(frozen=True)
class RunConfig:
    """Analysis settings shared by the CLI subcommands.

    Serialized as a flat ``key = value`` text file; ``#`` starts a comment
    and unknown keys are rejected.  ``bands`` is written as
    ``name:lo:hi[,name:lo:hi...]`` in Hz.
    """

    method: str = "shrinkage"
    window: int = DEFAULT_WINDOW
    span_min: int = MIN_AUTO_SPAN
    span_max: int | None = None
    max_order: int = PipelineOptions.max_order
    taper_max: int | None = None
    bands: tuple = DEFAULT_BANDS
    fdr_q: float = DEFAULT_FDR_Q
    seed: int = SimulationConfig.seed
    out_dir: str = "."

    def span_grid(self) -> tuple[int, ...] | None:
        """Explicit span grid from the bounds, or None for the automatic default.

        The automatic grid starts at ``MIN_AUTO_SPAN``, so another ``span_min``
        needs a ``span_max``.
        """
        if self.span_max is None:
            if self.span_min != MIN_AUTO_SPAN:
                raise DomainError(f"span_min {self.span_min} needs span_max")
            return None
        start = self.span_min if self.span_min % 2 == 1 else self.span_min + 1
        grid = tuple(range(start, self.span_max + 1, 2))
        if not grid:
            raise DomainError(f"empty span grid from bounds [{self.span_min}, {self.span_max}]")
        return grid

    def taper_grid(self) -> tuple[int, ...] | None:
        """Taper counts ``1 .. taper_max``, or None for the automatic default."""
        return None if self.taper_max is None else tuple(range(1, self.taper_max + 1))


_CONFIG_PARSERS = {
    "method": str,
    "window": int,
    "span_min": int,
    "span_max": int,
    "max_order": int,
    "taper_max": int,
    "bands": lambda text: parse_bands(text),
    "fdr_q": float,
    "seed": int,
    "out_dir": str,
}


def parse_bands(text: str) -> tuple:
    """Parse ``name:lo:hi[,name:lo:hi...]`` into band tuples."""
    bands = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise DataFormatError(f"band {chunk!r} is not name:lo:hi")
        try:
            bands.append((parts[0], float(parts[1]), float(parts[2])))
        except ValueError:
            raise DataFormatError(f"band {chunk!r} has non-numeric edges") from None
    if not bands:
        raise DataFormatError("no bands given")
    return tuple(bands)


def read_config(path) -> dict:
    """The parsed ``key = value`` entries of a configuration file, by :class:`RunConfig`
    field: ``dataclasses.replace(RunConfig(), **read_config(path))`` is the file's
    configuration.  An unknown key or a bad value raises :class:`DataFormatError`."""
    updates = {}
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: expected key = value (line {lineno})")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_PARSERS:
            raise DataFormatError(
                f"{path}: unknown key {key!r} (line {lineno}); valid keys: "
                f"{', '.join(sorted(_CONFIG_PARSERS))}")
        try:
            updates[key] = _CONFIG_PARSERS[key](value)
        except DataFormatError:
            raise
        except ValueError as err:
            raise DataFormatError(f"{path}: bad value for {key!r} (line {lineno}): {err}") \
                from None
    return updates
