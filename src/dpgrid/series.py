"""Timestamped measurement series: CSV ingest/export, synthesis, resampling.

The on-disk format is a plain CSV with header ``timestamp,value`` and
an optional third ``quality`` column.  Timestamps are ISO-8601 and
interpreted as UTC: a ``Z`` or ``+00:00`` suffix is allowed, any other
zone is an error, as are ``now``, ``today`` and a year that
datetime64[us] cannot hold.  Values are decimal floats, with an empty or
unparseable field marking a missing reading.  Lines starting with '#'
carry metadata (e.g. the config hash of the run that produced the
file) and are skipped on ingest.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .csvio import read_input, write_csv
from .seeds import derive_rng

_QUALITY_OK = {"", "ok", "good", "1"}
_NAT = np.datetime64("NaT", "us")
# The whole years datetime64[us] holds.  numpy parses 'now', 'today' and a
# year outside these without a word: as the time of the run, or wrapped.
_YEARS = range(-290307, 294247)
_YEAR = re.compile(r"\s*([-+]?\d+)")

# Household-style hourly consumption shape in kWh: overnight trough,
# morning ramp, evening peak.
DEFAULT_DAILY_PROFILE = np.array(
    [22.0, 20.0, 19.0, 18.0, 18.0, 19.0, 24.0, 30.0, 34.0, 32.0, 30.0, 30.0,
     31.0, 30.0, 29.0, 29.0, 31.0, 35.0, 42.0, 46.0, 44.0, 38.0, 30.0, 25.0]
)


@dataclass(frozen=True)
class MeasurementSeries:
    """Evenly or unevenly sampled telemetry readings.

    Attributes:
        timestamps: datetime64[us], strictly increasing, UTC.
        values: float64; NaN exactly at masked positions.
        mask: True where a reading is present.
    """

    timestamps: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps).astype("datetime64[us]")
        vals = np.asarray(self.values, dtype=np.float64).copy()
        mask = np.asarray(self.mask, dtype=bool)
        if not (len(ts) == len(vals) == len(mask)):
            raise ValueError("timestamps, values and mask must have equal length")
        if len(ts) > 1 and not np.all(ts[1:] > ts[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if not (np.isfinite(vals) | ~mask).all():
            raise ValueError("present values must be finite")
        vals[~mask] = np.nan
        for arr in (ts, vals, mask):
            arr.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mask", mask)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def complete(self) -> bool:
        return bool(self.mask.all())

    def with_values(self, values) -> "MeasurementSeries":
        """Same timestamps and mask, new readings."""
        return replace(self, values=np.asarray(values, dtype=np.float64))


def _strip_utc(text: str) -> str:
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        return cleaned[:-1]
    return cleaned[:-6] if cleaned.endswith("+00:00") else cleaned


def _or_missing(missing, parse, *args):
    try:
        return parse(*args)
    except (ValueError, Warning):  # numpy warns on a time zone
        return missing


def _in_years(text: str) -> bool:
    year = _YEAR.match(text)
    return year is not None and int(year[1]) in _YEARS


def _four_digit_years(stamps: list) -> bool:
    """Whether every stamp starts with a digit and has '-' fifth.

    Such a stamp's year has at most four digits, so it lies in _YEARS.
    The test reads the column as one byte array, so it takes only stamps
    of one width, as programs write them; for any other column it
    returns False and each stamp's year is read by itself.
    """
    n, width = len(stamps), len(stamps[0]) if stamps else 0
    text = ("\n".join(stamps) + "\n").encode()
    if width < 5 or len(text) != n * (width + 1) or text.count(b"\n") != n:
        return False
    chars = np.frombuffer(text, np.uint8).reshape(n, width + 1)
    first = chars[:, 0]
    return bool(np.all((first >= ord("0")) & (first <= ord("9")) & (chars[:, 4] == ord("-"))
                       & (chars[:, width] == ord("\n"))))


def _parse_timestamps(stamps: list) -> np.ndarray:
    """Parse a timestamp column whose first entry is data row 2.

    Plain stamps parse in one call.  numpy warns on a zone suffix or a
    trailing blank, so such a column is parsed again after _strip_utc;
    a zone other than UTC still warns and marks its stamp bad, as do
    'now', 'today' and a year outside _YEARS.  The first empty, NaT or
    bad stamp raises.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            texts = stamps
            ts = np.array(texts, dtype="datetime64[us]")
        except (ValueError, Warning):
            texts = [_strip_utc(text) for text in stamps]
            try:
                ts = np.array(texts, dtype="datetime64[us]")
            except (ValueError, Warning):
                ts = np.array([_or_missing(_NAT, np.datetime64, text, "us") for text in texts])
    if not _four_digit_years(texts):
        ts[~np.fromiter(map(_in_years, texts), bool, len(texts))] = _NAT
    bad = np.flatnonzero(np.isnat(ts))
    if bad.size:
        raise ValueError(f"row {bad[0] + 2}: bad timestamp {stamps[bad[0]]!r}")
    return ts


_HEADERS = (["timestamp", "value"], ["timestamp", "value", "quality"])


def _plain_columns(text: str):
    """The columns of the file's text by one split, or None if it needs csv.reader.

    Outside quotes csv.reader ends a row at '\\r\\n' as at '\\n', so '\\r\\n'
    becomes '\\n' first.  The text then qualifies when csv.reader would cut
    it at every ',' and '\\n' and drop only its leading '#' lines: no '"',
    lone '\\r' or NUL anywhere, a good header after the leading '#' lines,
    a body with no '#' in which every line has exactly width - 1 commas
    and then a newline (the last one may be missing), and no field longer
    than csv.field_size_limit().  Any other text returns None, so this
    never raises a format error.
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    end = text.find("\n", start)
    header = [c.strip().lower() for c in text[start:end].split(",")]
    body = text[end + 1:]
    limit = csv.field_size_limit()
    if end < 0 or header not in _HEADERS or not body or "#" in body or end > limit:
        return None
    if not body.endswith("\n"):
        body += "\n"
    width = len(header)
    codes = np.frombuffer(body.encode(), np.uint8)
    seps = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    # n newlines among n * width separators, each at a row's end, leave
    # exactly width - 1 commas on every row.
    if seps.size != body.count("\n") * width or np.any(codes[seps[width - 1::width]] != ord("\n")):
        return None
    if np.diff(seps, prepend=-1).max() > limit + 1:  # a field's UTF-8 bytes are at least its chars
        return None
    fields = body.replace("\n", ",").split(",")
    fields.pop()  # after the last newline
    return [fields[i::width] for i in range(width)]


def _csv_columns(fh):
    """The columns of the text stream fh by csv.reader, dropping blank and '#' rows.

    An empty file, a malformed header, no data rows, a row of the wrong
    width and any csv.Error (a field beyond csv.field_size_limit(), or a
    NUL before Python 3.11) raise ValueError; a row error names its row.
    """
    rows = []
    try:
        rows.extend(r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#"))
    except csv.Error as exc:
        raise ValueError(f"row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise ValueError("empty file")
    header = [c.strip().lower() for c in rows[0]]
    if header not in _HEADERS:
        raise ValueError("malformed header: expected 'timestamp,value[,quality]'")
    data = rows[1:]
    if not data:
        raise ValueError("no data rows")
    bad_width = np.flatnonzero(np.fromiter(map(len, data), np.intp, len(data)) != len(header))
    if bad_width.size:
        first = bad_width[0]
        _parse_timestamps([r[0] for r in data[:first]])  # a bad stamp above it comes first
        raise ValueError(f"row {first + 2}: expected {len(header)} fields, got {len(data[first])}")
    return list(zip(*data))


def ingest_csv(path) -> MeasurementSeries:
    """Load a measurement CSV column by column.

    Rows whose value field does not parse as a float become
    masked-missing readings; a quality field outside {'', ok, good, 1}
    masks the row as well.  A malformed header or an empty file is an
    error, as are a row of the wrong width, an empty, NaT or bad
    timestamp (see the module docstring), a timestamp not after the one
    above and a field longer than csv.field_size_limit(); each row error
    names the first bad row, and each of these errors starts with the
    file's path ("<path>: row 3: bad timestamp 'NaT'").

    The file's bytes are read once and decoded as open(path, newline="")
    decodes them.  A plain file, with '\\n' or '\\r\\n' line ends, no
    quoting, no NUL and no blank or '#' line after its header, is cut
    into columns by one split; any other file goes through csv.reader.
    Both paths give the same series and the same errors.  A file that
    does not decode at once goes through csv.reader too, which decodes
    it chunk by chunk, so its decode error counts the bad byte from the
    chunk it reads, as reading the file itself would.
    """
    return _ingest(path)[0]


def _ingest(path) -> tuple[MeasurementSeries, str]:
    """ingest_csv's series and the sha256 hexdigest of the bytes it was parsed from."""
    stream, digest = read_input(path, newline="")
    try:
        text = stream.read()
    except UnicodeDecodeError:
        text = None
        stream.seek(0)
    try:
        columns = None if text is None else _plain_columns(text)
        if columns is None:
            columns = _csv_columns(stream if text is None else io.StringIO(text, newline=""))
        stamps, texts = columns[:2]
        timestamps = _parse_timestamps(stamps)
        back = np.flatnonzero(timestamps[1:] <= timestamps[:-1]) + 1
        if back.size:
            i = back[0]
            raise ValueError(f"row {i + 2}: timestamps must be strictly increasing "
                             f"({stamps[i]!r} is not after {stamps[i - 1]!r})")
    except ValueError as exc:  # a decode error too
        raise ValueError(f"{path}: {exc}") from None
    n = len(stamps)
    try:
        values = np.fromiter(map(float, texts), np.float64, n)
    except ValueError:
        values = np.array([_or_missing(math.nan, float, text) for text in texts])
    mask = np.isfinite(values)
    if len(columns) == 3:
        quality = columns[2]
        ok = {q for q in set(quality) if q.strip().lower() in _QUALITY_OK}
        mask &= np.fromiter(map(ok.__contains__, quality), bool, n)
    return MeasurementSeries(timestamps=timestamps, values=values, mask=mask), digest


def export_csv(series: MeasurementSeries, path, metadata: dict | None = None) -> None:
    """Write the ingest format, metadata as '# key=value' lines; round-trips bit-exactly."""
    ts = series.timestamps
    whole_seconds = bool(np.all(ts == ts.astype("datetime64[s]").astype("datetime64[us]")))
    stamps = np.datetime_as_string(ts, unit="s" if whole_seconds else "us").tolist()
    values = (repr(v) if present else ""
              for v, present in zip(series.values.tolist(), series.mask.tolist()))
    write_csv(path, ("timestamp", "value"), (stamps, values), metadata)


def resample(series: MeasurementSeries, period: str, how: str = "mean") -> MeasurementSeries:
    """Aggregate onto a continuous hourly or daily grid.

    Buckets with no present readings come back masked; the grid spans
    the full observed range so gaps stay visible.  A bucket whose sum
    overflows is refused under how="sum" and averaged at a smaller
    scale under how="mean".
    """
    if period not in ("hour", "day"):
        raise ValueError(f"period must be 'hour' or 'day', got {period!r}")
    if how not in ("mean", "sum"):
        raise ValueError(f"how must be 'mean' or 'sum', got {how!r}")
    if len(series) == 0:
        raise ValueError("cannot resample an empty series")
    unit = "datetime64[h]" if period == "hour" else "datetime64[D]"
    floors = series.timestamps.astype(unit)
    grid = np.arange(floors[0], floors[-1] + 1)
    n = len(grid)
    # Each reading's bucket, in floors' own copy; a missing reading's is bucket n, dropped below.
    idx = floors.view(np.int64)
    idx -= idx[0]
    idx[~series.mask] = n
    # bincount adds each bucket's readings left to right from 0.0, and never warns.
    sums = np.bincount(idx, weights=series.values, minlength=n + 1)[:n]
    counts = np.bincount(idx, minlength=n + 1)[:n]
    over = ~np.isfinite(sums)
    if how == "sum" and over.any():
        raise ValueError(f"the sum of the readings in the {period} from {grid[over][0]} overflows")
    out = sums / np.maximum(counts, 1) if how == "mean" else sums
    if over.any():
        # A mean whose sum overflows takes gridsim._mean's rule: the bucket's readings scaled by
        # 2**-ceil(log2 n), averaged and scaled back, so a representable mean is kept.
        scale = np.exp2(np.ceil(np.log2(np.maximum(counts, 1))))
        scaled = np.bincount(idx, weights=series.values / np.append(scale, 1.0)[idx])
        out[over] = scaled[:n][over] / counts[over] * scale[over]
    # The series stores the grid in microseconds, and NaN in each empty bucket.
    return MeasurementSeries(timestamps=grid, values=out, mask=counts > 0)


def _weekday(days_since_epoch: np.ndarray) -> np.ndarray:
    # 1970-01-01 was a Thursday; Monday == 0.
    return (days_since_epoch + 3) % 7


def synth_pmu(
    days: int,
    profile: np.ndarray | None = None,
    noise_level: float = 0.05,
    missing_fraction: float = 0.0,
    seed: int = 0,
    weekend_factor: float = 1.12,
    start: str = "2015-01-01",
) -> MeasurementSeries:
    """Deterministic synthetic hourly consumption.

    Each hour h of each day takes profile[h], scaled by weekend_factor
    on Saturdays and Sundays, times multiplicative jitter
    (1 + noise_level * N(0, 1)).  A fraction of readings is dropped as
    missing.  noise_level should stay well below 1 so values keep the
    profile's sign.  start is an ISO date; as on ingest, a zone other
    than a 'Z' or '+00:00' suffix, 'now', 'today' and a year
    datetime64[us] cannot hold are rejected, and so are a start with a
    time of day other than midnight and a start and days whose last
    hour datetime64[us] cannot hold.  A profile or weekend_factor that
    is not finite, or whose product is not, is rejected by name.
    """
    if days <= 0:
        raise ValueError(f"days must be positive, got {days}")
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError(f"missing_fraction must be in [0, 1), got {missing_fraction}")
    if not math.isfinite(noise_level):
        raise ValueError(f"noise_level must be finite, got {noise_level}")
    if noise_level < 0.0:
        raise ValueError(f"noise_level must be non-negative, got {noise_level}")
    if not _in_years(start):
        raise ValueError(f"start must be a date in datetime64[us]'s years, got {start!r}")
    base_profile = DEFAULT_DAILY_PROFILE if profile is None else np.asarray(profile, dtype=float)
    if base_profile.shape != (24,):
        raise ValueError(f"profile must have 24 hourly entries, got shape {base_profile.shape}")
    finite = np.isfinite(base_profile)
    if not finite.all():
        hour = int(np.argmin(finite))
        raise ValueError(f"profile must be finite, got {float(base_profile[hour])} at hour {hour}")
    if not math.isfinite(weekend_factor):
        raise ValueError(f"weekend_factor must be finite, got {weekend_factor}")
    with np.errstate(over="ignore"):
        if not np.isfinite(base_profile * weekend_factor).all():
            raise ValueError(f"weekend_factor={weekend_factor!r} overflows the profile on a "
                             f"weekend day")

    try:
        first = _parse_timestamps([start])[0]  # the zones ingest takes: none, 'Z' or '+00:00'
    except ValueError:
        raise ValueError(f"start must be an ISO-8601 date in UTC, got {start!r}") from None
    start_day = first.astype("datetime64[D]")
    if first != start_day:
        raise ValueError(f"start must be a date at midnight, got {start!r}")
    first_us = int(first.astype(np.int64))
    if first_us + (days * 24 - 1) * 3_600_000_000 > np.iinfo(np.int64).max:
        raise ValueError(f"start {start!r} plus days={days} runs past datetime64[us]'s last stamp")
    # Each full-size array is built in place: exact integer stamps, then one (days, 24) product
    # profile[h] * factor[d], then the jitter multiplied in; the draws keep their order.
    n = days * 24
    stamps = np.arange(n, dtype=np.int64)
    stamps *= 3_600_000_000
    stamps += first_us
    timestamps = stamps.view("datetime64[us]")
    factor = np.where(_weekday(np.arange(days) + start_day.astype(np.int64)) >= 5,
                      weekend_factor, 1.0)
    values = np.multiply.outer(factor, base_profile).reshape(n)

    gen = derive_rng(seed, "synth-pmu")
    draws = gen.standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):
        draws *= noise_level
        draws += 1.0
        values *= draws
    mask = gen.random(out=draws) >= missing_fraction
    del draws
    ok = np.isfinite(values) | ~mask  # the series puts NaN where a reading is missing
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"noise_level={noise_level!r} overflows the reading at "
                         f"{np.datetime_as_string(timestamps[i], unit='s')}")
    return MeasurementSeries(timestamps=timestamps, values=values, mask=mask)
