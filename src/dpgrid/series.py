"""Timestamped measurement series: CSV ingest/export, synthesis, resampling.

The on-disk format is a plain CSV with header ``timestamp,value`` and
an optional third ``quality`` column.  Timestamps are ISO-8601 and
interpreted as UTC; values are decimal floats, with an empty or
unparseable field marking a missing reading.  Lines starting with '#'
carry metadata (e.g. the config hash of the run that produced the
file) and are skipped on ingest.  write_csv writes every CSV output.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .seeds import derive_rng

CHANNELS = ("power_kwh", "voltage")

_QUALITY_OK = {"", "ok", "good", "1"}
_NAT = np.datetime64("NaT", "us")

# Household-style hourly consumption shape in kWh: overnight trough,
# morning ramp, evening peak.
DEFAULT_DAILY_PROFILE = np.array(
    [22.0, 20.0, 19.0, 18.0, 18.0, 19.0, 24.0, 30.0, 34.0, 32.0, 30.0, 30.0,
     31.0, 30.0, 29.0, 29.0, 31.0, 35.0, 42.0, 46.0, 44.0, 38.0, 30.0, 25.0]
)


@dataclass(frozen=True)
class MeasurementSeries:
    """Evenly or unevenly sampled readings from one telemetry channel.

    Attributes:
        timestamps: datetime64[us], strictly increasing, UTC.
        values: float64; NaN exactly at masked positions.
        mask: True where a reading is present.
        channel: one of CHANNELS.
    """

    timestamps: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    channel: str = "power_kwh"

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps).astype("datetime64[us]")
        vals = np.asarray(self.values, dtype=np.float64).copy()
        mask = np.asarray(self.mask, dtype=bool)
        if not (len(ts) == len(vals) == len(mask)):
            raise ValueError("timestamps, values and mask must have equal length")
        if len(ts) > 1 and not np.all(ts[1:] > ts[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(vals[mask])):
            raise ValueError("present values must be finite")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}; expected one of {CHANNELS}")
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

    def present_values(self) -> np.ndarray:
        return self.values[self.mask]

    def with_values(self, values, mask=None) -> "MeasurementSeries":
        """Same timestamps and channel, new readings."""
        new_mask = self.mask if mask is None else mask
        return replace(self, values=np.asarray(values, dtype=np.float64), mask=new_mask)


def _strip_utc(text: str) -> str:
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        return cleaned[:-1]
    return cleaned[:-6] if cleaned.endswith("+00:00") else cleaned


def _or_missing(missing, parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return missing


def _parse_timestamps(stamps: list) -> np.ndarray:
    """Parse a timestamp column whose first entry is data row 2.

    Plain stamps parse in one call.  numpy warns on a zone suffix or a
    trailing blank, so such a column is parsed again after _strip_utc.
    The first empty, NaT or unparseable stamp raises.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts = np.array(stamps, dtype="datetime64[us]")
    except (ValueError, Warning):
        cleaned = [_strip_utc(text) for text in stamps]
        try:
            ts = np.array(cleaned, dtype="datetime64[us]")
        except ValueError:
            ts = np.array([_or_missing(_NAT, np.datetime64, text, "us") for text in cleaned])
    bad = np.flatnonzero(np.isnat(ts))
    if bad.size:
        raise ValueError(f"row {bad[0] + 2}: bad timestamp {stamps[bad[0]]!r}")
    return ts


def ingest_csv(path, channel: str = "power_kwh") -> MeasurementSeries:
    """Load a measurement CSV column by column.

    Rows whose value field does not parse as a float become
    masked-missing readings; a quality field outside {'', ok, good, 1}
    masks the row as well.  A malformed header or an empty file is an
    error, as are a row of the wrong width, an empty, NaT or bad
    timestamp and a timestamp not after the one above; each row error
    names the first bad row.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"empty file: {path}")
    header = [c.strip().lower() for c in rows[0]]
    if header not in (["timestamp", "value"], ["timestamp", "value", "quality"]):
        raise ValueError("malformed header: expected 'timestamp,value[,quality]'")
    data = rows[1:]
    if not data:
        raise ValueError(f"no data rows in {path}")
    n = len(data)

    bad_width = np.flatnonzero(np.fromiter(map(len, data), np.intp, n) != len(header))
    if bad_width.size:
        first = bad_width[0]
        _parse_timestamps([r[0] for r in data[:first]])  # a bad stamp above it comes first
        raise ValueError(f"row {first + 2}: expected {len(header)} fields, got {len(data[first])}")
    stamps = [r[0] for r in data]
    timestamps = _parse_timestamps(stamps)
    back = np.flatnonzero(timestamps[1:] <= timestamps[:-1]) + 1
    if back.size:
        i = back[0]
        raise ValueError(
            f"row {i + 2}: timestamps must be strictly increasing "
            f"({stamps[i]!r} is not after {stamps[i - 1]!r})"
        )

    texts = [r[1] for r in data]
    try:
        values = np.fromiter(map(float, texts), np.float64, n)
    except ValueError:
        values = np.array([_or_missing(math.nan, float, text) for text in texts])
    mask = np.isfinite(values)
    if len(header) == 3:
        quality = [r[2] for r in data]
        ok = {q for q in set(quality) if q.strip().lower() in _QUALITY_OK}
        mask &= np.fromiter(map(ok.__contains__, quality), bool, n)
    return MeasurementSeries(timestamps=timestamps, values=values, mask=mask, channel=channel)


def write_csv(path, header, rows, metadata: dict | None = None) -> None:
    """Write '# key=value' metadata lines, a header, then rows.

    csv.writer writes floats by repr, so they read back bit-exactly.
    """
    with open(path, "w", newline="") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_csv(series: MeasurementSeries, path, metadata: dict | None = None) -> None:
    """Write a series in the ingest format; round-trips bit-exactly.

    metadata entries become '# key=value' comment lines above the
    header.
    """
    ts = series.timestamps
    whole_seconds = bool(np.all(ts == ts.astype("datetime64[s]").astype("datetime64[us]")))
    stamps = np.datetime_as_string(ts, unit="s" if whole_seconds else "us").tolist()
    rows = (
        (stamp, value if present else "")
        for stamp, value, present in zip(stamps, series.values.tolist(), series.mask.tolist())
    )
    write_csv(path, ("timestamp", "value"), rows, metadata)


def resample(series: MeasurementSeries, period: str, how: str = "mean") -> MeasurementSeries:
    """Aggregate onto a continuous hourly or daily grid.

    Buckets with no present readings come back masked; the grid spans
    the full observed range so gaps stay visible.
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
    idx = (floors - grid[0]).astype(np.int64)
    sums = np.zeros(len(grid))
    counts = np.zeros(len(grid), dtype=np.int64)
    np.add.at(sums, idx[series.mask], series.values[series.mask])
    np.add.at(counts, idx[series.mask], 1)
    present = counts > 0
    out = np.full(len(grid), np.nan)
    if how == "mean":
        out[present] = sums[present] / counts[present]
    else:
        out[present] = sums[present]
    return MeasurementSeries(
        timestamps=grid.astype("datetime64[us]"),
        values=out,
        mask=present,
        channel=series.channel,
    )


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
    channel: str = "power_kwh",
) -> MeasurementSeries:
    """Deterministic synthetic hourly consumption.

    Each hour h of each day takes profile[h], scaled by weekend_factor
    on Saturdays and Sundays, times multiplicative jitter
    (1 + noise_level * N(0, 1)).  A fraction of readings is dropped as
    missing.  noise_level should stay well below 1 so values keep the
    profile's sign.
    """
    if days <= 0:
        raise ValueError(f"days must be positive, got {days}")
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError(f"missing_fraction must be in [0, 1), got {missing_fraction}")
    if noise_level < 0.0:
        raise ValueError(f"noise_level must be non-negative, got {noise_level}")
    base_profile = DEFAULT_DAILY_PROFILE if profile is None else np.asarray(profile, dtype=float)
    if base_profile.shape != (24,):
        raise ValueError(f"profile must have 24 hourly entries, got shape {base_profile.shape}")

    start_day = np.datetime64(start, "D")
    timestamps = (start_day.astype("datetime64[h]") + np.arange(days * 24)).astype("datetime64[us]")
    day_index = np.repeat(np.arange(days), 24) + start_day.astype(np.int64)
    hour_of_day = np.tile(np.arange(24), days)

    base = base_profile[hour_of_day]
    is_weekend = _weekday(day_index) >= 5
    base = base * np.where(is_weekend, weekend_factor, 1.0)

    gen = derive_rng(seed, "synth-pmu")
    jitter = 1.0 + noise_level * gen.standard_normal(days * 24)
    values = base * jitter
    mask = gen.random(days * 24) >= missing_fraction
    values = np.where(mask, values, np.nan)
    return MeasurementSeries(timestamps=timestamps, values=values, mask=mask, channel=channel)
