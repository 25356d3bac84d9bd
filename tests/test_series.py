import csv
import math
import re
import sys
import tracemalloc
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ingest_csv_by_rows, resample_by_bucket, synth_by_expressions

from dpgrid import series
from dpgrid.series import (
    DEFAULT_DAILY_PROFILE,
    MeasurementSeries,
    export_csv,
    ingest_csv,
    resample,
    synth_pmu,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------------- ingest

def test_ingest_basic(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value\n"
        "2018-10-14T00:00:00,1.5\n"
        "2018-10-14T00:00:01,2.5\n"
        "2018-10-14T00:00:02,3.5\n",
    )
    s = ingest_csv(path)
    assert len(s) == 3
    assert s.complete
    assert list(s.values) == [1.5, 2.5, 3.5]
    assert s.timestamps[0] == np.datetime64("2018-10-14T00:00:00", "us")


def test_ingest_masks_unparseable_and_blank_values(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value\n"
        "2018-10-14T00:00:00,1.5\n"
        "2018-10-14T00:00:01,\n"
        "2018-10-14T00:00:02,oops\n"
        "2018-10-14T00:00:03,nan\n"
        "2018-10-14T00:00:04,4.0\n",
    )
    s = ingest_csv(path)
    assert list(s.mask) == [True, False, False, False, True]
    assert np.isnan(s.values[1])


def test_ingest_quality_column(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value,quality\n"
        "2018-10-14T00:00:00,1.0,ok\n"
        "2018-10-14T00:00:01,2.0,bad\n"
        "2018-10-14T00:00:02,3.0,\n",
    )
    s = ingest_csv(path)
    assert list(s.mask) == [True, False, True]


def test_ingest_accepts_utc_suffixes(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value\n"
        "2018-10-14T00:00:00Z,1.0\n"
        "2018-10-14T01:00:00+00:00,2.0\n",
    )
    s = ingest_csv(path)
    assert s.timestamps[1] - s.timestamps[0] == np.timedelta64(3600, "s")


def test_ingest_skips_comment_lines(tmp_path):
    path = _write(
        tmp_path,
        "# config_hash=abc123\n"
        "timestamp,value\n"
        "2018-10-14T00:00:00,1.0\n",
    )
    assert len(ingest_csv(path)) == 1


def test_ingest_malformed_header(tmp_path):
    path = _write(tmp_path, "time,reading\n2018-10-14T00:00:00,1.0\n")
    with pytest.raises(ValueError, match="malformed header"):
        ingest_csv(path)


def test_ingest_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(ValueError, match="empty file"):
        ingest_csv(path)


def test_ingest_header_only(tmp_path):
    path = _write(tmp_path, "timestamp,value\n")
    with pytest.raises(ValueError, match="no data rows"):
        ingest_csv(path)


def test_ingest_bad_timestamp(tmp_path):
    path = _write(tmp_path, "timestamp,value\nnot-a-time,1.0\n")
    with pytest.raises(ValueError, match="bad timestamp"):
        ingest_csv(path)


def test_ingest_non_increasing_timestamps(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value\n"
        "2018-10-14T00:00:01,1.0\n"
        "2018-10-14T00:00:01,2.0\n",
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        ingest_csv(path)


def test_ingest_names_the_first_non_increasing_row(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value\n"
        "# a comment row is not counted\n"
        "2018-10-14T00:00:00,1.0\n"
        "2018-10-14T00:00:02,2.0\n"
        "2018-10-14T00:00:01,3.0\n"
        "2018-10-14T00:00:00,4.0\n",
    )
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row 4: timestamps must be "
                                         "strictly increasing"):
        ingest_csv(path)


def test_ingest_rejects_empty_timestamp(tmp_path):
    path = _write(tmp_path, "timestamp,value\n,1.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row 2: bad timestamp ''$"):
        ingest_csv(path)


def test_ingest_rejects_nat_timestamp_mid_file(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value\n"
        "2018-10-14T00:00:00,1.0\n"
        "NaT,2.0\n"
        "2018-10-14T00:00:02,3.0\n",
    )
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row 3: bad timestamp 'NaT'$"):
        ingest_csv(path)


def test_ingest_reports_the_first_bad_row_of_either_kind(tmp_path):
    bad_stamp_first = "timestamp,value\nsoon,1.0\n2018-10-14T00:00:01\n"
    short_row_first = "timestamp,value\n2018-10-14T00:00:01\nsoon,1.0\n"
    with pytest.raises(ValueError, match="row 2: bad timestamp 'soon'"):
        ingest_csv(_write(tmp_path, bad_stamp_first))
    with pytest.raises(ValueError, match="row 2: expected 2 fields, got 1"):
        ingest_csv(_write(tmp_path, short_row_first))


_STAMP_TEXTS = st.tuples(
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "Z", "+00:00"]), st.sampled_from(["", " "])
)
_VALUE_TEXTS = st.one_of(
    st.sampled_from(["", "oops", "nan", "-nan", "inf", "-inf", "1_000", " 1.5 ", "1e400"]),
    st.floats(width=64).map(repr),
)
_QUALITY_TEXTS = st.sampled_from(["", "ok", "OK", " good ", "1", "bad", "0", "Good\t"])
# Stamps outside ISO-8601 UTC, which ingest must reject.
_BAD_STAMPS = st.sampled_from([
    "2018-13-01", "", "NaT", "now", "Today", "2018-10-14T00:00+01:00", " 2018-10-14T00:00-05:00",
    "300000-01-01", "-300000-01-01T00:00Z", "20181014",
])
# Lines csv.reader drops below the header: the plain split would not.
_INTERRUPTIONS = st.sampled_from(["# note", "  #x,y", ""])


@st.composite
def measurement_csv(draw, plain=None):
    """CSV text in the ingest format, mostly valid, always increasing.

    Stamps carry UTC suffixes and blank padding, and '#' metadata lines
    may sit above the header.  Lines end in '\\n' or '\\r\\n'.  A plain
    file (plain=True) is one that ingest_csv cuts by one split: its last
    line end at times missing, no quotes, and every row of the header's
    width.  Any other file also has quoted values, '#' and blank lines
    between the data rows and rows of the wrong width, at random, and
    surely one lone '\\r' line end or one '#' or blank line below the
    header, so it goes through csv.reader.  plain=None draws either kind.

    Non-increasing rows are never drawn: their error changed on purpose
    (it now names its row) and the row-by-row reference gives the old
    one.  A bad stamp (_BAD_STAMPS) or a row of the wrong width is drawn
    now and then, so error messages are compared too.
    """
    if plain is None:
        plain = draw(st.booleans())
    quality = draw(st.booleans())
    header = draw(st.sampled_from(["timestamp,value", " Timestamp , VALUE "]))
    lines = draw(st.lists(st.sampled_from(["# config_hash=0123abcd", "#", "#a,b,c"]), max_size=2))
    lines.append(header + (",quality" if quality else ""))
    below_header = len(lines)
    micros = 0
    for _ in range(draw(st.integers(1, 12))):
        if not plain and draw(st.integers(0, 4)) == 0:
            lines.append(draw(_INTERRUPTIONS))
        micros += draw(st.sampled_from([1, 250_000, 1_000_000, 3_600_000_000]))
        stamp = (datetime(2018, 10, 14) + timedelta(microseconds=micros)).isoformat()
        lead, zone, trail = draw(_STAMP_TEXTS)
        quote = "" if plain else draw(st.sampled_from(["", '"']))
        fields = [lead + stamp + zone + trail, quote + draw(_VALUE_TEXTS) + quote]
        if quality:
            fields.append(draw(_QUALITY_TEXTS))
        fault = draw(st.integers(0, 60))
        if fault == 0:
            fields[0] = draw(_BAD_STAMPS)
        elif fault == 1 and not plain:
            fields.pop()
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if plain:
        ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    elif draw(st.booleans()):
        # Not before a blank line, whose '\n' would make it '\r\n'.
        ends[draw(st.sampled_from([i for i, line in enumerate(lines[1:] + ["end"]) if line]))] = "\r"
    else:
        at = draw(st.integers(below_header, len(lines)))
        lines.insert(at, draw(_INTERRUPTIONS))
        ends.insert(at, "\n")
    return "".join(map(str.__add__, lines, ends))


def _ingest_outcome(reader, path):
    try:
        s = reader(path)
    except ValueError as exc:
        return str(exc)
    return s.timestamps.tobytes(), s.values.tobytes(), s.mask.tobytes()


def _ingest_path(path):
    """Which way ingest_csv cuts the file: 'split' or 'csv.reader'."""
    with mock.patch.object(series, "_csv_columns", wraps=series._csv_columns) as spy:
        try:
            ingest_csv(path)
        except ValueError:
            pass
    return "csv.reader" if spy.called else "split"


@settings(derandomize=True, max_examples=150)
@given(text=measurement_csv())
def test_ingest_matches_row_by_row_reference(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("eq") / "m.csv"
    path.write_bytes(text.encode())
    assert _ingest_outcome(ingest_csv, path) == _ingest_outcome(ingest_csv_by_rows, path)


@pytest.mark.parametrize("plain, path_taken", [(True, "split"), (False, "csv.reader")],
                         ids=["plain", "needs-csv-reader"])
@settings(derandomize=True, max_examples=40)
@given(data=st.data())
def test_each_strategy_branch_reaches_its_path(plain, path_taken, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("branch") / "m.csv"
    path.write_bytes(data.draw(measurement_csv(plain)).encode())
    assert _ingest_path(path) == path_taken


_PLAIN = "timestamp,value\n2018-10-14T00:00:00,1.5\n2018-10-14T01:00:00,2.5\n"
_LIMIT = csv.field_size_limit()
# csv.reader takes a NUL from Python 3.11 on; before, it is a row error.
_NUL_ERROR = None if sys.version_info >= (3, 11) else "{path}: row 4: line contains NUL"


@pytest.mark.parametrize("text, path_taken, error", [
    ("\n" + _PLAIN, "csv.reader", None),
    ("  # c\n" + _PLAIN, "csv.reader", None),
    ('# note,"spans\n' + _PLAIN.rstrip("\n") + '"\ntimestamp,value\n2018-10-14T05:00:00,9.0\n',
     "csv.reader", None),
    (_PLAIN + "# note,x\n2018-10-14T02:00:00,3.5\n", "csv.reader", None),
    ("timestamp,value,quality\n2018-10-14T00:00:00,1.5\r2018-10-14T01:00:00,ok\n", "csv.reader",
     "{path}: row 2: expected 3 fields, got 2"),
    (_PLAIN + "2018-10-14T02:00:00,3.5,x\n2018-10-14T03:00:00,4.5\n", "csv.reader",
     "{path}: row 4: expected 2 fields, got 3"),
    (_PLAIN + "2018-10-14T02:00:00,3.5,x\n2018-10-14T03:00:00\n", "csv.reader",
     "{path}: row 4: expected 2 fields, got 3"),
    (_PLAIN + "2018-10-14T02:00:00,3.5\0\n", "csv.reader", _NUL_ERROR),
    (_PLAIN.replace("\n", "\r\n").replace(",1.5\r\n", ",1.5\r\r\n"), "csv.reader", None),
    (_PLAIN + "2018-10-14T02:00:00," + "1" * (_LIMIT + 1) + "\n", "csv.reader",
     f"{{path}}: row 4: field larger than field limit ({_LIMIT})"),
    ("# " + "x" * _LIMIT + "\n" + _PLAIN, "csv.reader",
     f"{{path}}: row 1: field larger than field limit ({_LIMIT})"),
    (_PLAIN + "2018-10-14T02:00:00," + "1" * _LIMIT + "\n", "split", None),
    ("# config_hash=abc\n#\n" + _PLAIN, "split", None),
    (_PLAIN.rstrip("\n"), "split", None),
    ("# config_hash=abc\n" + _PLAIN.replace("\n", "\r\n"), "split", None),
    (_PLAIN.replace("\n", "\r\n").rstrip("\r\n"), "split", None),
    ("# config_hash=abc\n#", "csv.reader", "{path}: empty file"),
], ids=["blank-line-before-header", "indented-comment-before-header",
        "quoted-metadata-spans-newline", "comment-row-below-header", "lone-cr-line-end",
        "wrong-width-row", "widths-that-cancel", "nul-in-value", "cr-before-crlf",
        "oversized-field", "oversized-metadata-field", "field-at-limit", "leading-metadata",
        "no-trailing-newline", "crlf-rows-as-written", "crlf-no-trailing-newline",
        "only-metadata-no-trailing-newline"])
def test_ingest_path_and_result(tmp_path, text, path_taken, error):
    path = _write(tmp_path, text)
    assert _ingest_path(path) == path_taken
    outcome = _ingest_outcome(ingest_csv, path)
    assert outcome == _ingest_outcome(ingest_csv_by_rows, path)
    if error:
        assert outcome == error.format(path=path)
    else:
        assert isinstance(outcome, tuple)


def test_undecodable_file_fails_as_csv_reader_reports_it(tmp_path):
    # One read() counts the bad byte from the file's start, csv.reader's
    # line reads from the start of the chunk they decode: the messages differ.
    stamps = np.datetime_as_string(np.datetime64("2018-01-01T00", "h") + np.arange(400), unit="s")
    rows = "".join(f"{stamp},1.5\n" for stamp in stamps)
    path = tmp_path / "m.csv"
    path.write_bytes(f"timestamp,value\n{rows}".encode() + b"2019-01-01T00:00:00,\xff\n")
    outcome = _ingest_outcome(ingest_csv, path)
    assert "can't decode byte 0xff" in outcome
    assert outcome == _ingest_outcome(ingest_csv_by_rows, path)


# --------------------------------------------------------------- round trip

def test_csv_round_trip_bit_exact(tmp_path):
    s = synth_pmu(days=3, missing_fraction=0.2, seed=9)
    path = tmp_path / "out.csv"
    export_csv(s, path, metadata={"config_hash": "deadbeef"})
    back = ingest_csv(path)
    assert np.array_equal(back.timestamps, s.timestamps)
    assert np.array_equal(back.mask, s.mask)
    assert np.array_equal(back.values[back.mask], s.values[s.mask])  # bitwise
    assert "config_hash=deadbeef" in path.read_text().splitlines()[0]


@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=40
    )
)
def test_csv_round_trip_property(values, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rt")
    ts = np.datetime64("2020-01-01T00:00:00", "us") + np.arange(len(values)).astype(
        "timedelta64[s]"
    )
    s = MeasurementSeries(ts, np.array(values), np.ones(len(values), dtype=bool))
    path = tmp / "x.csv"
    export_csv(s, path)
    back = ingest_csv(path)
    assert np.array_equal(back.values, s.values)


def test_subsecond_timestamps_round_trip(tmp_path):
    ts = np.array(
        ["2020-01-01T00:00:00.020000", "2020-01-01T00:00:00.040000"], dtype="datetime64[us]"
    )
    s = MeasurementSeries(ts, np.array([1.0, 2.0]), np.array([True, True]))
    path = tmp_path / "sub.csv"
    export_csv(s, path)
    assert np.array_equal(ingest_csv(path).timestamps, ts)


# ---------------------------------------------------------------- validation

def test_series_validation():
    ts = np.array(["2020-01-01T00", "2020-01-01T01"], dtype="datetime64[us]")
    with pytest.raises(ValueError, match="equal length"):
        MeasurementSeries(ts, np.array([1.0]), np.array([True]))
    with pytest.raises(ValueError, match="strictly increasing"):
        MeasurementSeries(ts[::-1].copy(), np.array([1.0, 2.0]), np.array([True, True]))
    with pytest.raises(ValueError, match="finite"):
        MeasurementSeries(ts, np.array([1.0, np.inf]), np.array([True, True]))


def test_series_arrays_read_only():
    s = synth_pmu(days=1, seed=0)
    with pytest.raises(ValueError):
        s.values[0] = 99.0


# ----------------------------------------------------------------- resample

def test_hourly_mean_matches_direct_average(tmp_path):
    gen = np.random.default_rng(4)
    values = gen.normal(30.0, 5.0, size=3600)
    ts = np.datetime64("2020-01-01T00:00:00", "us") + np.arange(3600).astype("timedelta64[s]")
    s = MeasurementSeries(ts, values, np.ones(3600, dtype=bool))
    hourly = resample(s, "hour")
    assert len(hourly) == 1
    assert hourly.values[0] == pytest.approx(values.mean(), rel=1e-12)


def test_resample_marks_empty_buckets():
    ts = np.array(["2020-01-01T00:30", "2020-01-01T02:30"], dtype="datetime64[us]")
    s = MeasurementSeries(ts, np.array([1.0, 3.0]), np.array([True, True]))
    hourly = resample(s, "hour")
    assert len(hourly) == 3
    assert list(hourly.mask) == [True, False, True]


def test_resample_sum_vs_mean():
    ts = np.datetime64("2020-01-01T00:00", "us") + np.arange(4).astype("timedelta64[m]") * 15
    s = MeasurementSeries(ts, np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=bool))
    assert resample(s, "hour", how="sum").values[0] == 10.0
    assert resample(s, "hour", how="mean").values[0] == 2.5


def test_resample_daily():
    s = synth_pmu(days=4, seed=1)
    daily = resample(s, "day")
    assert len(daily) == 4
    assert daily.values[0] == pytest.approx(s.values[:24].mean(), rel=1e-12)


@st.composite
def sparse_series(draw):
    """Up to 40 readings, seconds to days apart, of magnitude 1e-300 to 1e300 and either sign
    (no bucket sum overflows), each present or missing: all missing included."""
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.one_of(st.integers(1, 1200), st.integers(1, 3 * 86400)),
                         min_size=n - 1, max_size=n - 1))
    offsets = np.cumsum([0, *gaps]).astype("timedelta64[s]")
    magnitudes = draw(st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    values = np.where(mask, np.multiply(magnitudes, signs), np.nan)
    return MeasurementSeries(np.datetime64("2020-01-01T00:00:00", "us") + offsets, values, mask)


@settings(derandomize=True, max_examples=200)
@given(s=sparse_series(), period=st.sampled_from(["hour", "day"]),
       how=st.sampled_from(["mean", "sum"]))
def test_resample_adds_each_bucket_in_time_order(s, period, how):
    """The bucket sums are a left-to-right + from 0.0, bit for bit, not just close."""
    values, mask = resample_by_bucket(s, period, how)
    out = resample(s, period, how=how)
    assert out.values.tobytes() == values.tobytes()
    assert np.array_equal(out.mask, mask)


@st.composite
def grid_series(draw):
    """Up to 40 readings on a quarter-hour or an hourly grid, from any quarter past an hour, with
    gaps of up to 8 steps: values of magnitude up to 1e308, -0.0 among them, each present or
    missing."""
    step = draw(st.sampled_from([15, 60]))
    n = draw(st.integers(1, 40))
    steps = np.cumsum([0, *draw(st.lists(st.integers(1, 8), min_size=n - 1, max_size=n - 1))])
    start = np.datetime64("2020-01-01T00:00", "us") + np.timedelta64(draw(st.sampled_from(
        [0, 15, 30, 45])), "m")
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 1e308, -1e308])
                           | st.floats(-1e308, 1e308, allow_nan=False), min_size=n, max_size=n))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return MeasurementSeries(start + steps * np.timedelta64(step, "m"),
                             np.where(mask, values, np.nan), mask)


@settings(derandomize=True, max_examples=200)
@given(s=grid_series())
def test_resampling_to_hours_is_idempotent(s):
    """A second pass over an hourly grid gives the first pass's bits: bincount adds each hour's one
    reading to 0.0, and the first pass leaves no -0.0 behind.  simulate resamples each series file
    in the share that reads it, and the query resamples it again."""
    for how in ("mean", "sum"):
        try:
            once = resample(s, "hour", how=how)
        except ValueError:  # an hour whose sum overflows, under sum
            continue
        twice = resample(once, "hour", how=how)
        for field in ("timestamps", "values", "mask"):
            assert getattr(twice, field).tobytes() == getattr(once, field).tobytes()


def _four_quarter_hours(value):
    ts = np.datetime64("2020-01-01T00:00", "us") + np.arange(4).astype("timedelta64[m]") * 15
    return MeasurementSeries(ts, np.full(4, value), np.ones(4, dtype=bool))


@pytest.mark.parametrize("period", ["hour", "day"])
def test_resample_refuses_a_bucket_sum_that_overflows(period):
    with pytest.raises(ValueError, match="the sum of the readings in the .* overflows"):
        resample(_four_quarter_hours(1e308), period, how="sum")


@pytest.mark.parametrize("period", ["hour", "day"])
def test_resample_averages_a_bucket_whose_sum_overflows(period):
    """The mean of four readings of 1e308 is 1e308, though their sum is not a float."""
    out = resample(_four_quarter_hours(1e308), period, how="mean")
    assert out.values.tobytes() == np.array([1e308]).tobytes()
    assert out.mask.tolist() == [True]


def test_resample_scales_only_the_buckets_whose_sum_overflows():
    # Hour 0 overflows and is averaged at 2**-2; hour 1 keeps sum / count, bit for bit, and its
    # missing reading counts for neither.
    ts = np.datetime64("2020-01-01T00:00", "us") + np.arange(8).astype("timedelta64[m]") * 15
    values = np.array([1e308, 1.7e308, 1.5e308, 1e308, np.nan, 0.1, 0.2, 5e-324])
    out = resample(MeasurementSeries(ts, values, ~np.isnan(values)), "hour", how="mean")
    hour0 = (1e308 / 4 + 1.7e308 / 4 + 1.5e308 / 4 + 1e308 / 4) / 4 * 4
    assert out.values.tobytes() == np.array([hour0, (0.1 + 0.2 + 5e-324) / 3]).tobytes()


def test_resample_rejects_unknown_period():
    s = synth_pmu(days=1, seed=0)
    with pytest.raises(ValueError):
        resample(s, "week")


def test_resample_rejects_unknown_aggregation_and_empty_series():
    with pytest.raises(ValueError, match="how must be 'mean' or 'sum', got 'median'"):
        resample(synth_pmu(days=1, seed=0), "hour", how="median")
    empty = MeasurementSeries(np.array([], "datetime64[us]"), np.array([]), np.array([], bool))
    with pytest.raises(ValueError, match="cannot resample an empty series"):
        resample(empty, "hour")


# -------------------------------------------------------------------- synth

def test_synth_shape_and_determinism():
    a = synth_pmu(days=7, seed=42)
    b = synth_pmu(days=7, seed=42)
    c = synth_pmu(days=7, seed=43)
    assert len(a) == 7 * 24
    assert a.complete
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_synth_missing_fraction():
    s = synth_pmu(days=40, missing_fraction=0.25, seed=5)
    observed = 1.0 - s.mask.mean()
    assert observed == pytest.approx(0.25, abs=0.03)


def test_synth_recovers_profile():
    # With tiny jitter and no weekend scaling, hour-of-day averages
    # must land inside the Monte-Carlo band around the profile.
    days, noise = 200, 0.02
    s = synth_pmu(days=days, noise_level=noise, weekend_factor=1.0, seed=8)
    by_hour = s.values.reshape(days, 24)
    hour_means = by_hour.mean(axis=0)
    band = 4.0 * noise * DEFAULT_DAILY_PROFILE / np.sqrt(days)
    assert np.all(np.abs(hour_means - DEFAULT_DAILY_PROFILE) < band)


def test_synth_weekend_scaling():
    s = synth_pmu(days=28, noise_level=0.0, seed=0, start="2018-01-01")  # Monday start
    by_day = s.values.reshape(28, 24).mean(axis=1)
    weekday_level = by_day[:5].mean()
    weekend_level = by_day[5:7].mean()
    assert weekend_level == pytest.approx(1.12 * weekday_level, rel=1e-12)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_pmu(days=0)
    with pytest.raises(ValueError):
        synth_pmu(days=1, missing_fraction=1.0)
    with pytest.raises(ValueError, match="noise_level must be non-negative"):
        synth_pmu(days=1, noise_level=-0.1)
    for level in (math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_level must be finite"):
            synth_pmu(days=1, noise_level=level)
    with pytest.raises(ValueError):
        synth_pmu(days=1, profile=np.ones(12))


# numpy reads these as the run date or wraps them; the stamps would not be the seed's.
@pytest.mark.parametrize("start", ["now", "today", "Today", "300000-01-01", "-300000-01-01"],
                         ids=["now", "today", "Today", "year-beyond-datetime64",
                              "year-before-datetime64"])
def test_synth_rejects_start_that_ingest_rejects(start):
    with pytest.raises(ValueError, match=f"start must be .*, got {start!r}"):
        synth_pmu(days=1, start=start)


def test_synth_start_is_midnight(tmp_path):
    # The stamps start at midnight of start's day, so a time of day would be dropped.
    paths = []
    for start in ("2018-01-01", "2018-01-01T00:00"):
        paths.append(tmp_path / f"{len(paths)}.csv")
        export_csv(synth_pmu(days=1, seed=3, start=start), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for start in ("2018-01-01T05:00", "2018-01-01T00:00:00.000001"):
        with pytest.raises(ValueError, match=f"^start must be a date at midnight, got {start!r}"):
            synth_pmu(days=1, start=start)


def test_synth_start_takes_only_the_utc_zones_ingest_takes(tmp_path):
    paths = []
    for start in ("2018-01-01", "2018-01-01T00:00Z", "2018-01-01T00:00+00:00"):
        paths.append(tmp_path / f"{len(paths)}.csv")
        export_csv(synth_pmu(days=1, seed=3, start=start), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    # numpy would shift these to UTC with a UserWarning; ingest rejects them.
    for start in ("2018-01-01T01:00+01:00", "2017-12-31T19:00-05:00", "2018-01-01T00:00-00:00"):
        message = f"start must be an ISO-8601 date in UTC, got {start!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            synth_pmu(days=1, start=start)


def test_synth_rejects_start_plus_days_past_datetime64():
    # datetime64[us] ends at 294247-01-10T04:00:54.775807: ten days from here fit, eleven do not.
    assert synth_pmu(days=10, start="294246-12-31").timestamps[-1] == np.datetime64(
        "294247-01-09T23:00", "us")
    for days in (11, 30):
        with pytest.raises(ValueError, match=rf"^start '294246-12-31' plus days={days} runs past"):
            synth_pmu(days=days, start="294246-12-31")


@settings(derandomize=True, max_examples=300)
@given(days=st.integers(1, 60) | st.just(1461),
       profile=st.lists(st.floats(-1e6, 1e6), min_size=24, max_size=24),
       weekend_factor=st.floats(-10.0, 10.0), noise_level=st.floats(0.0, 10.0),
       missing_fraction=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32),
       start=st.sampled_from(["2015-01-01", "2018-01-01", "2016-02-29", "1969-12-31",
                              "9999-12-31", "200000-02-29", "-200000-02-29"]))
def test_synth_equals_its_expression_by_expression_oracle(days, profile, weekend_factor,
                                                          noise_level, missing_fraction, seed,
                                                          start):
    """The in-place build gives the stamps, values and mask of one expression per step, byte for
    byte, and draws the same stream: from leap days, before 1970 and in far years."""
    profile = np.array(profile)
    s = synth_pmu(days, profile, noise_level, missing_fraction, seed, weekend_factor, start)
    expected = synth_by_expressions(days, profile, noise_level, missing_fraction, seed,
                                    weekend_factor, start)
    for got, want in zip((s.timestamps, s.values, s.mask), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_series_refuses_a_non_finite_present_value_and_takes_a_missing_one(value):
    ts = np.datetime64("2020-01-01", "us") + np.arange(3).astype("timedelta64[h]")
    with pytest.raises(ValueError, match="^present values must be finite$"):
        MeasurementSeries(ts, [1.0, value, 2.0], [True, True, True])
    s = MeasurementSeries(ts, [1.0, value, 2.0], [True, False, True])
    assert s.values.tobytes() == np.array([1.0, math.nan, 2.0]).tobytes()


def test_synth_names_noise_level_when_a_reading_overflows():
    message = "noise_level=1e+308 overflows the reading at 2015-01-01T00:00:00"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        synth_pmu(days=2, noise_level=1e308)
    # 0 * inf is NaN: a zero profile entry whose jitter overflows is named too.
    message = "noise_level=1e+308 overflows the reading at 2015-01-02T00:00:00"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        synth_pmu(days=2, noise_level=1e308, profile=np.zeros(24))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kwargs, message", [
    ({"weekend_factor": 1e308, "profile": np.full(24, 1e10)},
     "weekend_factor=1e+308 overflows the profile on a weekend day"),
    ({"weekend_factor": math.nan}, "weekend_factor must be finite, got nan"),
    ({"profile": np.r_[np.ones(5), math.inf, np.ones(18)]},
     "profile must be finite, got inf at hour 5"),
], ids=["weekend-overflow", "nan-weekend-factor", "inf-profile"])
def test_synth_names_profile_and_weekend_factor_when_they_are_not_finite(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        synth_pmu(days=3, **kwargs)


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_synth_holds_one_copy_of_each_full_size_array():
    """Four years of hours are 35,064 readings, 0.27 MiB per float array: the series' own three
    arrays and the ones it is built from stay under 1.5 MiB, where a new array per expression
    peaked at 2.5 MiB."""
    synth_pmu(days=1)  # a first call's one-off allocations
    assert _peak_mib(lambda: synth_pmu(days=1461)) <= 1.5


def test_resample_holds_one_copy_of_each_full_size_array():
    """Resampling four years of hours to days holds the floors as bucket indices and little else,
    under 0.75 MiB, where copying the present readings and their indices peaked at 0.91 MiB."""
    s = synth_pmu(days=1461)
    resample(synth_pmu(days=1), "day")  # a first call's one-off allocations
    assert _peak_mib(lambda: resample(s, "day")) <= 0.75
