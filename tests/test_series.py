from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ingest_csv_by_rows

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
    with pytest.raises(ValueError, match=r"^row 4: timestamps must be strictly increasing"):
        ingest_csv(path)


def test_ingest_rejects_empty_timestamp(tmp_path):
    path = _write(tmp_path, "timestamp,value\n,1.0\n")
    with pytest.raises(ValueError, match=r"^row 2: bad timestamp ''$"):
        ingest_csv(path)


def test_ingest_rejects_nat_timestamp_mid_file(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,value\n"
        "2018-10-14T00:00:00,1.0\n"
        "NaT,2.0\n"
        "2018-10-14T00:00:02,3.0\n",
    )
    with pytest.raises(ValueError, match=r"^row 3: bad timestamp 'NaT'$"):
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


@st.composite
def measurement_csv(draw):
    """CSV text in the ingest format, mostly valid, always increasing.

    Stamps carry UTC suffixes and blank padding, values are sometimes
    quoted, and '#' and blank lines sit between the data rows.

    NaT stamps and non-increasing rows are never drawn: their errors
    changed on purpose (both now name their row) and the row-by-row
    reference gives the old ones.  A bad stamp or a row of the wrong
    width is drawn now and then, so error messages are compared too.
    """
    quality = draw(st.booleans())
    header = draw(st.sampled_from(["timestamp,value", " Timestamp , VALUE "]))
    lines = [header + (",quality" if quality else "")]
    micros = 0
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["# note", "  #x,y", ""])))
        micros += draw(st.sampled_from([1, 250_000, 1_000_000, 3_600_000_000]))
        stamp = (datetime(2018, 10, 14) + timedelta(microseconds=micros)).isoformat()
        lead, zone, trail = draw(_STAMP_TEXTS)
        quote = draw(st.sampled_from(["", '"']))
        fields = [lead + stamp + zone + trail, quote + draw(_VALUE_TEXTS) + quote]
        if quality:
            fields.append(draw(_QUALITY_TEXTS))
        fault = draw(st.integers(0, 60))
        if fault == 0:
            fields[0] = "2018-13-01"
        elif fault == 1:
            fields.pop()
        lines.append(",".join(fields))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def _ingest_outcome(reader, path):
    try:
        s = reader(path)
    except ValueError as exc:
        return str(exc)
    return s.timestamps.tobytes(), s.values.tobytes(), s.mask.tobytes()


@settings(derandomize=True, max_examples=150)
@given(text=measurement_csv())
def test_ingest_matches_row_by_row_reference(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("eq") / "m.csv"
    path.write_bytes(text.encode())
    assert _ingest_outcome(ingest_csv, path) == _ingest_outcome(ingest_csv_by_rows, path)


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
    with pytest.raises(ValueError, match="unknown channel"):
        MeasurementSeries(ts, np.array([1.0, 2.0]), np.array([True, True]), channel="amps")


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


def test_resample_rejects_unknown_period():
    s = synth_pmu(days=1, seed=0)
    with pytest.raises(ValueError):
        resample(s, "week")


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
    with pytest.raises(ValueError):
        synth_pmu(days=1, noise_level=-0.1)
    with pytest.raises(ValueError):
        synth_pmu(days=1, profile=np.ones(12))
