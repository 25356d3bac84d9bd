import numpy as np
import pytest

from dpgrid.forecasting import (
    ForecastConfig,
    forecast,
    holt_winters_forecast,
    seasonal_naive_forecast,
)
from dpgrid.series import MeasurementSeries, synth_pmu


def _hourly_series(values):
    values = np.asarray(values, dtype=float)
    ts = np.datetime64("2020-01-01T00", "us") + np.arange(len(values)).astype("timedelta64[h]")
    return MeasurementSeries(ts, values, np.ones(len(values), dtype=bool))


def _trend_season(n, m, slope=0.05, amplitude=5.0, noise=0.5, seed=0):
    gen = np.random.default_rng(seed)
    t = np.arange(n)
    return 30.0 + slope * t + amplitude * np.sin(2.0 * np.pi * t / m) + noise * gen.standard_normal(n)


def test_config_validation():
    with pytest.raises(ValueError):
        ForecastConfig(horizon=0)
    with pytest.raises(ValueError):
        ForecastConfig(horizon=1, season_length=0)


def test_naive_repeats_last_season():
    values = np.arange(48, dtype=float)
    out = seasonal_naive_forecast(values, season_length=24, horizon=30)
    assert np.array_equal(out[:24], values[24:])
    assert np.array_equal(out[24:30], values[24:30])


def test_constant_series_forecasts_constant():
    values = np.full(96, 7.25)
    naive = seasonal_naive_forecast(values, 24, 12)
    hw = holt_winters_forecast(values, 24, 12)
    assert np.array_equal(naive, np.full(12, 7.25))
    assert hw == pytest.approx(np.full(12, 7.25), rel=1e-9)


def test_pure_seasonal_signal_is_reproduced():
    m = 12
    one_season = 10.0 + 3.0 * np.sin(2.0 * np.pi * np.arange(m) / m)
    values = np.tile(one_season, 8)
    hw = holt_winters_forecast(values, m, horizon=m)
    assert hw == pytest.approx(one_season, abs=1e-6)


def test_trending_series_extrapolates():
    # Long enough for the spurious seasonal offsets implied by a pure
    # ramp to be smoothed away.
    values = 5.0 + 0.5 * np.arange(480)
    hw = holt_winters_forecast(values, season_length=12, horizon=4)
    expected = 5.0 + 0.5 * np.arange(480, 484)
    assert hw == pytest.approx(expected, rel=0.01)


def _held_out_mae(forecaster, values, m, seasons):
    """MAE of forecasting each of the last `seasons` seasons from the values before it."""
    errors = [
        forecaster(values[:start], m, m) - values[start : start + m]
        for start in range(len(values) - seasons * m, len(values), m)
    ]
    return np.mean(np.abs(errors))


def test_hw_beats_naive_on_trend_plus_season():
    m = 24
    values = _trend_season(n=40 * m, m=m)
    hw_mae = _held_out_mae(holt_winters_forecast, values, m, seasons=10)
    naive_mae = _held_out_mae(seasonal_naive_forecast, values, m, seasons=10)
    assert hw_mae < naive_mae


def test_short_series_rejected():
    with pytest.raises(ValueError, match="series too short"):
        holt_winters_forecast(np.ones(40), season_length=24, horizon=1)
    with pytest.raises(ValueError, match="series too short"):
        seasonal_naive_forecast(np.ones(40), season_length=24, horizon=1)
    one = MeasurementSeries(np.array(["2020-01-01T00"], "datetime64[us]"), np.ones(1),
                            np.ones(1, dtype=bool))
    with pytest.raises(ValueError, match="series too short: need at least 48 points, got 1"):
        forecast(one, ForecastConfig(horizon=1))


def test_two_dimensional_values_rejected():
    with pytest.raises(ValueError, match="one-dimensional"):
        seasonal_naive_forecast(np.ones((2, 48)), season_length=24, horizon=1)


def test_non_finite_rejected():
    values = np.ones(96)
    values[10] = np.nan
    with pytest.raises(ValueError, match="finite"):
        holt_winters_forecast(values, 24, 1)


def test_forecast_series_continues_time_grid():
    s = _hourly_series(_trend_season(n=96, m=24))
    cfg = ForecastConfig(horizon=6, season_length=24)
    out = forecast(s, cfg)
    assert len(out) == 6
    assert out.complete
    step = np.timedelta64(1, "h")
    assert out.timestamps[0] - s.timestamps[-1] == step
    assert np.all(np.diff(out.timestamps) == step)


def test_forecast_requires_complete_series():
    s = synth_pmu(days=4, missing_fraction=0.2, seed=1)
    with pytest.raises(ValueError, match="missing"):
        forecast(s, ForecastConfig(horizon=3, season_length=24))


def test_forecast_requires_uniform_spacing():
    ts = np.array(
        ["2020-01-01T00", "2020-01-01T01", "2020-01-01T03"], dtype="datetime64[us]"
    )
    s = MeasurementSeries(ts, np.ones(3), np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="uniformly sampled"):
        forecast(s, ForecastConfig(horizon=1, season_length=1))


def test_forecast_deterministic():
    s = _hourly_series(_trend_season(n=240, m=24))
    cfg = ForecastConfig(horizon=24, season_length=24)
    assert np.array_equal(forecast(s, cfg).values, forecast(s, cfg).values)


def test_forecast_methods_differ_on_trend():
    s = _hourly_series(_trend_season(n=240, m=24, slope=0.2))
    hw = forecast(s, ForecastConfig(horizon=24, season_length=24))
    naive = seasonal_naive_forecast(s.values, season_length=24, horizon=24)
    assert not np.array_equal(hw.values, naive)
