"""Seasonal forecasters for telemetry series.

`forecast` runs additive Holt-Winters (level, trend, seasonal
components) with fixed smoothing weights; `seasonal_naive_forecast`,
which repeats the last observed season, is the baseline it is measured
against.  Both are dependency-free.  Forecast quality is not the point
here; the forecaster exists so that noise and tampering can be priced
by how much they move downstream predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MeasurementSeries

LEVEL_SMOOTHING = 0.3
TREND_SMOOTHING = 0.05
SEASON_SMOOTHING = 0.2


@dataclass(frozen=True)
class ForecastConfig:
    horizon: int
    season_length: int = 24

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if self.season_length < 1:
            raise ValueError(f"season_length must be at least 1, got {self.season_length}")


def _check_series(values: np.ndarray, season_length: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    needed = 2 * season_length
    if len(values) < needed:
        raise ValueError(f"series too short: need at least {needed} points, got {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite; fill or drop missing readings first")
    return values


def seasonal_naive_forecast(values, season_length: int, horizon: int) -> np.ndarray:
    """Repeat the last observed season."""
    values = _check_series(values, season_length)
    last_season = values[-season_length:]
    return last_season[np.arange(horizon) % season_length]


def holt_winters_forecast(values, season_length: int, horizon: int) -> np.ndarray:
    """Additive Holt-Winters with the module's fixed smoothing weights.

    Initialization uses the first two seasons: level is the first
    season's mean, trend the per-step difference of the two seasonal
    means, seasonal offsets the first season's residuals.  The
    recursion consumes y[t] for t from season_length to the end; the
    forecast extends the final level and trend and reuses the last
    season's offsets.
    """
    y = _check_series(values, season_length)
    m = season_length
    n = len(y)

    level = float(np.mean(y[:m]))
    trend = (float(np.mean(y[m : 2 * m])) - level) / m
    season = np.empty(n, dtype=float)
    season[:m] = y[:m] - level

    for t in range(m, n):
        new_level = LEVEL_SMOOTHING * (y[t] - season[t - m]) + (1.0 - LEVEL_SMOOTHING) * (level + trend)
        trend = TREND_SMOOTHING * (new_level - level) + (1.0 - TREND_SMOOTHING) * trend
        season[t] = SEASON_SMOOTHING * (y[t] - new_level) + (1.0 - SEASON_SMOOTHING) * season[t - m]
        level = new_level

    steps = np.arange(1, horizon + 1)
    seasonal_idx = n - m + (steps - 1) % m
    return level + steps * trend + season[seasonal_idx]


def forecast(series: MeasurementSeries, cfg: ForecastConfig) -> MeasurementSeries:
    """Forecast a complete, uniformly sampled series with Holt-Winters.

    Returns a new series whose timestamps continue the input grid for
    cfg.horizon steps.
    """
    if not series.complete:
        raise ValueError("series has missing readings; fill or resample before forecasting")
    steps = np.diff(series.timestamps)
    if len(steps) == 0:
        raise ValueError(f"series too short: need at least {2 * cfg.season_length} points, got {len(series)}")
    if not np.all(steps == steps[0]):
        raise ValueError("series must be uniformly sampled")
    predicted = holt_winters_forecast(series.values, cfg.season_length, cfg.horizon)
    step = steps[0]
    future = series.timestamps[-1] + step * np.arange(1, cfg.horizon + 1)
    return MeasurementSeries(
        timestamps=future,
        values=predicted,
        mask=np.ones(cfg.horizon, dtype=bool),
    )
