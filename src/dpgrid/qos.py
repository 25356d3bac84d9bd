"""Pricing the defense: what noise and tampering do to forecasts.

Operators consume telemetry through downstream models, so the cost of
a defense is measured there, not on raw readings.  Three aligned
variants of one series are compared through a common forecaster:

    privacy cost   MAE(forecast(dp), forecast(original))
    security cost  MAE(forecast(attacked dp), forecast(dp))
    defense cost   privacy cost + security cost

Raising the privacy loss epsilon shrinks the noise (privacy cost falls)
but hands a stealthy attacker more room (security cost rises); the
defense cost exposes that trade-off as a single number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import AttackProfile, sample_attack_noise
from .forecasting import ForecastConfig, forecast
from .laplace import PrivacyParams, sample_laplace
from .series import MeasurementSeries
from .seeds import derive_rng


@dataclass(frozen=True)
class CostReport:
    privacy_cost: float
    security_cost: float
    defense_cost: float
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("privacy_cost", "security_cost", "defense_cost"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if self.defense_cost != self.privacy_cost + self.security_cost:
            raise ValueError("defense_cost must equal privacy_cost + security_cost")


@dataclass(frozen=True)
class UtilityReport:
    """Forecast damage attributable to tampering inside one window."""

    window: tuple
    injected_mean_abs: float
    forecast_mae: float
    relative_deviation: float


def _require_aligned(*series: MeasurementSeries) -> None:
    first = series[0]
    for other in series[1:]:
        if len(other) != len(first) or not np.array_equal(other.timestamps, first.timestamps):
            raise ValueError("series are not aligned")


def mean_absolute_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def dp_protect(series: MeasurementSeries, params: PrivacyParams, seed: int) -> MeasurementSeries:
    """Add one independent Laplace draw per present reading."""
    # Both stream labels are part of the RNG layout that the golden qos digest pins.
    gen = derive_rng(seed, "qos-dp", "power_kwh")
    noise = sample_laplace(params, gen, size=len(series))
    values = np.where(series.mask, series.values + noise, np.nan)
    return series.with_values(values)


def inject_attack(
    series: MeasurementSeries,
    profile: AttackProfile,
    window: tuple,
    seed: int,
) -> MeasurementSeries:
    """Add one attack-noise draw per present reading inside [start, end).

    The attack density is used with its center at zero offset from the
    carried value, i.e. profile.base.theta shifts are not re-applied
    here; the profile's mean_shift is what lands on each reading.
    """
    start, end = window
    if not 0 <= start <= end <= len(series):
        raise ValueError("attack window outside series")
    gen = derive_rng(seed, "qos-attack", "power_kwh")
    in_window = np.zeros(len(series), dtype=bool)
    in_window[start:end] = True
    hit = in_window & series.mask
    draws = sample_attack_noise(profile, gen, size=int(hit.sum())) - profile.base.theta
    values = series.values.copy()
    values[hit] = values[hit] + draws
    return series.with_values(values)


def cost_analysis(
    original: MeasurementSeries,
    dp_variant: MeasurementSeries,
    fdi_dp_variant: MeasurementSeries,
    cfg: ForecastConfig,
    epsilon: float,
) -> CostReport:
    """Forecast-space cost of noise and of stealthy tampering on top of it."""
    _require_aligned(original, dp_variant, fdi_dp_variant)
    f_orig = forecast(original, cfg).values
    f_dp = forecast(dp_variant, cfg).values
    f_fdi = forecast(fdi_dp_variant, cfg).values
    privacy = mean_absolute_error(f_dp, f_orig)
    security = mean_absolute_error(f_fdi, f_dp)
    return CostReport(
        privacy_cost=privacy,
        security_cost=security,
        defense_cost=privacy + security,
        epsilon=epsilon,
    )


def utility_report(
    baseline: MeasurementSeries,
    attacked: MeasurementSeries,
    window: tuple,
    cfg: ForecastConfig,
) -> UtilityReport:
    """Quantify forecast deviation caused by in-window tampering.

    The two series must agree exactly outside the window; anything else
    means the window does not describe the tampering and the comparison
    would be meaningless.  relative_deviation normalizes the forecast
    MAE by the mean magnitude of the baseline forecast (NaN when that
    magnitude is zero).
    """
    _require_aligned(baseline, attacked)
    start, end = window
    if not 0 <= start <= end <= len(baseline):
        raise ValueError("attack window outside series")
    outside = np.ones(len(baseline), dtype=bool)
    outside[start:end] = False
    same_mask = np.array_equal(baseline.mask, attacked.mask)
    if not same_mask or not np.array_equal(
        baseline.values[outside & baseline.mask], attacked.values[outside & baseline.mask]
    ):
        raise ValueError("series differ outside the attack window")

    inside = ~outside & baseline.mask
    injected = (
        float(np.mean(np.abs(attacked.values[inside] - baseline.values[inside])))
        if inside.any()
        else 0.0
    )
    f_base = forecast(baseline, cfg).values
    f_att = forecast(attacked, cfg).values
    mae = mean_absolute_error(f_att, f_base)
    denom = float(np.mean(np.abs(f_base)))
    relative = mae / denom if denom > 0.0 else math.nan
    return UtilityReport(
        window=(int(start), int(end)),
        injected_mean_abs=injected,
        forecast_mae=mae,
        relative_deviation=relative,
    )
