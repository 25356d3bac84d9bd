"""Defender-side design: pick the privacy loss that caps stealthy bias.

Given a query sensitivity, a stealth budget gamma the operator is
willing to grant an undetected attacker, and the largest mean shift d
the operation can tolerate, there is exactly one Laplace scale at which
the attacker's best stealthy shift equals d.  Working through the
attacker's optimum in closed form, the design reduces to a scalar root
in t = d / k1:

    t - ln(1 + t / 2) = gamma        (strictly increasing in t)

after which

    k1 = d / t,    b = k1 * sqrt(d / (2 k1 + d)),    epsilon = sensitivity / b.

b < k1 always holds, so the paired attacker profile is well defined,
and feeding the result back through the attacker's optimum reproduces
theta + d; calibrate_epsilon checks that identity on every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .adversary import AttackProfile, bisect_root, optimal_impact
from .laplace import PrivacyParams

_ROUND_TRIP_RTOL = 1e-6
_MIN_GAMMA, _MAX_GAMMA = 1e-50, 1e9  # see DesignSpec


class BoundaryCase(Enum):
    """Degenerate design corners with no finite calibration."""

    NO_NOISE_LIMIT = "no_noise_limit"  # tolerated deviation 0: scale -> 0, epsilon -> inf
    UNBOUNDED_IMPACT_LIMIT = "unbounded_impact_limit"  # infinite stealth budget: epsilon -> 0


@dataclass(frozen=True)
class DesignSpec:
    """Inputs to the calibration.

    max_deviation is the largest tolerable attacker mean shift,
    expressed in release units above theta.  gamma must lie in
    [1e-50, 1e9], where the round trip holds: above it the attacker's
    tilt solve loses precision, and below about 1.4e-55 (a scan over
    gamma, sensitivity and deviation) the 200 halvings of bisect_root
    on [gamma, 2 gamma + 2] no longer resolve t.
    """

    sensitivity: float
    gamma: float
    theta: float
    max_deviation: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0.0):
            raise ValueError(f"sensitivity must be finite and non-negative, got {self.sensitivity}")
        if not _MIN_GAMMA <= self.gamma <= _MAX_GAMMA:  # also rejects nan
            raise ValueError(f"gamma must be in [{_MIN_GAMMA:g}, {_MAX_GAMMA:g}], got {self.gamma}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not (math.isfinite(self.max_deviation) and self.max_deviation > 0.0):
            raise ValueError(f"max_deviation must be finite and positive, got {self.max_deviation}")


@dataclass(frozen=True)
class DesignResult:
    k1: float
    scale: float
    epsilon: float
    predicted_impact: float


def _solve_deviation_ratio(gamma: float) -> float:
    """Unique t > 0 with t - log1p(t / 2) == gamma."""
    # The left side is below gamma at t = gamma and above it at 2 gamma + 2.
    return bisect_root(lambda t: t - math.log1p(0.5 * t) < gamma, gamma, 2.0 * gamma + 2.0)


def solve_design_k1(max_deviation: float, gamma: float) -> float:
    """Tilt parameter of the worst stealthy attacker shifting by max_deviation.

    Solves  d / k1 + ln(2 k1 / (2 k1 + d)) = gamma  for k1; the left
    side is strictly decreasing in k1, so the root is unique.
    """
    if not (max_deviation > 0.0 and gamma > 0.0) or math.isinf(gamma) or math.isinf(max_deviation):
        raise ValueError("boundary case; use limit analysis")
    return max_deviation / _solve_deviation_ratio(float(gamma))


def calibrate_epsilon(spec: DesignSpec) -> DesignResult:
    """Privacy loss at which the best stealthy shift equals max_deviation."""
    if spec.sensitivity == 0.0:
        raise ValueError("zero-sensitivity query needs no noise")
    d = spec.max_deviation
    k1 = solve_design_k1(d, spec.gamma)
    scale = k1 * math.sqrt(d / (2.0 * k1 + d))
    if not (math.isfinite(scale) and scale > 0.0):  # 2 k1 + d overflows near 1e308
        raise ValueError(f"calibrated noise scale {scale} is not finite and positive")
    epsilon = spec.sensitivity / scale
    if epsilon < sys.float_info.min:  # subnormal: sensitivity / epsilon no longer gives scale back
        raise ValueError(f"calibrated epsilon {epsilon} is below the smallest normal float")
    base = PrivacyParams(sensitivity=spec.sensitivity, epsilon=epsilon, theta=spec.theta)
    predicted = optimal_impact(AttackProfile.solve(spec.gamma, base))
    if not abs(predicted - (spec.theta + d)) <= _ROUND_TRIP_RTOL * max(1.0, abs(d)):
        raise RuntimeError(
            f"calibration round trip drifted: predicted {predicted}, wanted {spec.theta + d}"
        )
    return DesignResult(k1=k1, scale=scale, epsilon=epsilon, predicted_impact=predicted)


def boundary_report(max_deviation: float, gamma: float) -> BoundaryCase:
    """Classify the degenerate corners of the design space.

    Zero tolerated deviation forces the no-noise limit (scale -> 0,
    epsilon -> inf); an infinite stealth budget means no finite noise
    bounds the attacker (scale -> inf, epsilon -> 0).  Interior inputs
    are not a boundary case and must go through calibrate_epsilon.
    """
    if max_deviation < 0.0:
        raise ValueError(f"max_deviation must be non-negative, got {max_deviation}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if max_deviation == 0.0:
        return BoundaryCase.NO_NOISE_LIMIT
    if math.isinf(gamma):
        return BoundaryCase.UNBOUNDED_IMPACT_LIMIT
    raise ValueError("use calibrate_epsilon")
