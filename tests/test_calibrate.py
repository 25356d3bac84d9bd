import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgrid import calibrate
from dpgrid.adversary import AttackProfile, kl_from_k1
from dpgrid.calibrate import (
    BoundaryCase,
    DesignSpec,
    boundary_report,
    calibrate_epsilon,
    solve_design_k1,
)
from dpgrid.laplace import PrivacyParams


def test_design_root_satisfies_constraint():
    d, gamma = 76.82, 2.0
    k1 = solve_design_k1(d, gamma)
    residual = d / k1 + math.log(2.0 * k1 / (2.0 * k1 + d)) - gamma
    assert abs(residual) < 1e-12
    assert k1 == pytest.approx(26.0, rel=0.05)


@given(d=st.floats(1e-3, 1e3), gamma=st.floats(1e-3, 10.0))
def test_design_root_residual_property(d, gamma):
    k1 = solve_design_k1(d, gamma)
    residual = d / k1 + math.log(2.0 * k1 / (2.0 * k1 + d)) - gamma
    assert abs(residual) < 1e-9


def test_design_root_decreasing_in_gamma():
    roots = [solve_design_k1(50.0, g) for g in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(roots, roots[1:]))


def test_boundary_inputs_rejected():
    for d, gamma in [(0.0, 1.0), (-1.0, 1.0), (5.0, 0.0), (5.0, -2.0), (5.0, math.inf)]:
        with pytest.raises(ValueError, match="boundary case; use limit analysis"):
            solve_design_k1(d, gamma)


def test_operating_point_epsilon():
    spec = DesignSpec(sensitivity=2.0, gamma=2.0, theta=33.18, max_deviation=76.82)
    result = calibrate_epsilon(spec)
    assert 0.095 <= result.epsilon <= 0.110
    assert result.predicted_impact == pytest.approx(33.18 + 76.82, rel=1e-6)
    assert result.scale == pytest.approx(2.0 / result.epsilon, rel=1e-12)
    assert result.k1 > result.scale


def test_round_trip_exactness():
    spec = DesignSpec(sensitivity=1.0, gamma=0.7, theta=0.0, max_deviation=12.5)
    result = calibrate_epsilon(spec)
    profile = AttackProfile.solve(0.7, PrivacyParams(1.0, result.epsilon, 0.0))
    assert profile.mean_shift == pytest.approx(12.5, rel=1e-9)


def test_round_trip_at_large_stealth_budget():
    spec = DesignSpec(sensitivity=2.0, gamma=3e7, theta=33.18, max_deviation=10.0)
    result = calibrate_epsilon(spec)
    assert result.predicted_impact == pytest.approx(43.18, rel=1e-6)


def test_round_trip_at_smallest_stealth_budget():
    spec = DesignSpec(sensitivity=2.0, gamma=1e-50, theta=33.18, max_deviation=10.0)
    result = calibrate_epsilon(spec)
    assert result.predicted_impact == pytest.approx(43.18, rel=1e-6)
    with pytest.raises(ValueError, match="gamma must be in"):
        DesignSpec(sensitivity=2.0, gamma=9e-51, theta=33.18, max_deviation=10.0)


def test_round_trip_check_rejects_nan_prediction(monkeypatch):
    monkeypatch.setattr(calibrate, "optimal_impact", lambda profile: math.nan)
    spec = DesignSpec(sensitivity=2.0, gamma=2.0, theta=33.18, max_deviation=76.82)
    with pytest.raises(RuntimeError, match="round trip drifted"):
        calibrate_epsilon(spec)


def test_result_is_consistent_with_stealth_constraint():
    spec = DesignSpec(sensitivity=2.0, gamma=1.3, theta=5.0, max_deviation=40.0)
    result = calibrate_epsilon(spec)
    assert kl_from_k1(result.k1, result.scale) == pytest.approx(1.3, abs=1e-9)


def test_zero_sensitivity_rejected():
    spec = DesignSpec(sensitivity=0.0, gamma=1.0, theta=0.0, max_deviation=10.0)
    with pytest.raises(ValueError, match="zero-sensitivity query needs no noise"):
        calibrate_epsilon(spec)


def test_small_tolerated_deviation_forces_large_epsilon():
    spec = DesignSpec(sensitivity=2.0, gamma=1.0, theta=0.0, max_deviation=1e-6)
    result = calibrate_epsilon(spec)
    assert result.epsilon > 1e3
    assert result.scale < 1e-3


def test_epsilon_decreasing_in_tolerated_deviation():
    epsilons = [
        calibrate_epsilon(DesignSpec(2.0, 1.0, 0.0, d)).epsilon for d in (5.0, 20.0, 80.0, 320.0)
    ]
    assert all(a > b for a, b in zip(epsilons, epsilons[1:]))


def test_epsilon_increasing_in_gamma():
    # Noise is the attacker's cover: every unit of scale hands a
    # stealthy attacker a gamma-dependent amount of shift.  A larger
    # budget therefore shrinks the noise the defender can afford, i.e.
    # raises the calibrated privacy loss.
    epsilons = [
        calibrate_epsilon(DesignSpec(2.0, g, 0.0, 76.82)).epsilon for g in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a < b for a, b in zip(epsilons, epsilons[1:]))


@given(
    sensitivity=st.floats(0.1, 5.0),
    gamma=st.floats(0.01, 5.0),
    d=st.floats(0.1, 200.0),
)
def test_calibration_round_trip_property(sensitivity, gamma, d):
    spec = DesignSpec(sensitivity=sensitivity, gamma=gamma, theta=0.0, max_deviation=d)
    result = calibrate_epsilon(spec)
    profile = AttackProfile.solve(gamma, PrivacyParams(sensitivity, result.epsilon, 0.0))
    assert profile.mean_shift == pytest.approx(d, rel=1e-6)


def test_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(sensitivity=-1.0, gamma=1.0, theta=0.0, max_deviation=1.0)
    with pytest.raises(ValueError):
        DesignSpec(sensitivity=1.0, gamma=0.0, theta=0.0, max_deviation=1.0)
    with pytest.raises(ValueError):
        DesignSpec(sensitivity=1.0, gamma=1.0, theta=math.nan, max_deviation=1.0)
    with pytest.raises(ValueError):
        DesignSpec(sensitivity=1.0, gamma=1.0, theta=0.0, max_deviation=0.0)
    with pytest.raises(ValueError):
        DesignSpec(sensitivity=1.0, gamma=1e11, theta=0.0, max_deviation=1.0)


def test_boundary_report_cases():
    assert boundary_report(0.0, 1.0) is BoundaryCase.NO_NOISE_LIMIT
    assert boundary_report(5.0, math.inf) is BoundaryCase.UNBOUNDED_IMPACT_LIMIT
    assert boundary_report(0.0, math.inf) is BoundaryCase.NO_NOISE_LIMIT
    with pytest.raises(ValueError, match="use calibrate_epsilon"):
        boundary_report(5.0, 1.0)
    with pytest.raises(ValueError):
        boundary_report(-1.0, 1.0)
    with pytest.raises(ValueError):
        boundary_report(5.0, 0.0)
