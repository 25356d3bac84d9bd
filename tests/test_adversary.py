import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgrid.adversary import (
    AttackProfile,
    attack_pdf,
    kl_from_k1,
    optimal_impact,
    sample_attack_noise,
    solve_k1,
    tilted_mean_shift,
)
from dpgrid.laplace import PrivacyParams, laplace_pdf
from dpgrid.seeds import derive_rng

import oracles

# Operating point used throughout: sensitivity 2.0 at epsilon 0.1
# gives scale 20; a stealth budget of 2 nats lands k1 just above 26.
BASE = PrivacyParams(sensitivity=2.0, epsilon=0.1, theta=33.18)


# ------------------------------------------------------------------ density

def test_pdf_point_value():
    # b=1, k1=2 at the center: (4-1)/(2*1*4) = 3/8.
    profile = AttackProfile.from_k1(2.0, PrivacyParams(1.0, 1.0, theta=0.0))
    assert attack_pdf(0.0, profile) == pytest.approx(0.375)


def test_pdf_integrates_to_one():
    profile = AttackProfile.solve(2.0, BASE)
    mass = oracles.total_mass(lambda y: attack_pdf(y, profile), center=BASE.theta)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_pdf_approaches_honest_noise_for_weak_tilt():
    base = PrivacyParams(1.0, 1.0, theta=0.0)
    profile = AttackProfile.from_k1(1e6, base)
    grid = np.linspace(-10.0, 10.0, 1001)
    assert np.max(np.abs(attack_pdf(grid, profile) - laplace_pdf(grid, base))) < 1e-6


def test_pdf_skews_right():
    profile = AttackProfile.from_k1(2.0, PrivacyParams(1.0, 1.0, theta=0.0))
    assert attack_pdf(1.0, profile) > attack_pdf(-1.0, profile)


# -------------------------------------------------------------- divergence

def test_kl_closed_form_example():
    # b=20, k1=26 evaluated straight from the definition.
    expected = 2.0 * 400.0 / (676.0 - 400.0) + math.log(1.0 - 400.0 / 676.0)
    assert kl_from_k1(26.0, 20.0) == pytest.approx(expected, rel=1e-12)
    assert kl_from_k1(26.0, 20.0) == pytest.approx(2.0, abs=0.01)


def test_kl_vanishes_for_weak_tilt():
    assert kl_from_k1(1e6, 1.0) < 1e-10


def test_kl_matches_quadrature():
    for b, k1 in [(1.0, 2.0), (1.0, 5.0), (20.0, 26.0)]:
        numeric = oracles.kl_by_quadrature(
            oracles.log_tilted_density(0.0, b, k1), oracles.log_laplace_density(0.0, b), center=0.0
        )
        assert kl_from_k1(k1, b) == pytest.approx(numeric, abs=1e-6)


def test_kl_decreasing_in_k1():
    values = [kl_from_k1(k1, 1.0) for k1 in np.geomspace(1.01, 1e4, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kl_rejects_untilted_region():
    with pytest.raises(ValueError, match="attack distribution undefined"):
        kl_from_k1(1.0, 1.0)
    with pytest.raises(ValueError, match="attack distribution undefined"):
        kl_from_k1(0.5, 1.0)


def test_nan_inputs_rejected():
    with pytest.raises(ValueError, match="noise scale must be positive"):
        kl_from_k1(1.0, math.nan)
    with pytest.raises(ValueError, match="attack distribution undefined"):
        kl_from_k1(math.nan, 1.0)
    with pytest.raises(ValueError, match="noise scale must be positive"):
        solve_k1(2.0, math.nan)


def test_kl_scale_invariance():
    # The divergence depends only on the ratio k1 / b.
    assert kl_from_k1(2.6, 2.0) == pytest.approx(kl_from_k1(26.0, 20.0), rel=1e-12)


# ------------------------------------------------------------------ solver

def test_solve_k1_operating_point():
    k1 = solve_k1(2.0, 20.0)
    assert k1 == pytest.approx(26.0, rel=0.05)
    assert kl_from_k1(k1, 20.0) == pytest.approx(2.0, abs=1e-10)


def test_solve_k1_large_budget_approaches_scale():
    b = 20.0
    k1 = solve_k1(1e3, b)
    assert b < k1 < b * (1.0 + 1e-3)


def test_solve_k1_degenerate_budgets():
    for gamma in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="degenerate stealth budget"):
            solve_k1(gamma, 1.0)


def test_solve_k1_smallest_normal_budget_resolves():
    # KL is about 1 / r^2 for large r = k1 / b, and r * r stays finite down to here.
    k1 = solve_k1(sys.float_info.min, 20.0)
    assert k1 == pytest.approx(20.0 / math.sqrt(sys.float_info.min), rel=1e-9)


@pytest.mark.parametrize("gamma", [1e-310, 5e-324], ids=["subnormal", "smallest-subnormal"])
def test_solve_k1_subnormal_budget_too_small_to_resolve(gamma):
    # Below the smallest normal gamma r * r overflows and every bracket's KL reads 0.
    with pytest.raises(ValueError, match=f"stealth budget {gamma!r} too small to resolve"):
        solve_k1(gamma, 20.0)


@given(
    gamma=st.floats(1e-3, 1e2),
    scale=st.floats(1e-3, 1e3),
)
def test_solve_k1_round_trip(gamma, scale):
    k1 = solve_k1(gamma, scale)
    assert k1 > scale
    assert kl_from_k1(k1, scale) == pytest.approx(gamma, rel=1e-9, abs=1e-9)


@given(ratio=st.floats(1.0 + 1e-6, 1e5), scale=st.floats(1e-3, 1e3))
def test_k1_round_trip_through_gamma(ratio, scale):
    k1 = ratio * scale
    recovered = solve_k1(kl_from_k1(k1, scale), scale)
    assert recovered == pytest.approx(k1, rel=1e-9)


# ----------------------------------------------------------------- profile

def test_profile_constructors_agree():
    a = AttackProfile.solve(2.0, BASE)
    b = AttackProfile.from_k1(a.k1, BASE)
    assert b.gamma == pytest.approx(a.gamma, abs=1e-10)
    assert b.mu_star == a.mu_star


def test_profile_rejects_k1_at_or_below_scale():
    with pytest.raises(ValueError, match="attack distribution undefined"):
        AttackProfile(gamma=1.0, k1=20.0, base=BASE)
    with pytest.raises(ValueError, match="attack distribution undefined"):
        AttackProfile(gamma=1.0, k1=5.0, base=BASE)


def test_profile_rejects_negative_budget():
    with pytest.raises(ValueError, match="stealth budget must be non-negative, got -1.0"):
        AttackProfile(gamma=-1.0, k1=26.0, base=BASE)


def test_profile_requires_noise_to_hide_in():
    with pytest.raises(ValueError, match="positive noise scale"):
        AttackProfile(gamma=1.0, k1=1.0, base=PrivacyParams(0.0, 1.0))


def test_tilted_mean_shift_is_a_python_float():
    shift = tilted_mean_shift(26.0, 20.0)
    assert type(shift) is float
    assert shift == 2.0 * 20.0 * 20.0 * 26.0 / (26.0 * 26.0 - 20.0 * 20.0)


@pytest.mark.parametrize("k1, scale, match", [
    (2e-170, 1e-170, "not finite"),  # both squares underflow to 0: 0 / 0
    (2e160, 1e160, "not finite"),  # b^2 overflows
    (1.15e155, 20.0, "not finite"),  # k1^2 overflows: the shift would read 0.0
    (1e-160, 1e-170, "not finite"),  # only b^2 underflows: the shift would read 0.0
    (math.nan, 1.0, None),
    (2.0, math.nan, None),
], ids=["underflow", "overflow", "k1-overflow", "b-underflow", "nan-k1", "nan-scale"])
def test_tilted_mean_shift_out_of_range_raises_without_warning(k1, scale, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            tilted_mean_shift(k1, scale)


def test_impact_operating_point():
    profile = AttackProfile.solve(2.0, BASE)
    assert optimal_impact(profile) == pytest.approx(110.0, rel=0.05)
    assert profile.mean_shift == pytest.approx(76.82, rel=0.05)


def test_impact_shift_equals_closed_form():
    profile = AttackProfile.from_k1(26.0, BASE)
    b, k1 = 20.0, 26.0
    assert profile.mean_shift == pytest.approx(2.0 * b * b * k1 / (k1 * k1 - b * b), rel=1e-12)


def test_impact_collapses_for_weak_tilt():
    profile = AttackProfile.from_k1(1e8 * 20.0, BASE)
    assert abs(profile.mu_star - BASE.theta) < 1e-5


def test_impact_theta_equivariance():
    shifted = PrivacyParams(2.0, 0.1, theta=BASE.theta + 100.0)
    a = AttackProfile.solve(2.0, BASE)
    b = AttackProfile.solve(2.0, shifted)
    assert b.mu_star == pytest.approx(a.mu_star + 100.0, rel=1e-12)


def test_impact_increases_with_budget():
    shifts = [AttackProfile.solve(g, BASE).mean_shift for g in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(shifts, shifts[1:]))


def test_impact_scales_with_noise():
    # More noise to hide in means more stealthy room: the shift is
    # proportional to the scale at fixed budget.
    small = AttackProfile.solve(1.0, PrivacyParams(1.0, 1.0))
    big = AttackProfile.solve(1.0, PrivacyParams(1.0, 0.1))
    assert big.mean_shift == pytest.approx(10.0 * small.mean_shift, rel=1e-9)


# ---------------------------------------------------------------- sampling

def test_sample_mean_matches_closed_form():
    base = PrivacyParams(1.0, 1.0, theta=0.0)
    profile = AttackProfile.from_k1(2.0, base)
    x = sample_attack_noise(profile, derive_rng(23, "attack-mean"), size=1_000_000)
    b, k1 = 1.0, 2.0
    mean = 2.0 * b * b * k1 / (k1 * k1 - b * b)
    var = 2.0 * b * b * k1 * k1 * (k1 * k1 + b * b) / (k1 * k1 - b * b) ** 2
    band = 3.0 * math.sqrt(var / 1_000_000)
    assert abs(x.mean() - mean) < band


def test_sample_variance_matches_closed_form():
    base = PrivacyParams(1.0, 1.0, theta=0.0)
    profile = AttackProfile.from_k1(2.0, base)
    x = sample_attack_noise(profile, derive_rng(29, "attack-var"), size=1_000_000)
    b, k1 = 1.0, 2.0
    var = 2.0 * b * b * k1 * k1 * (k1 * k1 + b * b) / (k1 * k1 - b * b) ** 2
    assert x.var() == pytest.approx(var, rel=0.02)


def test_sample_theta_shift():
    profile = AttackProfile.from_k1(2.0, PrivacyParams(1.0, 1.0, theta=50.0))
    x = sample_attack_noise(profile, derive_rng(31, "attack-shift"), size=200_000)
    assert x.mean() == pytest.approx(50.0 + 4.0 / 3.0, abs=0.05)


def test_sample_goodness_of_fit():
    base = PrivacyParams(1.0, 1.0, theta=0.0)
    profile = AttackProfile.from_k1(2.0, base)
    x = sample_attack_noise(profile, derive_rng(37, "attack-gof"), size=100_000)
    p_value = oracles.chi_square_gof(
        x, oracles.tilted_density(0.0, 1.0, 2.0), lo=-6.0, hi=14.0, n_bins=50
    )
    assert p_value > 0.01


def test_sample_scalar_shape():
    profile = AttackProfile.solve(2.0, BASE)
    assert isinstance(sample_attack_noise(profile, 0), float)
    assert sample_attack_noise(profile, 0, size=5).shape == (5,)
