"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single summary line with its measured numbers, so a
verbose run doubles as the release checklist.  Tolerances are fixed
here on purpose; loosening them is a design change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from dpgrid.adversary import (
    AttackProfile,
    attack_pdf,
    impact_sweep,
    kl_from_k1,
    optimal_impact,
    sample_attack_noise,
    solve_k1,
)
from dpgrid.bench import run_bench
from dpgrid.calibrate import DesignSpec, calibrate_epsilon
from dpgrid.forecasting import ForecastConfig
from dpgrid.gridsim import Edge, GridTopology, Layer, Node, run_query
from dpgrid.laplace import Dataset, PrivacyParams, indistinguishability_check
from dpgrid.qos import cost_analysis, dp_protect, inject_attack, utility_report
from dpgrid.seeds import derive_rng, derive_seed
from dpgrid.series import resample, synth_pmu

from oracles import chi_square_gof, kl_by_quadrature, log_laplace_density, log_tilted_density

# Shared QoS scenario: four years of hourly readings rolled up to
# daily energy totals, a one-month attack ending 48 days before the
# forecast origin, weekly seasonality.
QOS_DAYS = 1461
QOS_WINDOW = (QOS_DAYS - 78, QOS_DAYS - 48)
QOS_CFG = ForecastConfig(horizon=14, season_length=7)
SENSITIVITY = 2.0


def _qos_variants(seed: int, epsilon: float, gamma: float):
    hourly = synth_pmu(days=QOS_DAYS, seed=derive_seed(seed, "qos-series"))
    daily = resample(hourly, "day", how="sum")
    params = PrivacyParams(SENSITIVITY, epsilon)
    dp = dp_protect(daily, params, seed=seed)
    profile = AttackProfile.solve(gamma, params)
    fdi = inject_attack(dp, profile, QOS_WINDOW, seed=seed)
    return daily, dp, fdi


def test_criterion_01_calibration_round_trip():
    """Calibrating epsilon for a deviation cap, then forward-solving the
    attacker's optimum at that epsilon, recovers the cap to 1e-6
    relative over 1000 random (sensitivity, gamma, cap) tuples in
    under five seconds."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        sens = rng.uniform(0.1, 5.0)
        gamma = rng.uniform(0.01, 5.0)
        cap = rng.uniform(0.1, 200.0)
        result = calibrate_epsilon(DesignSpec(sens, gamma, 0.0, cap))
        k1 = solve_k1(gamma, sens / result.epsilon)
        recovered = optimal_impact(AttackProfile.from_k1(k1, PrivacyParams(sens, result.epsilon)))
        worst = max(worst, abs(recovered - cap) / cap)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    print(f"criterion 1 PASS: worst relative error {worst:.2e} over 1000 tuples in {elapsed:.2f}s")


def test_criterion_02_reference_operating_point():
    """At sensitivity 2, gamma 2, theta 33.18, epsilon 0.1 the optimal
    stealthy deviation lands in [72, 81]; calibrating for deviation
    76.82 returns epsilon in [0.095, 0.110]."""
    profile = AttackProfile.solve(2.0, PrivacyParams(2.0, 0.1, 33.18))
    deviation = profile.mean_shift
    assert 72.0 <= deviation <= 81.0
    result = calibrate_epsilon(DesignSpec(2.0, 2.0, 33.18, 76.82))
    assert 0.095 <= result.epsilon <= 0.110
    print(
        f"criterion 2 PASS: deviation {deviation:.2f} (impact {profile.mu_star:.2f}), "
        f"calibrated epsilon {result.epsilon:.4f}"
    )


def test_criterion_03_kl_closed_form_vs_quadrature():
    """The closed-form stealth divergence matches direct quadrature of
    the attack-vs-honest density ratio within 1e-6 on 20 (scale, k1)
    pairs."""
    pairs = [
        (scale, ratio * scale)
        for scale in (0.5, 1.0, 5.0, 20.0, 100.0)
        for ratio in (1.05, 1.3, 2.0, 5.0)
    ]
    assert len(pairs) >= 10
    worst = 0.0
    for scale, k1 in pairs:
        closed = kl_from_k1(k1, scale)
        quad = kl_by_quadrature(
            log_tilted_density(0.0, scale, k1), log_laplace_density(0.0, scale), 0.0
        )
        worst = max(worst, abs(closed - quad))
    assert worst <= 1e-6
    print(f"criterion 3 PASS: worst |closed-form - quadrature| = {worst:.2e} on {len(pairs)} pairs")


def test_criterion_04_attack_sampler_fidelity():
    """A million attack-noise draws at the reference operating point
    reproduce the closed-form mean within 3 sigma and pass a
    chi-square goodness-of-fit test against the attack density at
    p > 0.01."""
    params = PrivacyParams(2.0, 0.1, 33.18)
    profile = AttackProfile.solve(2.0, params)
    n = 1_000_000
    samples = sample_attack_noise(profile, derive_rng(404, "crit4"), size=n)

    b, k1 = params.scale, profile.k1
    var = 2.0 * b * b * k1 * k1 * (k1 * k1 + b * b) / (k1 * k1 - b * b) ** 2
    band = 3.0 * math.sqrt(var / n)
    mean_err = abs(samples.mean() - profile.mu_star)
    assert mean_err < band

    left = 1.0 / (1.0 / b + 1.0 / k1)
    right = 1.0 / (1.0 / b - 1.0 / k1)
    p_value = chi_square_gof(
        samples,
        lambda y: attack_pdf(y, profile),
        lo=params.theta - 10.0 * left,
        hi=params.theta + 10.0 * right,
        n_bins=50,
    )
    assert p_value > 0.01
    print(
        f"criterion 4 PASS: mean error {mean_err:.4f} (3 sigma = {band:.4f}), "
        f"GOF p = {p_value:.3f} at N={n}"
    )


def test_criterion_05_indistinguishability_audit():
    """The histogram audit on adjacent datasets passes at epsilon 0.1
    and 1.0 with one million trials each, and fails when the mechanism
    adds only half the required noise."""
    x = Dataset((12.0, 7.5, 9.0, 14.2, 8.8))
    x_adj = Dataset((12.0, 7.5, 9.0, 14.2, 10.8))
    ratios = {}
    for eps in (0.1, 1.0):
        params = PrivacyParams(2.0, eps)
        report = indistinguishability_check(
            x, x_adj, params, n_trials=1_000_000, n_bins=60, rng=derive_rng(505, "crit5", eps)
        )
        assert report.passed, f"audit failed for honest mechanism at epsilon={eps}"
        ratios[eps] = report.max_log_ratio

    params = PrivacyParams(2.0, 1.0)
    violated = indistinguishability_check(
        x, x_adj, params, n_trials=1_000_000, n_bins=60,
        rng=derive_rng(505, "crit5v"), scale_override=params.scale / 2.0,
    )
    assert not violated.passed, "audit accepted an under-noised mechanism"
    print(
        "criterion 5 PASS: honest max log-ratios "
        f"{ratios[0.1]:.3f} (eps 0.1), {ratios[1.0]:.3f} (eps 1.0); "
        f"half-noise ratio {violated.max_log_ratio:.3f} rejected"
    )


def test_criterion_06_sweep_monotonicity():
    """Across a full parameter grid the optimal deviation is strictly
    decreasing in epsilon, increasing in gamma, increasing in
    sensitivity; near the reference operating point one sensitivity
    step moves the deviation more than one gamma step."""
    epsilons = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    gammas = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]
    sensitivities = [0.5, 1.0, 2.0, 3.0, 4.0]
    points = impact_sweep(epsilons, gammas, sensitivities, theta=33.18)
    dev = {(p.epsilon, p.gamma, p.sensitivity): p.deviation for p in points}

    for g in gammas:
        for s in sensitivities:
            col = [dev[(e, g, s)] for e in epsilons]
            assert all(a > b for a, b in zip(col, col[1:])), f"not decreasing in epsilon at {(g, s)}"
    for e in epsilons:
        for s in sensitivities:
            col = [dev[(e, g, s)] for g in gammas]
            assert all(a < b for a, b in zip(col, col[1:])), f"not increasing in gamma at {(e, s)}"
    for e in epsilons:
        for g in gammas:
            col = [dev[(e, g, s)] for s in sensitivities]
            assert all(a < b for a, b in zip(col, col[1:])), f"not increasing in sensitivity at {(e, g)}"

    sens_step = dev[(0.1, 2.0, 3.0)] - dev[(0.1, 2.0, 2.0)]
    gamma_step = dev[(0.1, 3.0, 2.0)] - dev[(0.1, 2.0, 2.0)]
    assert sens_step > gamma_step > 0.0
    print(
        f"criterion 6 PASS: monotone on {len(points)} grid points; "
        f"sensitivity step {sens_step:.2f} > gamma step {gamma_step:.2f}"
    )


def test_criterion_07_cost_ordering_across_epsilon():
    """On the four-year scenario with a stealthy one-month attack,
    privacy cost exceeds security cost at every epsilon in
    {0.1, ..., 0.9}, and the total defense cost at epsilon 0.9 is
    below the one at epsilon 0.1 (each averaged over 32 seeds)."""
    eps_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    n_seeds = 32
    privacy = dict.fromkeys(eps_grid, 0.0)
    security = dict.fromkeys(eps_grid, 0.0)
    for seed in range(n_seeds):
        hourly = synth_pmu(days=QOS_DAYS, seed=derive_seed(seed, "qos-series"))
        daily = resample(hourly, "day", how="sum")
        for eps in eps_grid:
            params = PrivacyParams(SENSITIVITY, eps)
            dp = dp_protect(daily, params, seed=seed)
            profile = AttackProfile.solve(0.5, params)
            fdi = inject_attack(dp, profile, QOS_WINDOW, seed=seed)
            report = cost_analysis(daily, dp, fdi, QOS_CFG, epsilon=eps)
            privacy[eps] += report.privacy_cost / n_seeds
            security[eps] += report.security_cost / n_seeds

    for eps in eps_grid:
        assert privacy[eps] > security[eps], f"privacy <= security at epsilon={eps}"
    defense = {e: privacy[e] + security[e] for e in eps_grid}
    assert defense[0.9] < defense[0.1]
    print(
        "criterion 7 PASS: privacy > security at all 9 epsilons; "
        f"defense {defense[0.1]:.2f} (eps 0.1) -> {defense[0.9]:.2f} (eps 0.9), 32 seeds"
    )


def test_criterion_08_attack_negligible_in_forecast():
    """A short stealthy attack that ends well before the forecast
    origin shifts the forecast by less than 5% relative to the
    noise-protected baseline forecast."""
    worst = 0.0
    for seed in range(12):
        _, dp, fdi = _qos_variants(seed, epsilon=0.1, gamma=0.5)
        report = utility_report(dp, fdi, QOS_WINDOW, QOS_CFG)
        worst = max(worst, report.relative_deviation)
    assert worst < 0.05
    print(f"criterion 8 PASS: max relative forecast deviation {worst:.4f} over 12 seeds")


def test_criterion_09_two_layer_noise_variance():
    """With the same Laplace scale b applied at the sensor and the
    concentrator layer, the delivered-minus-true variance at the top
    edge is 4 b^2 within 5%, pooled over 10^4 seeded runs."""
    params = PrivacyParams(2.0, 0.5)  # b = 4
    topo = GridTopology(
        nodes=(Node("pmu1", Layer.PMU), Node("pdc1", Layer.PDC), Node("m", Layer.MASTER)),
        edges=(Edge("pmu1", "pdc1"), Edge("pdc1", "m")),
        dp_policy={Layer.PMU: params, Layer.PDC: params},
    )
    series = {"pmu1": synth_pmu(days=1, noise_level=0.0, weekend_factor=1.0, seed=0)}
    chunks = []
    for i in range(10_000):
        trace = run_query(topo, series, "hourly_mean", None, seed=derive_seed(909, "run", i))
        # delivered - true == noise_total holds exactly by construction
        chunks.append(trace.noise_total[("pdc1", "m")])
    pooled = np.concatenate(chunks)
    expected = 4.0 * params.scale**2
    rel_err = abs(pooled.var() - expected) / expected
    assert rel_err < 0.05
    print(
        f"criterion 9 PASS: pooled variance {pooled.var():.2f} vs 4b^2 = {expected:.0f} "
        f"({rel_err:.2%} off, {pooled.size} samples from 10^4 runs)"
    )


def test_criterion_10_clear_vs_encrypted_manipulation():
    """Manipulating a plaintext noisy batch is at least 10x faster than
    the decrypt-modify-reencrypt path under AES-256-CBC for batches of
    10^4 values and up, with the whole benchmark finishing inside 60
    seconds."""
    t0 = time.perf_counter()
    attacker = AttackProfile.solve(2.0, PrivacyParams(2.0, 0.1))
    speedups = {}
    for size in (10_000, 100_000):
        batch = synth_pmu(days=math.ceil(size / 24), seed=1).values[:size]
        result = run_bench(batch, reps=30, seed=0, attacker=attacker)
        speedups[size] = result.speedup
        assert result.speedup >= 10.0, (
            f"speedup {result.speedup:.1f}x below 10x at batch {size}: dp_seconds "
            f"{result.dp_seconds!r}, aes_seconds {result.aes_seconds!r}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "criterion 10 PASS: speedups "
        + ", ".join(f"{v:.1f}x @ {k}" for k, v in speedups.items())
        + f" in {elapsed:.1f}s"
    )
