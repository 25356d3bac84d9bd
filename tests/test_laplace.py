import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgrid.laplace import (
    Dataset,
    PrivacyParams,
    adjacent,
    dp_query,
    indistinguishability_check,
    laplace_pdf,
    params_for_mean,
    params_for_sum,
    sample_laplace,
)
from dpgrid.seeds import derive_rng

import oracles


# ---------------------------------------------------------------- parameters

def test_scale_is_sensitivity_over_epsilon():
    p = PrivacyParams(sensitivity=2.0, epsilon=0.1)
    assert p.scale == pytest.approx(20.0)


@given(
    sensitivity=st.floats(0.0, 1e6),
    epsilon=st.floats(1e-6, 1e6),
    theta=st.floats(-1e9, 1e9),
)
def test_params_accept_valid_ranges(sensitivity, epsilon, theta):
    p = PrivacyParams(sensitivity=sensitivity, epsilon=epsilon, theta=theta)
    assert p.scale == sensitivity / epsilon


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sensitivity": -1.0, "epsilon": 1.0},
        {"sensitivity": 1.0, "epsilon": 0.0},
        {"sensitivity": 1.0, "epsilon": -2.0},
        {"sensitivity": math.inf, "epsilon": 1.0},
        {"sensitivity": 1.0, "epsilon": math.nan},
        {"sensitivity": 1.0, "epsilon": 1.0, "theta": math.inf},
    ],
)
def test_params_reject_invalid(kwargs):
    with pytest.raises(ValueError):
        PrivacyParams(**kwargs)


def test_mean_query_sensitivity_convention():
    assert params_for_sum(2.0, epsilon=0.5).sensitivity == 2.0
    assert params_for_mean(2.0, n_records=40, epsilon=0.5).sensitivity == pytest.approx(0.05)
    with pytest.raises(ValueError):
        params_for_mean(2.0, n_records=0, epsilon=0.5)


# ----------------------------------------------------------------- density

def test_pdf_peak_is_half_inverse_scale():
    p = PrivacyParams(sensitivity=1.0, epsilon=1.0, theta=3.0)
    assert laplace_pdf(3.0, p) == 0.5
    p2 = PrivacyParams(sensitivity=2.0, epsilon=0.1, theta=0.0)
    assert laplace_pdf(0.0, p2) == pytest.approx(1.0 / 40.0)


def test_pdf_decays_one_scale_per_e_fold():
    p = PrivacyParams(sensitivity=1.0, epsilon=0.5, theta=1.0)  # b = 2
    assert laplace_pdf(3.0, p) == pytest.approx(math.exp(-1.0) / 4.0)
    assert laplace_pdf(-1.0, p) == pytest.approx(math.exp(-1.0) / 4.0)


def test_pdf_integrates_to_one():
    p = PrivacyParams(sensitivity=2.0, epsilon=0.1, theta=33.18)
    mass = oracles.total_mass(lambda y: laplace_pdf(y, p), center=33.18)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_pdf_requires_positive_scale():
    with pytest.raises(ValueError):
        laplace_pdf(0.0, PrivacyParams(sensitivity=0.0, epsilon=1.0))


# ----------------------------------------------------------------- sampling

def test_sample_moments():
    p = PrivacyParams(sensitivity=1.0, epsilon=1.0)
    x = sample_laplace(p, derive_rng(101, "moments"), size=1_000_000)
    assert abs(x.mean()) < 0.005
    assert abs(x.var() - 2.0) < 0.02


def test_sample_deterministic_per_seed():
    p = PrivacyParams(sensitivity=1.0, epsilon=2.0)
    a = sample_laplace(p, derive_rng(5, "s"), size=100)
    b = sample_laplace(p, derive_rng(5, "s"), size=100)
    c = sample_laplace(p, derive_rng(6, "s"), size=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_scalar_shape():
    p = PrivacyParams(sensitivity=1.0, epsilon=1.0)
    assert isinstance(sample_laplace(p, 0), float)
    assert sample_laplace(p, 0, size=7).shape == (7,)


def test_tiny_scale_concentrates():
    # Laplace tail: P(|x| > 10 b) = e^-10, so well over 99.99% of draws
    # land within ten scales of zero.
    p = PrivacyParams(sensitivity=1.0, epsilon=1e9)
    x = sample_laplace(p, derive_rng(3, "tiny"), size=1_000_000)
    assert np.mean(np.abs(x) < 10.0 * p.scale) > 0.9999


# ----------------------------------------------------------------- datasets

def test_adjacent_requires_single_differing_entry():
    a = Dataset((1.0, 2.0, 3.0))
    assert adjacent(a, Dataset((1.0, 2.0, 4.0)))
    assert not adjacent(a, Dataset((1.0, 2.0, 3.0)))
    assert not adjacent(a, Dataset((1.0, 5.0, 4.0)))
    assert not adjacent(a, Dataset((1.0, 2.0)))


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError):
        Dataset((1.0, math.nan))


# ----------------------------------------------------------------- dp_query

def test_query_empty_domain():
    with pytest.raises(ValueError, match="empty query domain"):
        dp_query(Dataset(()), "sum", PrivacyParams(1.0, 1.0), rng=0)


def test_query_unknown_kind():
    with pytest.raises(ValueError, match="unknown query kind"):
        dp_query(Dataset((1.0,)), "median", PrivacyParams(1.0, 1.0), rng=0)


def test_query_true_values():
    d = Dataset((1.0, 2.0, 3.0))
    p = PrivacyParams(1.0, 1.0)
    assert dp_query(d, "sum", p, rng=0).true_value == 6.0
    assert dp_query(d, "mean", p, rng=0).true_value == 2.0


def test_query_zero_noise_limit():
    # Huge epsilon drives the scale to zero: the release converges on
    # the true aggregate.
    d = Dataset((1.0, 2.0, 3.0))
    r = dp_query(d, "sum", PrivacyParams(1.0, 1e12), rng=1)
    assert abs(r.released - 6.0) < 1e-9


@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["sum", "mean"]),
)
def test_query_bookkeeping_identity(values, seed, kind):
    r = dp_query(Dataset(tuple(values)), kind, PrivacyParams(1.0, 0.5), rng=seed)
    assert r.released - r.true_value == r.noise  # representable difference, exact


def test_query_sum_linearity():
    d = Dataset((1.5, -2.25, 4.0))
    scaled = Dataset(tuple(2.0 * v for v in d.values))
    p = PrivacyParams(1.0, 1.0)
    assert dp_query(scaled, "sum", p, rng=0).true_value == 2.0 * dp_query(d, "sum", p, rng=0).true_value


def test_query_noise_shrinks_with_epsilon():
    d = Dataset((10.0, 20.0, 30.0))
    gen = derive_rng(17, "ratio")
    loose = [abs(dp_query(d, "sum", PrivacyParams(1.0, 0.1), gen).noise) for _ in range(400)]
    tight = [abs(dp_query(d, "sum", PrivacyParams(1.0, 1.0), gen).noise) for _ in range(400)]
    assert np.mean(loose) > 3.0 * np.mean(tight)


# ----------------------------------------------- indistinguishability audit

def _adjacent_pair(delta: float):
    return Dataset((10.0, 20.0, 30.0)), Dataset((10.0, 20.0, 30.0 + delta))


def test_indistinguishability_honest_mechanism_passes():
    x, x_adj = _adjacent_pair(1.0)
    report = indistinguishability_check(
        x, x_adj, PrivacyParams(1.0, 1.0), n_trials=200_000, n_bins=60, rng=7
    )
    assert report.passed
    assert report.n_bins_used > 0
    assert report.epsilon == 1.0


def test_indistinguishability_under_noised_mechanism_fails():
    x, x_adj = _adjacent_pair(1.0)
    p = PrivacyParams(1.0, 1.0)
    report = indistinguishability_check(
        x, x_adj, p, n_trials=200_000, n_bins=60, rng=7, scale_override=p.scale / 2.0
    )
    assert not report.passed
    assert report.max_log_ratio > p.epsilon


def test_indistinguishability_ratio_grows_with_epsilon():
    x, x_adj = _adjacent_pair(1.0)
    ratios = [
        indistinguishability_check(
            x, x_adj, PrivacyParams(1.0, eps), n_trials=300_000, n_bins=40, rng=11
        ).max_log_ratio
        for eps in (0.1, 0.5, 1.0)
    ]
    assert ratios[0] < ratios[1] < ratios[2]


def test_indistinguishability_requires_adjacent():
    x = Dataset((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="datasets not adjacent"):
        indistinguishability_check(x, x, PrivacyParams(1.0, 1.0), 100_000, 40, rng=0)


def test_indistinguishability_requires_enough_trials():
    x, x_adj = _adjacent_pair(1.0)
    with pytest.raises(ValueError, match="n_trials"):
        indistinguishability_check(x, x_adj, PrivacyParams(1.0, 1.0), 10_000, 40, rng=0)


def test_indistinguishability_rejects_too_few_bins_and_zero_scale_override():
    x, x_adj = _adjacent_pair(1.0)
    with pytest.raises(ValueError, match="n_bins must be at least 3, got 2"):
        indistinguishability_check(x, x_adj, PrivacyParams(1.0, 1.0), 100_000, 2, rng=0)
    with pytest.raises(ValueError, match="scale_override must be positive"):
        indistinguishability_check(
            x, x_adj, PrivacyParams(1.0, 1.0), 100_000, 40, rng=0, scale_override=0.0
        )


def test_indistinguishability_needs_populated_bins():
    x, x_adj = _adjacent_pair(1.0)
    with pytest.raises(ValueError, match="well-populated"):
        indistinguishability_check(
            x, x_adj, PrivacyParams(1.0, 1.0), n_trials=100_000, n_bins=20_000, rng=0
        )
