"""Laplace mechanism for aggregate queries, plus an empirical
indistinguishability audit.

A query with L1 sensitivity ``sensitivity`` released under privacy loss
``epsilon`` gets additive noise drawn from Laplace(0, b) with
b = sensitivity / epsilon.  The density of the released value around
its center theta is

    f0(y) = exp(-|y - theta| / b) / (2 b),

which integrates to one and peaks at 1 / (2 b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .seeds import as_generator

_QUERY_KINDS = ("sum", "mean")

# Histogram bins enter the ratio test only once both sides are at least
# this populated; below that the count ratio is sampling noise.
MIN_BIN_COUNT = 100


@dataclass(frozen=True)
class PrivacyParams:
    """Laplace-mechanism parameters.

    Attributes:
        sensitivity: L1 sensitivity of the query (max change of the
            aggregate when one record changes).  Non-negative.
        epsilon: privacy loss, strictly positive.
        theta: center of the released-value distribution.  For noise
            generation the caller shifts; theta only matters when
            evaluating densities.

    The noise scale is derived, never stored, so the triple cannot
    drift out of sync.
    """

    sensitivity: float
    epsilon: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0.0):
            raise ValueError(f"sensitivity must be finite and non-negative, got {self.sensitivity}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not math.isfinite(self.scale):
            raise ValueError(f"noise scale sensitivity / epsilon is not finite: "
                             f"{self.sensitivity} / {self.epsilon}")

    @property
    def scale(self) -> float:
        """Noise scale b = sensitivity / epsilon."""
        return self.sensitivity / self.epsilon


def params_for_sum(record_bound: float, epsilon: float, theta: float = 0.0) -> PrivacyParams:
    """Parameters for a sum query over records bounded by |x| <= record_bound."""
    return PrivacyParams(sensitivity=record_bound, epsilon=epsilon, theta=theta)


def params_for_mean(
    record_bound: float, n_records: int, epsilon: float, theta: float = 0.0
) -> PrivacyParams:
    """Parameters for a mean query over ``n_records`` bounded records.

    Bounded-contribution convention: one record moves the mean by at
    most record_bound / n_records.
    """
    if n_records <= 0:
        raise ValueError(f"n_records must be positive, got {n_records}")
    return PrivacyParams(sensitivity=record_bound / n_records, epsilon=epsilon, theta=theta)


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of real-valued records."""

    values: tuple

    def __post_init__(self) -> None:
        coerced = tuple(float(v) for v in self.values)
        if any(not math.isfinite(v) for v in coerced):
            raise ValueError("dataset values must be finite")
        object.__setattr__(self, "values", coerced)

    def __len__(self) -> int:
        return len(self.values)


def adjacent(a: Dataset, b: Dataset) -> bool:
    """True when the datasets have equal length and differ in exactly one entry."""
    if len(a) != len(b):
        return False
    return sum(x != y for x, y in zip(a.values, b.values)) == 1


@dataclass(frozen=True)
class NoisyResult:
    """One mechanism release.

    ``noise`` is stored as the representable difference
    released - true_value, so the bookkeeping identity
    released == true_value + noise holds bit-exactly.
    """

    true_value: float
    noise: float
    released: float


def laplace_pdf(y, params: PrivacyParams):
    """Density of the released value at y.

    Requires a strictly positive scale; a zero-sensitivity query has a
    degenerate (point mass) release with no density.
    """
    import numpy as np

    b = params.scale
    if b <= 0.0:
        raise ValueError("scale must be positive to evaluate a density")
    y = np.asarray(y, dtype=float)
    out = np.exp(-np.abs(y - params.theta) / b) / (2.0 * b)
    return float(out) if out.ndim == 0 else out


def sample_laplace(params: PrivacyParams, rng, size=None):
    """Zero-centered Laplace(0, b) noise via inverse transform.

    With u uniform on [-1/2, 1/2):  x = -b * sign(u) * ln(1 - 2|u|).
    Returns a float when size is None, else an ndarray.  The caller
    adds the noise to whatever it is protecting; theta is not applied
    here.
    """
    x = laplace_from_uniform(as_generator(rng).random(size), params.scale)
    return float(x) if size is None else x


def laplace_from_uniform(uniform, scale: float):
    """Laplace(0, scale) noise from uniform [0, 1) draws, elementwise, by the transform above."""
    import numpy as np

    u = uniform - 0.5
    absu = np.abs(u)
    # u == -0.5 (probability 2**-53 per draw) would map to -inf; clip one ulp in.
    absu = np.minimum(absu, np.nextafter(0.5, 0.0))
    return -scale * np.sign(u) * np.log1p(-2.0 * absu)


def _aggregate(dataset: Dataset, kind: str) -> float:
    if len(dataset) == 0:
        raise ValueError("empty query domain")
    if kind not in _QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}; expected one of {_QUERY_KINDS}")
    total = math.fsum(dataset.values)
    return total if kind == "sum" else total / len(dataset)


def dp_query(dataset: Dataset, kind: str, params: PrivacyParams, rng) -> NoisyResult:
    """Release a noisy aggregate of the dataset.

    kind is "sum" or "mean".  Noise is one Laplace draw at scale
    sensitivity / epsilon; the stored noise is the exact difference
    between released and true values.
    """
    true_value = _aggregate(dataset, kind)
    released = true_value + sample_laplace(params, rng)
    return NoisyResult(true_value=true_value, noise=released - true_value, released=released)


@dataclass(frozen=True)
class IndistinguishabilityReport:
    """Outcome of the histogram ratio audit.

    passed is True when every well-populated bin satisfies
    |ln(cX / cX')| <= epsilon + slack with the per-bin sampling slack
    3 * sqrt(1/cX + 1/cX').
    """

    epsilon: float
    max_log_ratio: float
    passed: bool
    n_bins_used: int
    n_trials: int


def indistinguishability_check(
    x: Dataset,
    x_adj: Dataset,
    params: PrivacyParams,
    n_trials: int,
    n_bins: int,
    rng,
    kind: str = "sum",
    scale_override: float | None = None,
) -> IndistinguishabilityReport:
    """Empirically audit the epsilon-indistinguishability guarantee.

    Releases the query n_trials times on each of two adjacent datasets,
    histograms the outputs on shared edges, and compares per-bin count
    ratios against exp(epsilon).  Only bins holding at least
    MIN_BIN_COUNT samples on both sides enter the comparison.

    scale_override replaces the noise scale actually used by the
    mechanism (the claim epsilon stays fixed), which lets the audit
    catch a mechanism that adds less noise than it advertises.
    """
    import numpy as np

    if not adjacent(x, x_adj):
        raise ValueError("datasets not adjacent")
    if n_trials < 100_000:
        raise ValueError(f"n_trials must be at least 100000 for a stable audit, got {n_trials}")
    if n_bins < 3:
        raise ValueError(f"n_bins must be at least 3, got {n_bins}")

    gen = as_generator(rng)
    claimed_scale = params.scale
    if claimed_scale <= 0.0:
        raise ValueError("audit needs a positive noise scale")
    used_scale = claimed_scale if scale_override is None else float(scale_override)
    if used_scale <= 0.0:
        raise ValueError("scale_override must be positive")

    center_a = _aggregate(x, kind)
    center_b = _aggregate(x_adj, kind)
    noise_params = PrivacyParams(sensitivity=used_scale, epsilon=1.0)  # scale == used_scale
    released_a = center_a + sample_laplace(noise_params, gen, size=n_trials)
    released_b = center_b + sample_laplace(noise_params, gen, size=n_trials)

    # Shared edges wide enough to hold essentially all mass of both runs.
    span = 8.0 * max(claimed_scale, used_scale)
    lo = min(center_a, center_b) - span
    hi = max(center_a, center_b) + span
    edges = np.linspace(lo, hi, n_bins + 1)
    counts_a, _ = np.histogram(released_a, bins=edges)
    counts_b, _ = np.histogram(released_b, bins=edges)

    qualified = (counts_a >= MIN_BIN_COUNT) & (counts_b >= MIN_BIN_COUNT)
    if not qualified.any():
        raise ValueError("no well-populated bins; increase n_trials or decrease n_bins")

    ca = counts_a[qualified].astype(float)
    cb = counts_b[qualified].astype(float)
    log_ratios = np.abs(np.log(ca / cb))
    slack = 3.0 * np.sqrt(1.0 / ca + 1.0 / cb)
    passed = bool(np.all(log_ratios <= params.epsilon + slack))
    return IndistinguishabilityReport(
        epsilon=params.epsilon,
        max_log_ratio=float(log_ratios.max()),
        passed=passed,
        n_bins_used=int(qualified.sum()),
        n_trials=int(n_trials),
    )
