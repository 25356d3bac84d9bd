"""Shared numerical oracles: quadrature and goodness-of-fit helpers.

These deliberately avoid the package's own closed forms so tests can
cross-check implementations against independent numerics.  The CSV
reader at the end is the row-by-row ingest the column-wise
series.ingest_csv replaced, kept as its reference.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate, stats

from dpgrid.series import MeasurementSeries


def total_mass(pdf, center: float) -> float:
    """Integrate a density over the whole line, split at its kink."""
    left, _ = integrate.quad(pdf, -np.inf, center, limit=400)
    right, _ = integrate.quad(pdf, center, np.inf, limit=400)
    return left + right


def kl_by_quadrature(p_logpdf, q_logpdf, center: float) -> float:
    """KL(p || q) by adaptive quadrature over the whole line.

    Works in log space so far-tail density underflow cannot poison the
    ratio.
    """

    def integrand(y):
        lp = p_logpdf(y)
        return np.exp(lp) * (lp - q_logpdf(y))

    left, _ = integrate.quad(integrand, -np.inf, center, limit=400)
    right, _ = integrate.quad(integrand, center, np.inf, limit=400)
    return left + right


def chi_square_gof(samples: np.ndarray, pdf, lo: float, hi: float, n_bins: int = 50) -> float:
    """p-value of a chi-square test of samples against a fully specified pdf.

    Equal-width bins over [lo, hi] plus two open tail bins; adjacent
    bins are merged until every expected count is at least 5.  The
    distribution is fully specified (no fitted parameters), so the
    statistic has merged_bins - 1 degrees of freedom.
    """
    edges = np.linspace(lo, hi, n_bins + 1)
    n = len(samples)

    probs = [integrate.quad(pdf, -np.inf, lo, limit=400)[0]]
    probs += [integrate.quad(pdf, a, b, limit=200)[0] for a, b in zip(edges[:-1], edges[1:])]
    probs.append(integrate.quad(pdf, hi, np.inf, limit=400)[0])
    expected = np.asarray(probs) * n

    interior, _ = np.histogram(samples, bins=edges)
    observed = np.concatenate(([np.sum(samples < lo)], interior, [np.sum(samples >= hi)]))
    observed = observed.astype(float)

    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:  # fold the leftover tail into the last kept bin
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e

    merged_obs = np.asarray(merged_obs)
    merged_exp = np.asarray(merged_exp)
    statistic = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    dof = len(merged_obs) - 1
    return float(stats.chi2.sf(statistic, dof))


def laplace_density(theta: float, scale: float):
    def pdf(y):
        return np.exp(-np.abs(y - theta) / scale) / (2.0 * scale)

    return pdf


def log_laplace_density(theta: float, scale: float):
    def logpdf(y):
        return -np.abs(y - theta) / scale - np.log(2.0 * scale)

    return logpdf


def tilted_density(theta: float, scale: float, k1: float):
    norm = (k1 * k1 - scale * scale) / (2.0 * scale * k1 * k1)

    def pdf(y):
        z = y - theta
        return norm * np.exp(-np.abs(z) / scale + z / k1)

    return pdf


def log_tilted_density(theta: float, scale: float, k1: float):
    log_norm = np.log((k1 * k1 - scale * scale) / (2.0 * scale * k1 * k1))

    def logpdf(y):
        z = y - theta
        return log_norm - np.abs(z) / scale + z / k1

    return logpdf


_QUALITY_OK = {"", "ok", "good", "1"}


def _parse_timestamp(text: str) -> np.datetime64:
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1]
    elif cleaned.endswith("+00:00"):
        cleaned = cleaned[:-6]
    return np.datetime64(cleaned, "us")


def ingest_csv_by_rows(path, channel: str = "power_kwh") -> MeasurementSeries:
    """Row-by-row measurement CSV reader: one datetime64 and one float per row."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"empty file: {path}")
    header = [c.strip().lower() for c in rows[0]]
    if header not in (["timestamp", "value"], ["timestamp", "value", "quality"]):
        raise ValueError("malformed header: expected 'timestamp,value[,quality]'")
    has_quality = len(header) == 3
    if len(rows) == 1:
        raise ValueError(f"no data rows in {path}")

    timestamps = []
    values = []
    mask = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            timestamps.append(_parse_timestamp(row[0]))
        except ValueError as exc:
            raise ValueError(f"row {lineno}: bad timestamp {row[0]!r}") from exc
        try:
            value = float(row[1])
            present = math.isfinite(value)
        except ValueError:
            value, present = math.nan, False
        if has_quality and row[2].strip().lower() not in _QUALITY_OK:
            present = False
        values.append(value if present else math.nan)
        mask.append(present)

    return MeasurementSeries(
        timestamps=np.array(timestamps, dtype="datetime64[us]"),
        values=np.array(values),
        mask=np.array(mask),
        channel=channel,
    )
