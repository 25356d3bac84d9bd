"""Shared numerical oracles: quadrature and goodness-of-fit helpers.

These deliberately avoid the package's own closed forms so tests can
cross-check implementations against independent numerics.  The CSV
reader and writers at the end are the row-by-row ingest the column-wise
series.ingest_csv replaced and the csv.writer rows the column-wise
csvio.write_csv replaced, kept as their references, with a per-bucket loop
for series.resample between them; the detector's flags per block come
next, from before gridsim scored a whole stacked pass in reused buffers,
and last the per-node fold GridTopology.plaintext_attack_edges replaced
by a rule on layers.
"""

from __future__ import annotations

import csv
import math
import re
import warnings

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
    """One ISO-8601 UTC stamp; anything else raises ValueError.

    An empty stamp, NaT, 'now', 'today', a zone other than UTC and a
    year outside the whole years datetime64[us] holds are rejected.
    """
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1]
    elif cleaned.endswith("+00:00"):
        cleaned = cleaned[:-6]
    year = re.match(r"[-+]?\d+", cleaned)
    if year is None or not -290307 <= int(year[0]) <= 294246:
        raise ValueError(f"no year in datetime64[us]'s range: {text!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.datetime64(cleaned, "us")
        except UserWarning as exc:
            raise ValueError(str(exc)) from exc


def ingest_csv_by_rows(path) -> MeasurementSeries:
    """Row-by-row measurement CSV reader: one datetime64 and one float per row."""
    rows = []
    with open(path, newline="") as fh:
        try:
            for row in csv.reader(fh):
                if row and not row[0].lstrip().startswith("#"):
                    rows.append(row)
        except csv.Error as exc:  # a field beyond csv.field_size_limit()
            raise ValueError(f"row {len(rows) + 1}: {exc}") from None
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
    )


def resample_by_bucket(series: MeasurementSeries, period: str, how: str) -> tuple:
    """Each hour's or day's present readings added with + from 0.0, left to right in time order,
    and counted; a bucket's mean is sum / count.  Returns the values, NaN where a bucket is
    empty, and the mask of non-empty buckets."""
    unit = "datetime64[h]" if period == "hour" else "datetime64[D]"
    buckets = series.timestamps.astype(unit).astype(np.int64).tolist()  # since the epoch
    first, n = buckets[0], buckets[-1] - buckets[0] + 1
    sums, counts = [0.0] * n, [0] * n
    for bucket, value, present in zip(buckets, series.values.tolist(), series.mask.tolist()):
        if present:
            i = bucket - first
            sums[i] = sums[i] + value
            counts[i] += 1
    values = [math.nan if count == 0 else total / count if how == "mean" else total
              for total, count in zip(sums, counts)]
    return np.array(values), np.array([count > 0 for count in counts])


def write_csv_by_rows(path, header, rows, metadata: dict | None = None) -> None:
    """The row writer: '# key=value' metadata lines, then csv.writer's header and rows."""
    with open(path, "w", newline="") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def trace_rows(trace):
    """A SimTrace's rows one at a time, timestep-major, edges in edge_keys order."""
    stamps = np.datetime_as_string(trace.timestamps, unit="s").tolist()
    floats = (trace.true_values, trace.dp_noise, trace.injected, trace.noise_total, trace.delivered)
    for t, stamp in enumerate(stamps):
        for key in trace.edge_keys:
            yield (t, stamp, *key, *(float(per_edge[key][t]) for per_edge in floats),
                   int(trace.flags[key][t]))


def rolling_deviation_by_row(delivered: np.ndarray, w: int) -> np.ndarray:
    """|delivered - mean of the previous w steps| for steps w.. of a (rows, hours) block."""
    # De-meaned, so the cumsum's rounding error scales with the spread, not the level.
    centred = delivered - delivered.mean(axis=-1, keepdims=True)
    csum = np.concatenate((np.zeros((len(centred), 1)), np.cumsum(centred, axis=-1)), axis=-1)
    rolling = (csum[:, w:-1] - csum[:, :-w - 1]) / w
    return np.abs(centred[:, w:] - rolling)


def rolling_flags_by_row(delivered: np.ndarray, detector) -> np.ndarray:
    """Flags for a (rows, hours) block; each row is one edge's series."""
    w = detector.window
    flags = np.zeros(delivered.shape, dtype=bool)
    if delivered.shape[-1] <= w:
        return flags
    flags[:, w:] = rolling_deviation_by_row(delivered, w) > detector.tau
    return flags


def plaintext_edges_by_fold(topology) -> list:
    """Attacked edges with no policy layer at or below their child, the layers below each node
    folded up the tree edge by edge: in child-layer order a child is complete before it folds."""
    layer = {n.id: n.layer for n in topology.nodes}
    below = {n.id: {n.layer} for n in topology.nodes}
    for e in sorted(topology.edges, key=lambda e: layer[e.child]):
        below[e.parent] |= below[e.child]
    return [e.key for e in topology.attacked_edges()
            if below[e.child].isdisjoint(topology.dp_policy)]
