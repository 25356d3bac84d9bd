"""Output checks for the benchmark's CLI commands.

Each check returns a list of problems; an empty list means the output
is correct.  The checks parse the files the CLI wrote with the standard
library and numpy, so they do not depend on the code they check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Band for the detect workload's rates.  Across seeds, the code this
# benchmark was defined on gives FPR 0.533 (sd 0.001) and TPR 0.740-0.743
# (sd 0.0025).  Each edge of the band is at least four standard deviations
# away, so a change of RNG streams passes, while an estimator that
# miscounts, e.g. counts warm-up steps as flag chances (FPR 0.515), fails.
FPR_BAND = (0.519, 0.549)
TPR_BAND = (0.725, 0.755)
CALIBRATION_RTOL = 1e-6


@dataclass
class CommandResult:
    """One CLI invocation as the benchmark saw it."""

    name: str
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str = ""
    stderr: str = ""
    problems: list = field(default_factory=list)
    start_scale: float = 1.0  # machine-speed factors for wall_s; see run.Runner
    compute_scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems


def check_command(result: CommandResult, check=None) -> list:
    """Problems of one command: a non-zero exit, then whatever ``check`` finds."""
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return [f"{result.name}: exit code {result.returncode}: {tail[0][:200]}"]
    if check is None:
        return []
    try:
        return [f"{result.name}: {p}" for p in check(result)]
    except (ValueError, KeyError, TypeError, OSError, IndexError) as exc:
        return [f"{result.name}: unreadable output: {exc!r}"]


def stdout_json(result: CommandResult) -> dict:
    return json.loads(result.stdout)


def _read_table(path: str) -> tuple:
    """(metadata, header, data lines) of a CSV with '# key=value' lines on top."""
    meta = {}
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
            line = fh.readline()
        if not line.strip():
            raise ValueError(f"no header in {path}")
        header = [h.strip().lower() for h in line.split(",")]
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    return meta, header, lines


def _columns(lines: list, header: list, names, dtype) -> list:
    """The named columns of ``lines``, parsed as ``dtype``; empty if there are no lines."""
    if not lines:
        return [np.empty(0, dtype=dtype) for _ in names]
    table = np.loadtxt(lines, delimiter=",", usecols=[header.index(n) for n in names],
                       dtype=dtype, ndmin=2)
    return list(table.T)


def check_detect(payload: dict, n_runs: int) -> list:
    problems = []
    rates = payload.get("detection") or {}
    if rates.get("n_runs") != n_runs:
        problems.append(f"n_runs {rates.get('n_runs')} != {n_runs}")
    for key, (lo, hi) in (("false_positive_rate", FPR_BAND), ("true_positive_rate", TPR_BAND)):
        value = rates.get(key)
        if not isinstance(value, (int, float)) or not lo <= value <= hi:
            problems.append(f"{key} {value} outside [{lo}, {hi}]")
    return problems


def check_trace(payload: dict, trace_path: str, windows: dict, n_edges: int,
                n_hours: int) -> list:
    """Trace of the wide workload: size, bit-exact sums, injections, hash."""
    problems = []
    meta, header, lines = _read_table(trace_path)
    if len(lines) != n_edges * n_hours:
        problems.append(f"trace has {len(lines)} rows, want {n_edges * n_hours}")
    if meta.get("config_hash") != payload.get("config_hash"):
        problems.append(
            f"trace config_hash {meta.get('config_hash')} != {payload.get('config_hash')}"
        )
    steps, true, injected, noise, delivered = _columns(
        lines, header, ("timestep", "true_value", "injected", "noise_total", "delivered"),
        np.float64,
    )
    off = np.flatnonzero(true + noise != delivered)
    if off.size:
        problems.append(f"delivered != true_value + noise_total on {off.size} rows")
    child, parent = _columns(lines, header, ("child", "parent"), str)
    n_seen = len(set(zip(child.tolist(), parent.tolist())))
    if n_seen != n_edges:
        problems.append(f"trace has {n_seen} edges, want {n_edges}")
    expected = np.zeros(len(lines), dtype=bool)
    for (c, p), (start, end) in windows.items():
        expected |= (child == c) & (parent == p) & (steps >= start) & (steps < end)
    wrong = np.flatnonzero((injected != 0.0) != expected)
    if wrong.size:
        problems.append(f"injected is non-zero off its windows or zero inside on {wrong.size} rows")
    listed = sorted(payload.get("plaintext_attack_edges", []))
    want = sorted("->".join(e) for e in windows)
    if listed != want:
        problems.append(f"plaintext_attack_edges {listed} != {want}")
    return problems


def check_sweep(payload: dict, csv_path: str, epsilons, gammas, sensitivities) -> list:
    """Every grid cell once; deviation falls in epsilon and rises in gamma and S."""
    problems = []
    shape = (len(epsilons), len(gammas), len(sensitivities))
    cells = shape[0] * shape[1] * shape[2]
    if payload.get("rows") != cells:
        problems.append(f"reported rows {payload.get('rows')} != {cells}")
    meta, header, lines = _read_table(csv_path)
    if meta.get("config_hash") != payload.get("config_hash"):
        problems.append("sweep config_hash differs from the JSON's")
    if len(lines) != cells:
        return problems + [f"sweep has {len(lines)} rows, want {cells}"]
    *coords, deviation = _columns(
        lines, header, ("epsilon", "gamma", "sensitivity", "deviation"), np.float64
    )
    at = []
    for values, axis in zip(coords, (epsilons, gammas, sensitivities)):
        grid = np.array([float(v) for v in axis])
        order = np.argsort(grid)
        pos = np.clip(np.searchsorted(grid[order], values), 0, len(grid) - 1)
        if not np.array_equal(grid[order][pos], values):
            return problems + ["sweep has rows off the parameter grid"]
        at.append(order[pos])
    dev = np.full(shape, np.nan)
    dev[tuple(at)] = deviation
    seen = np.zeros(shape, dtype=int)
    np.add.at(seen, tuple(at), 1)
    if not np.all(seen == 1):
        return problems + [f"sweep misses {int((seen == 0).sum())} grid cells"]
    for axis, sign, name in ((0, -1, "epsilon"), (1, 1, "gamma"), (2, 1, "sensitivity")):
        if not np.all(sign * np.diff(dev, axis=axis) > 0):
            problems.append(f"deviation is not strictly {'falling' if sign < 0 else 'rising'} in {name}")
    return problems


def check_calibration(payload: dict, theta: float, max_deviation: float) -> list:
    predicted = payload["predicted_impact"]
    want = theta + max_deviation
    if not abs(predicted - want) <= CALIBRATION_RTOL * max(1.0, abs(max_deviation)):
        return [f"predicted_impact {predicted} != theta + d = {want}"]
    if not (math.isfinite(payload["epsilon"]) and payload["epsilon"] > 0.0):
        return [f"epsilon {payload['epsilon']} is not finite and positive"]
    return []


def check_epsilon_rises(epsilons: list) -> list:
    """The calibrated epsilon must rise strictly with the stealth budget."""
    if all(a < b for a, b in zip(epsilons, epsilons[1:])):
        return []
    return [f"calibrated epsilon does not rise strictly with gamma: {epsilons}"]


def check_qos(payload: dict, export_paths: list, days: int) -> list:
    problems = []
    if payload["defense_cost"] != payload["privacy_cost"] + payload["security_cost"]:
        problems.append("defense_cost != privacy_cost + security_cost")
    for path in export_paths:
        meta, header, lines = _read_table(path)
        if header != ["timestamp", "value"]:
            problems.append(f"{path}: header {header}")
            continue
        if meta.get("config_hash") != payload.get("config_hash"):
            problems.append(f"{path}: config_hash differs from the JSON's")
        if len(lines) != days:
            problems.append(f"{path}: {len(lines)} rows, want {days}")
            continue
        stamps, values = _columns(lines, header, ("timestamp", "value"), str)
        stamps = stamps.astype("datetime64[us]")
        values = values.astype(np.float64)
        if not (np.all(stamps[1:] > stamps[:-1]) and np.all(np.isfinite(values))):
            problems.append(f"{path}: timestamps not increasing or values not finite")
    return problems
