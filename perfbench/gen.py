"""Seeded inputs for the benchmark workloads.

Uses the standard library and numpy only, never dpgrid itself, so the
bytes a workload reads stay fixed while the program under test changes.
The same seed always writes byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Shape of an hourly household load in kWh; the 15-minute readings of
# the wide workload are a quarter of it plus jitter.
_DAILY_PROFILE = np.array(
    [22.0, 20.0, 19.0, 18.0, 18.0, 19.0, 24.0, 30.0, 34.0, 32.0, 30.0, 30.0,
     31.0, 30.0, 29.0, 29.0, 31.0, 35.0, 42.0, 46.0, 44.0, 38.0, 30.0, 25.0]
)

WIDE_PDCS = 5
WIDE_PMUS_PER_PDC = 20
WIDE_DAYS = 30
WIDE_READINGS_PER_HOUR = 4
WIDE_BAD_FRACTION = 0.01
WIDE_ATTACK_LEN = 100


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2**63 - 1), *label.encode()])


def _policy(sensitivity: float, epsilon: float) -> dict:
    return {"sensitivity": sensitivity, "epsilon": epsilon, "theta": 0.0}


def detect_topology() -> dict:
    """1 MASTER, 2 PDCs, 6 PMUs; noise at PMU and PDC; one attacked PMU edge."""
    nodes = [{"id": "master", "layer": "MASTER"}]
    edges = []
    for d in range(2):
        pdc = f"pdc{d}"
        nodes.append({"id": pdc, "layer": "PDC"})
        edges.append({"child": pdc, "parent": "master"})
        for k in range(3):
            pmu = f"pmu{3 * d + k}"
            nodes.append({"id": pmu, "layer": "PMU"})
            edges.append({"child": pmu, "parent": pdc})
    edges[1]["attacker"] = {"gamma": 2.0, **_policy(2.0, 0.5)}
    edges[1]["attack_window"] = [100, 200]
    return {
        "nodes": nodes,
        "edges": edges,
        "dp_policy": {"PMU": _policy(2.0, 0.5), "PDC": _policy(2.0, 1.0)},
    }


def wide_topology() -> dict:
    """1 MASTER, 5 PDCs x 20 PMUs; noise at PDC only; first PMU edge per PDC attacked."""
    nodes = [{"id": "master", "layer": "MASTER"}]
    edges = []
    for d in range(WIDE_PDCS):
        pdc = f"pdc{d}"
        nodes.append({"id": pdc, "layer": "PDC"})
        edges.append({"child": pdc, "parent": "master"})
        for k in range(WIDE_PMUS_PER_PDC):
            pmu = wide_pmu_id(d, k)
            nodes.append({"id": pmu, "layer": "PMU"})
            edge = {"child": pmu, "parent": pdc}
            if k == 0:
                start = WIDE_ATTACK_LEN * (d + 1)
                edge["attacker"] = {"gamma": 1.0, **_policy(2.0, 0.5)}
                edge["attack_window"] = [start, start + WIDE_ATTACK_LEN]
            edges.append(edge)
    return {"nodes": nodes, "edges": edges, "dp_policy": {"PDC": _policy(2.0, 0.5)}}


def wide_pmu_id(pdc: int, k: int) -> str:
    return f"pmu{pdc}_{k:02d}"


def attacked_windows(topology: dict) -> dict:
    """{(child, parent): (start, end)} for every attacked edge."""
    return {
        (e["child"], e["parent"]): tuple(e["attack_window"])
        for e in topology["edges"]
        if e.get("attacker") is not None
    }


def quarter_hour_csv(seed: int, label: str, days: int = WIDE_DAYS) -> str:
    """A 15-minute ``timestamp,value,quality`` CSV with about 1% bad rows.

    Every hour keeps at least one good reading, so hourly resampling
    never yields an empty hour.
    """
    gen = _rng(seed, label)
    per_hour = WIDE_READINGS_PER_HOUR
    hours = days * 24
    n = hours * per_hour
    base = np.repeat(np.tile(_DAILY_PROFILE, days), per_hour) / per_hour
    values = base * (1.0 + 0.05 * gen.standard_normal(n))
    bad = gen.random(n) < WIDE_BAD_FRACTION
    by_hour = bad.reshape(hours, per_hour)
    by_hour[by_hour.all(axis=1), gen.integers(per_hour)] = False
    start = np.datetime64("2015-01-01T00:00", "m")
    stamps = np.datetime_as_string(start + 15 * np.arange(n), unit="s")
    lines = ["timestamp,value,quality"]
    lines += [
        f"{s},{v:.4f},{'bad' if b else 'ok'}" for s, v, b in zip(stamps, values, bad)
    ]
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> int:
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return len(text.encode())


def write_detect(workdir: str) -> dict:
    """Write the detect topology; returns paths and input sizes."""
    topo = detect_topology()
    path = os.path.join(workdir, "detect_topology.json")
    size = _write(path, json.dumps(topo, indent=2) + "\n")
    return {"topology": path, "topology_dict": topo, "files": 1, "rows": 0, "bytes": size}


def write_wide(workdir: str, seed: int) -> dict:
    """Write the wide topology and one 15-minute CSV per PMU."""
    topo = wide_topology()
    path = os.path.join(workdir, "wide_topology.json")
    total = _write(path, json.dumps(topo, indent=2) + "\n")
    series_dir = os.path.join(workdir, "series")
    os.makedirs(series_dir, exist_ok=True)
    series = {}
    rows = 0
    for d in range(WIDE_PDCS):
        for k in range(WIDE_PMUS_PER_PDC):
            pmu = wide_pmu_id(d, k)
            csv_path = os.path.join(series_dir, f"{pmu}.csv")
            text = quarter_hour_csv(seed, pmu)
            total += _write(csv_path, text)
            rows += text.count("\n") - 1
            series[pmu] = csv_path
    return {
        "topology": path,
        "topology_dict": topo,
        "series": series,
        "files": 1 + len(series),
        "rows": rows,
        "bytes": total,
    }
