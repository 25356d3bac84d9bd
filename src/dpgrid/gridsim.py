"""Measurement-tree simulation: PMUs feeding concentrators feeding a master.

Readings flow along a tree whose layers are strictly ordered
PMU < PDC < MASTER.  A per-layer policy decides which nodes add
Laplace noise to what they emit; compromised edges additionally carry
one stealthy-attack draw per delivery inside a configured window.  A
rolling-mean deviation detector watches every edge.

True values and noise are carried separately through the tree and
combined exactly once per edge, so every delivered value satisfies
delivered == true + noise_total bit-exactly, where noise_total is the
sum of all privacy draws and injections upstream of that edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import IntEnum
from itertools import product, zip_longest
from operator import attrgetter
from typing import Mapping

import numpy as np

from .adversary import AttackProfile, sample_attack_noise, solve_k1, tilted_mean_shift
from .laplace import PrivacyParams, laplace_from_uniform
from .seeds import derive_rng
from .series import MeasurementSeries, resample, write_csv

QUERY_KINDS = ("hourly_mean", "sum")
_AGGREGATION = {"hourly_mean": "mean", "sum": "sum"}
_TRACE_HEADER = ("timestep", "timestamp", "child", "parent", "true_value",
                 "dp_noise", "injected", "noise_total", "delivered", "flag")
_TRACE_BLOCK_ROWS = 4096
# Bytes of one chunk of detection_rate's runs, at about four float rows per node and edge per run.
_CHUNK_BYTES = 1 << 21


class Layer(IntEnum):
    PMU = 0
    PDC = 1
    MASTER = 2


@dataclass(frozen=True)
class Node:
    id: str
    layer: Layer


@dataclass(frozen=True)
class Edge:
    """Directed link child -> parent, optionally compromised.

    attack_window is a half-open [start, end) in timestep indices; it
    is intersected with the simulated range at run time.  A window of
    None with an attacker set means the whole run is attacked.
    """

    child: str
    parent: str
    attacker: AttackProfile | None = None
    attack_window: tuple | None = None

    def __post_init__(self) -> None:
        if self.attack_window is not None:
            try:
                start, end = self.attack_window
                ok = 0 <= start <= end < math.inf and not any(
                    isinstance(t, bool) or t % 1 for t in (start, end)
                )
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"bad attack window {self.attack_window}")
            object.__setattr__(self, "attack_window", (int(start), int(end)))

    @property
    def key(self) -> tuple:
        return (self.child, self.parent)


@dataclass(frozen=True)
class Detector:
    """Flags |delivered - rolling mean| > tau.

    The rolling mean covers the previous ``window`` deliveries on the
    same edge; the first ``window`` timesteps are never flagged.
    """

    tau: float
    window: int

    def __post_init__(self) -> None:
        if isinstance(self.tau, bool) or not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        w = self.window
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1:
            raise ValueError(f"window must be an integer of at least 1, got {w!r}")


@dataclass(frozen=True)
class GridTopology:
    """Validated measurement tree plus the per-layer privacy policy."""

    nodes: tuple
    edges: tuple
    dp_policy: Mapping[Layer, PrivacyParams] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        edges = tuple(self.edges)
        policy = dict(self.dp_policy)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "dp_policy", policy)

        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        by_id = {n.id: n for n in nodes}
        masters = [n for n in nodes if n.layer == Layer.MASTER]
        if len(masters) != 1:
            raise ValueError(f"topology needs exactly one MASTER node, got {len(masters)}")

        outgoing: dict[str, int] = {n.id: 0 for n in nodes}
        incoming: dict[str, int] = {n.id: 0 for n in nodes}
        for e in edges:
            if e.child not in by_id or e.parent not in by_id:
                raise ValueError(f"edge {e.child} -> {e.parent} references unknown node")
            if by_id[e.child].layer >= by_id[e.parent].layer:
                raise ValueError(
                    f"edge {e.child} -> {e.parent} must go to a strictly higher layer"
                )
            outgoing[e.child] += 1
            incoming[e.parent] += 1
        for n in nodes:
            if n.layer == Layer.MASTER:
                if outgoing[n.id] != 0:
                    raise ValueError("MASTER node cannot have outgoing edges")
            elif outgoing[n.id] != 1:
                raise ValueError(f"node {n.id} needs exactly one parent edge, has {outgoing[n.id]}")
            if n.layer != Layer.PMU and incoming[n.id] == 0:
                raise ValueError(f"aggregating node {n.id} has no children")
        for layer in policy:
            if not isinstance(layer, Layer):
                raise ValueError(f"dp_policy keys must be Layer members, got {layer!r}")

    def pmu_ids(self) -> list:
        return sorted(n.id for n in self.nodes if n.layer == Layer.PMU)

    def without_attackers(self) -> "GridTopology":
        stripped = tuple(replace(e, attacker=None, attack_window=None) for e in self.edges)
        return GridTopology(nodes=self.nodes, edges=stripped, dp_policy=self.dp_policy)

    def attacked_edges(self) -> list:
        return [e for e in self.edges if e.attacker is not None]

    def plaintext_attack_edges(self) -> list:
        """Compromised edges whose carried value has no privacy noise at all.

        An attack there manipulates plaintext telemetry; it is legal to
        simulate but worth surfacing, since no stealth constraint is
        meaningful without noise to hide in.
        """
        attacked = self.attacked_edges()
        if not attacked:
            return []
        layer = {n.id: n.layer for n in self.nodes}
        # Layers at or below each node; in child-layer order a child is complete before it folds.
        below = {n.id: {n.layer} for n in self.nodes}
        for e in sorted(self.edges, key=lambda e: layer[e.child]):
            below[e.parent] |= below[e.child]
        return [e.key for e in attacked if below[e.child].isdisjoint(self.dp_policy)]


@dataclass
class SimTrace:
    """Per-edge time series produced by one simulation run."""

    timestamps: np.ndarray
    kind: str
    seed: int
    edge_keys: tuple
    true_values: dict
    dp_noise: dict
    injected: dict
    noise_total: dict
    delivered: dict
    flags: dict
    plaintext_attack_edges: tuple

    @property
    def n_timesteps(self) -> int:
        return len(self.timestamps)

    def to_csv(self, path, metadata: dict | None = None) -> None:
        """One row per (timestep, edge): timesteps in order, edges in edge_keys order."""
        write_csv(path, _TRACE_HEADER, self._csv_rows(), metadata)

    def _csv_rows(self):
        # Whole timesteps per block, so only one block's Python objects are alive at once.
        keys = self.edge_keys
        stamps = np.datetime_as_string(self.timestamps, unit="s")
        floats = (self.true_values, self.dp_noise, self.injected, self.noise_total, self.delivered)

        def column(per_edge: dict, t: np.ndarray, dtype=np.float64) -> list:
            return np.stack([per_edge[k][t] for k in keys], axis=1, dtype=dtype).ravel().tolist()

        step = max(1, _TRACE_BLOCK_ROWS // max(1, len(keys)))
        for start in range(0, self.n_timesteps if keys else 0, step):
            t = np.arange(start, min(start + step, self.n_timesteps))
            yield from zip(
                np.repeat(t, len(keys)).tolist(),
                np.repeat(stamps[t], len(keys)).tolist(),
                [k[0] for k in keys] * len(t),
                [k[1] for k in keys] * len(t),
                *(column(per_edge, t) for per_edge in floats),
                column(self.flags, t, np.uint8),
            )

    def summary(self) -> dict:
        edges = {}
        for key in self.edge_keys:
            flags = self.flags[key]
            edges["->".join(key)] = {
                "flags": int(flags.sum()),
                "mean_true": float(self.true_values[key].mean()),
                "mean_delivered": float(self.delivered[key].mean()),
                "mean_noise_total": float(self.noise_total[key].mean()),
                "attacked": bool(np.any(self.injected[key] != 0.0)),
            }
        return {
            "kind": self.kind,
            "seed": self.seed,
            "n_timesteps": self.n_timesteps,
            "edges": edges,
            "plaintext_attack_edges": ["->".join(k) for k in self.plaintext_attack_edges],
        }

    def to_json(self, path, metadata: dict | None = None) -> None:
        payload = self.summary()
        if metadata:
            payload["metadata"] = dict(metadata)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _rolling_flags(delivered: np.ndarray, detector: Detector) -> np.ndarray:
    """Flags for a (rows, hours) block; each row is one edge's series."""
    w = detector.window
    flags = np.zeros(delivered.shape, dtype=bool)
    if delivered.shape[-1] <= w:
        return flags
    # De-meaned, so the cumsum's rounding error scales with the spread, not the level.
    centred = delivered - delivered.mean(axis=-1, keepdims=True)
    csum = np.concatenate((np.zeros((len(centred), 1)), np.cumsum(centred, axis=-1)), axis=-1)
    rolling = (csum[:, w:-1] - csum[:, :-w - 1]) / w
    flags[:, w:] = np.abs(centred[:, w:] - rolling) > detector.tau
    return flags


class _Query:
    """One query's inputs, prepared once: hourly grid, walk order and each edge's true value."""

    def __init__(self, topology: GridTopology, series_map: Mapping, kind: str) -> None:
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}")
        pmus = topology.pmu_ids()
        missing = [p for p in pmus if p not in series_map]
        if missing:
            raise ValueError(f"missing measurement series for PMU(s): {', '.join(missing)}")
        self.policy, self.how = topology.dp_policy, _AGGREGATION[kind]
        hourly = {p: resample(series_map[p], "hour", how=self.how) for p in pmus}
        self.timestamps = hourly[pmus[0]].timestamps
        for p in pmus:
            if not np.array_equal(hourly[p].timestamps, self.timestamps):
                raise ValueError("PMU series are not aligned on a common hourly grid")
            gaps = int((~hourly[p].mask).sum())
            if gaps:
                raise ValueError(f"PMU {p} has {gaps} empty hours after resampling")
        # Edge i leaves node i, nodes by layer and id; the MASTER sends nothing, so it is left out.
        self.layer = {nd.id: nd.layer for nd in topology.nodes}
        self.edges = sorted(topology.edges, key=lambda e: (self.layer[e.child], e.child))
        # Children in id order: below the MASTER every child is a PMU, and PMUs sort by id.
        children_of: dict[str, list] = {}
        for i, e in enumerate(self.edges):
            children_of.setdefault(e.parent, []).append(i)
        self.children = [children_of.get(e.child, []) for e in self.edges]
        self.true = []
        for e, kids in zip(self.edges, self.children):
            self.true.append(self._combine([self.true[k] for k in kids]) if kids
                             else hourly[e.child].values)

    def _combine(self, values: list) -> np.ndarray:
        total = np.sum(values, axis=0)
        return total / len(values) if self.how == "mean" else total

    def streams(self, seed: int) -> tuple[list, list]:
        """The call's generators: (index, scale, generator) per noisy node and
        (index, attacker, start, end, generator) per attacked edge whose window meets the run."""
        n = len(self.timestamps)
        nodes = [(i, self.policy[self.layer[e.child]].scale, derive_rng(seed, "node", e.child))
                 for i, e in enumerate(self.edges) if self.layer[e.child] in self.policy]
        edges = [(i, e.attacker, start, min(n, end), derive_rng(seed, "edge", *e.key))
                 for i, e in enumerate(self.edges) if e.attacker is not None
                 for start, end in [e.attack_window or (0, n)] if min(n, end) > start]
        return nodes, edges

    def draws(self, streams: tuple, rows: int) -> tuple[list, dict]:
        """The next `rows` runs of every stream as (rows, hours) blocks: each node's privacy
        draws (zeros outside the policy) and, by edge index, each streamed edge's injections
        (zero outside its window).  A run's row depends only on its stream and its index."""
        nodes, edges = streams
        shape = (rows, len(self.timestamps))
        own = [np.zeros(shape) for _ in self.edges]
        for i, scale, gen in nodes:
            own[i] = laplace_from_uniform(gen.random(shape), scale)
        injected = {}
        for i, attacker, start, end, gen in edges:
            injected[i] = block = np.zeros(shape)
            for row in block:
                row[start:end] = sample_attack_noise(attacker, gen, size=end - start)
        return own, injected

    def walk(self, own: list, injected: dict) -> list:
        """Each edge's noise_total block: the combined noise its child receives, the child's
        own draws and the edge's injection, if any; delivered is true[i] plus it."""
        totals = []
        for i, kids in enumerate(self.children):
            noise = (self._combine([totals[k] for k in kids]) if kids else 0.0) + own[i]
            totals.append(noise + injected[i] if i in injected else noise)
        return totals


def run_query(topology: GridTopology, series_map: Mapping, kind: str,
              detector: Detector | None, seed: int) -> SimTrace:
    """Simulate one pass of the measurement tree over the common hourly grid.

    kind selects both the per-PMU hourly aggregation and how parents
    combine their children ("hourly_mean" averages, "sum" sums).
    Randomness is fully determined by seed; each node and each
    compromised edge gets its own independent stream, so adding or
    reordering siblings never perturbs existing draws.
    """
    query = _Query(topology, series_map, kind)
    own, injected = query.draws(query.streams(seed), 1)
    totals = query.walk(own, injected)
    delivered = [true + noise for true, noise in zip(query.true, totals)]
    flags = [np.zeros(block.shape, dtype=bool) if detector is None
             else _rolling_flags(block, detector) for block in delivered]
    injected = [injected.get(i, np.zeros_like(block)) for i, block in enumerate(own)]
    keys = [e.key for e in query.edges]
    dp, inj, total, hit, flagged = (dict(zip(keys, (block[0] for block in blocks)))
                                    for blocks in (own, injected, totals, delivered, flags))
    return SimTrace(timestamps=query.timestamps, kind=kind, seed=seed, edge_keys=tuple(sorted(keys)),
                    true_values=dict(zip(keys, query.true)), dp_noise=dp, injected=inj,
                    noise_total=total, delivered=hit, flags=flagged,
                    plaintext_attack_edges=tuple(topology.plaintext_attack_edges()))


@dataclass(frozen=True)
class DetectionRates:
    """Paired flag rates; true_positive_rate is None without an attacker."""

    true_positive_rate: float | None
    false_positive_rate: float
    n_runs: int


def detection_rate(topology: GridTopology, series_map: Mapping, kind: str,
                   detector: Detector, n_runs: int, seed: int) -> DetectionRates:
    """Monte-Carlo flag rates over paired attacked/clean runs.

    The call keeps one stream per noisy node and per attacked edge, keyed
    as in run_query; run i is the i-th block of each, so run 0 draws what
    run_query(seed) draws, and the chunks of runs, sized by a byte budget,
    do not change the rates.  A clean run is its attacked run without the
    injections; both passes walk the whole tree.  A MASTER entry in
    dp_policy draws nothing, since no edge carries the MASTER's output.
    The false positive rate counts flags on every edge of the clean runs,
    the true positive rate flags on compromised edges inside their attack
    windows; steps inside the detector warm-up count toward neither.
    """
    if n_runs < 1000:
        raise ValueError(f"n_runs must be at least 1000, got {n_runs}")
    query = _Query(topology, series_map, kind)
    n = len(query.timestamps)
    w = detector.window
    if n <= w:
        raise ValueError(f"series too short for detector warm-up: {n} steps, window {w}")

    streams = query.streams(seed)
    # True positives are scored on attacked edges, over the part of their window past warm-up.
    scored = [(i, max(w, start), end)
              for i, _, start, end, _ in streams[1] if end > max(w, start)]
    rows = max(1, _CHUNK_BYTES // (32 * n * (len(topology.nodes) + len(topology.edges))))
    tp = fp = 0
    for first in range(0, n_runs, rows):
        own, injected = query.draws(streams, min(rows, n_runs - first))
        for true, noise in zip(query.true, query.walk(own, {})):
            fp += int(_rolling_flags(true + noise, detector)[:, w:].sum())
        if scored:
            hit = query.walk(own, injected)
            for i, start, end in scored:
                tp += int(_rolling_flags(query.true[i] + hit[i], detector)[:, start:end].sum())
    fpr = fp / (n_runs * len(topology.edges) * (n - w))
    tp_opportunities = n_runs * sum(end - start for _, start, end in scored)
    tpr = tp / tp_opportunities if tp_opportunities else None
    return DetectionRates(true_positive_rate=tpr, false_positive_rate=fpr, n_runs=n_runs)


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    gamma: float
    sensitivity: float
    theta: float
    k1: float
    mu_star: float
    deviation: float


def impact_sweep(epsilons, gammas, sensitivities, theta: float = 0.0) -> list:
    """Best stealthy mean shift over a parameter grid.

    Returns one SweepPoint per (epsilon, gamma, sensitivity) cell, in
    product order, equal to AttackProfile.solve's.  k1 factorizes as
    scale times a ratio of gamma alone: one root-solve per distinct gamma.
    """
    eps_list = [float(e) for e in epsilons]
    gamma_list = [float(g) for g in gammas]
    sens_list = [float(s) for s in sensitivities]
    if not eps_list or not gamma_list or not sens_list:
        raise ValueError("sweep axes must be non-empty")
    for e, s in zip_longest(eps_list, sens_list, fillvalue=1.0):
        PrivacyParams(s, e, theta)  # the per-cell checks, once per axis value
    # Axes (epsilon, gamma, sensitivity): ravel() walks the product order.
    with np.errstate(all="ignore"):
        scale = np.array(sens_list)[None, None, :] / np.array(eps_list)[:, None, None]
        ratio_of = {g: solve_k1(g, 1.0) for g in dict.fromkeys(gamma_list)}
        k1 = scale * np.array([ratio_of[g] for g in gamma_list])[None, :, None]
        mu_star = (theta + tilted_mean_shift(k1, scale)).ravel().tolist()
    k1 = k1.ravel().tolist()  # the arrays are freed before the points are built
    return [SweepPoint(e, g, s, theta, k, mu, mu - theta)
            for (e, g, s), k, mu in zip(product(eps_list, gamma_list, sens_list), k1, mu_star)]


def sweep_to_csv(points, path, metadata: dict | None = None) -> None:
    header = [f.name for f in fields(SweepPoint)]
    write_csv(path, header, map(attrgetter(*header), points), metadata)


def _params_to_dict(params: PrivacyParams) -> dict:
    return {"sensitivity": params.sensitivity, "epsilon": params.epsilon, "theta": params.theta}


def _expect(value, kind: type, field: str):
    if not isinstance(value, kind):
        expected = "object" if kind is dict else "list"
        raise ValueError(f"{field} must be a JSON {expected}, got {value!r}")
    return value


def _required(data: dict, key: str, where: str):
    if data.get(key) is None:
        raise ValueError(f"{where}.{key} is required and may not be null")
    return data[key]


def _number(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be a number, got {value!r}") from None


def _params_from_dict(data: dict, field: str) -> PrivacyParams:
    _expect(data, dict, field)
    return PrivacyParams(
        sensitivity=_number(_required(data, "sensitivity", field), f"{field}.sensitivity"),
        epsilon=_number(_required(data, "epsilon", field), f"{field}.epsilon"),
        theta=_number(data.get("theta", 0.0), f"{field}.theta"),
    )


def topology_to_dict(topology: GridTopology) -> dict:
    edges = []
    for e in topology.edges:
        entry: dict = {"child": e.child, "parent": e.parent}
        if e.attacker is not None:
            entry["attacker"] = {
                "gamma": e.attacker.gamma,
                **_params_to_dict(e.attacker.base),
            }
            entry["attack_window"] = list(e.attack_window) if e.attack_window else None
        edges.append(entry)
    return {
        "nodes": [{"id": n.id, "layer": n.layer.name} for n in topology.nodes],
        "edges": edges,
        "dp_policy": {
            layer.name: _params_to_dict(params) for layer, params in topology.dp_policy.items()
        },
    }


def topology_from_dict(data: dict) -> GridTopology:
    """Build a topology from its JSON form; ValueError names any malformed field."""

    def parse_layer(name) -> Layer:
        try:
            return Layer[name]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown layer {name!r}; expected one of {[l.name for l in Layer]}"
            ) from None

    _expect(data, dict, "topology")
    nodes = []
    for i, n in enumerate(_expect(data.get("nodes"), list, "topology.nodes")):
        where = f"topology.nodes[{i}]"
        n = _expect(n, dict, where)
        nodes.append(Node(id=str(_required(n, "id", where)),
                          layer=parse_layer(_required(n, "layer", where))))
    edges = []
    for i, e in enumerate(_expect(data.get("edges"), list, "topology.edges")):
        where = f"topology.edges[{i}]"
        e = _expect(e, dict, where)
        attacker = None
        window = None
        if e.get("attacker") is not None:
            spec = _expect(e["attacker"], dict, f"{where}.attacker")
            attacker = AttackProfile.solve(
                _number(_required(spec, "gamma", f"{where}.attacker"), f"{where}.attacker.gamma"),
                _params_from_dict(spec, f"{where}.attacker"),
            )
            if e.get("attack_window") is not None:
                field = f"{where}.attack_window"
                bounds = _expect(e["attack_window"], list, field)
                window = tuple(_number(t, field) for t in bounds)
                whole = [not isinstance(t, bool) and w.is_integer() for t, w in zip(bounds, window)]
                if len(window) != 2 or not all(whole):
                    raise ValueError(f"{field} must be [start, end] of whole timesteps, got {bounds!r}")
        edges.append(Edge(child=str(_required(e, "child", where)),
                          parent=str(_required(e, "parent", where)),
                          attacker=attacker, attack_window=window))
    policy = {
        parse_layer(name): _params_from_dict(params, f"topology.dp_policy.{name}")
        for name, params in _expect(data.get("dp_policy", {}), dict, "topology.dp_policy").items()
    }
    return GridTopology(nodes=tuple(nodes), edges=tuple(edges), dp_policy=policy)


def load_topology(path) -> GridTopology:
    with open(path) as fh:
        return topology_from_dict(json.load(fh))


def save_topology(topology: GridTopology, path) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_dict(topology), fh, indent=2)
        fh.write("\n")
