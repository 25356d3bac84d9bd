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
from dataclasses import asdict, dataclass, field, replace
from enum import IntEnum
from itertools import chain, product, repeat, tee
from typing import Iterator, Mapping

import numpy as np

from .adversary import AttackProfile, sample_attack_noise
from .csvio import csv_lines, quote, read_input, write_json, write_shares
from .laplace import PrivacyParams, laplace_from_uniform
from .seeds import derive_rng

QUERY_KINDS = ("hourly_mean", "sum")
_AGGREGATION = {"hourly_mean": "mean", "sum": "sum"}
_TRACE_HEADER = ("timestep", "timestamp", "child", "parent", "true_value",
                 "dp_noise", "injected", "noise_total", "delivered", "flag")
# Bytes of one chunk of detection_rate's runs, at four float rows per node and edge per run.  That
# covers each edge's draws and injections, the stack both walks write into, and the detector's
# cumsum and deviations; the stack and the detector's buffers are allocated once per call.
_CHUNK_BYTES = 1 << 21
# The fewest trace rows a share of SimTrace.to_csv is given.  A fork, and the copy of its spill
# file back, cost about what writing 5,000 rows in one process would: on 2 vCPUs, with slices of
# wide's trace (105 edges, medians of 31 alternating rounds), 4,200 rows took 11.2 ms in one
# process and 13.8 ms in two shares, 8,400 rows 18.0 and 20.0 ms, 10,500 rows 24.4 and 22.7 ms,
# 16,800 rows 33.0 and 29.7 ms, and 75,600 rows (15 rounds) 162 and 100 ms.
_FORK_ROWS = 8192


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
            if n.layer != Layer.MASTER and outgoing[n.id] != 1:
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
        layer = {n.id: n.layer for n in self.nodes}
        # Every aggregating node has children, each in a strictly lower layer, and the MASTER is
        # nobody's child: so the layers at or below a child are exactly the layers up to its own.
        return [e.key for e in self.attacked_edges()
                if all(p > layer[e.child] for p in self.dp_policy)]


@dataclass
class SimTrace:
    """Per-edge time series produced by one simulation run.

    Each dict maps an edge's key to its row over the hours.  The injected rows of the edges
    that carry no injections are one shared row of +0.0 that cannot be written; an attacked
    edge's row is its own.
    """

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
        """One row per (timestep, edge): timesteps in order, edges in edge_keys order.

        The timesteps are cut into contiguous shares, written across the CPUs by
        csvio.write_shares, one share per _FORK_ROWS rows at most.  Within a share the columns
        interleave lazily, so no row exists before it is written.  Flags are written as 0 or 1
        from the bytes of each column as bools, and node ids through csvio.quote.  Each edge's
        float column takes its texts, all of them repr's, from one of three sources, chosen by
        the bits of the column's slice in the share: "0.0" repeated where every value is +0.0;
        for a delivered slice with true_value's bits, true_value's own texts, shared through
        itertools.tee; and repr of each value otherwise.  Each choice gives repr's texts, so
        the bytes do not depend on the cut.
        """
        keys = self.edge_keys
        pairs = [f"{quote(c)},{quote(p)}" for c, p in keys]

        def texts(values: np.ndarray) -> Iterator[str]:
            return map(float.__repr__, values) if values.view(np.int64).any() else \
                repeat("0.0", len(values))

        def per_edge(columns: list) -> Iterator[str]:
            return chain.from_iterable(zip(*columns))

        def lines(first: int, last: int) -> Iterator[str]:
            true, delivered = [], []
            for k in keys:
                values = self.true_values[k][first:last]
                column = texts(values)
                if np.array_equal(self.delivered[k][first:last].view(np.int64),
                                  values.view(np.int64)):
                    column, copy = tee(column)
                else:
                    copy = texts(self.delivered[k][first:last])
                true.append(column)
                delivered.append(copy)
            stamps = np.datetime_as_string(self.timestamps[first:last], unit="s").tolist()
            return csv_lines((
                map(",".join, product(map("{},{}".format, range(first, last), stamps), pairs)),
                per_edge(true),
                *(per_edge([texts(arrays[k][first:last]) for k in keys])
                  for arrays in (self.dp_noise, self.injected, self.noise_total)),
                per_edge(delivered),
                per_edge([map("01".__getitem__,
                              self.flags[k][first:last].astype(bool, copy=False).tobytes())
                          for k in keys]),
            ))

        write_shares(path, _TRACE_HEADER, self.n_timesteps, lines,
                     self.n_timesteps * len(keys) // _FORK_ROWS, metadata)

    def summary(self) -> dict:
        edges = {}
        for key in self.edge_keys:
            flags = self.flags[key]
            edges["->".join(key)] = {
                "flags": int(flags.sum()),
                "mean_true": float(_mean(self.true_values[key])),
                "mean_delivered": float(_mean(self.delivered[key])),
                "mean_noise_total": float(_mean(self.noise_total[key])),
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
        write_json(path, self.summary(), metadata)


def _mean(values: np.ndarray, axis: int | None = None):
    """The sum over axis divided by n, np.mean's bits, and where that sum overflows, the mean of
    the values scaled by 2**-ceil(log2 n) and scaled back: np.mean's rounding without the
    exponent limit."""
    n = values.size if axis is None else values.shape[axis]
    with np.errstate(over="ignore"):
        mean = np.add.reduce(values, axis) / n
        over = ~np.isfinite(mean)
        if over.any():
            scale = 2.0 ** math.ceil(math.log2(n))
            mean = np.where(over, np.add.reduce(values / scale, axis) / n * scale, mean)
    return mean


def _work_buffers(shape: tuple, w: int) -> tuple:
    """_deviations' buffers for blocks of up to `shape` (..., hours): each row's cumsum
    after a zero column, and its deviations past the w-step warm-up."""
    *lead, n = shape
    return np.zeros((*lead, n + 1)), np.empty((*lead, n - w))


def _deviations(block: np.ndarray, w: int, csum, dev) -> np.ndarray:
    """|delivered - mean of the previous w steps| for steps w.. of each row of a
    (..., hours) block, into dev, where step t is column t - w.

    The block is centred in place; csum and dev are views of _work_buffers with the
    block's leading shape, and hold nothing between calls but csum's zeros.
    """
    # De-meaned, so the cumsum's rounding error scales with the spread, not the level.
    np.subtract(block, _mean(block, axis=-1)[..., None], out=block)
    np.cumsum(block, axis=-1, out=csum[..., 1:])
    np.subtract(csum[..., w:-1], csum[..., :-w - 1], out=dev)
    np.true_divide(dev, w, out=dev)
    np.subtract(block[..., w:], dev, out=dev)
    return np.abs(dev, out=dev)


class _Query:
    """One query's inputs and random streams, prepared once: hourly grid, walk order and each
    edge's true value, a (1, hours) row of an (edges, 1, hours) array that broadcasts over runs."""

    def __init__(self, topology: GridTopology, series_map: Mapping, kind: str, seed: int) -> None:
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}")
        pmus = topology.pmu_ids()
        missing = [p for p in pmus if p not in series_map]
        if missing:
            raise ValueError(f"missing measurement series for PMU(s): {', '.join(missing)}")
        self.how = _AGGREGATION[kind]
        # The first PMU's stamps are the grid: whole hours from the first one on, none skipped.
        self.timestamps = series_map[pmus[0]].timestamps
        n = len(self.timestamps)
        if not n or not np.array_equal(self.timestamps,
                                       self.timestamps[0].astype("datetime64[h]") + np.arange(n)):
            raise ValueError(f"PMU {pmus[0]}'s series is not hourly: resample it to hours first, "
                             f"as resample(series, 'hour', how=...) does")
        for p in pmus:
            if not np.array_equal(series_map[p].timestamps, self.timestamps):
                raise ValueError(f"PMU {p}'s series is not on PMU {pmus[0]}'s hourly grid: PMU "
                                 f"series must be resampled to a common hourly grid first")
            gaps = int((~series_map[p].mask).sum())
            if gaps:
                raise ValueError(f"PMU {p} has {gaps} empty hours after resampling")
        # Edge i leaves node i, nodes by layer and id; the MASTER sends nothing, so it is left out.
        layer = {nd.id: nd.layer for nd in topology.nodes}
        self.edges = sorted(topology.edges, key=lambda e: (layer[e.child], e.child))
        # Children in id order: below the MASTER every child is a PMU, and PMUs sort by id.
        children_of: dict[str, list] = {}
        for i, e in enumerate(self.edges):
            children_of.setdefault(e.parent, []).append(i)
        self.children = [children_of.get(e.child, []) for e in self.edges]
        self.true = np.empty((len(self.edges), 1, len(self.timestamps)))
        for i, (e, kids) in enumerate(zip(self.edges, self.children)):
            if not kids:
                self.true[i] = series_map[e.child].values
                continue
            with np.errstate(over="ignore"):
                self.true[i] = self._combine(self.true[kids])
            if not np.isfinite(self.true[i]).all():  # a mean is representable: only a sum overflows
                raise ValueError(f"edge {'->'.join(e.key)}: the sum of its children's true values "
                                 f"overflows")
        # (index, layer, scale, generator) per noisy node, and (index, attacker, start, end,
        # generator) per attacked edge whose window meets the run; the MASTER sends nothing, so
        # has no stream.
        policy = topology.dp_policy
        self.noisy = [(i, layer[e.child], policy[layer[e.child]].scale,
                       derive_rng(seed, "node", e.child))
                      for i, e in enumerate(self.edges) if layer[e.child] in policy]
        self.attacks = [(i, e.attacker, start, min(n, end), derive_rng(seed, "edge", *e.key))
                        for i, e in enumerate(self.edges) if e.attacker is not None
                        for start, end in [e.attack_window or (0, n)] if min(n, end) > start]

    def _combine(self, values: np.ndarray) -> np.ndarray:
        return _mean(values, axis=0) if self.how == "mean" else np.sum(values, axis=0)

    def draws(self, rows: int) -> tuple[np.ndarray, dict]:
        """The next `rows` runs of every stream: each node's privacy draws in one (edges, rows,
        hours) array (zeros outside the policy) and, by edge index, each attacked edge's injections
        (zero outside its window).  A run's row depends only on its stream and its index."""
        own = np.zeros((len(self.edges), rows, len(self.timestamps)))
        with np.errstate(over="raise"):
            try:
                for i, layer, scale, gen in self.noisy:
                    own[i] = laplace_from_uniform(gen.random(own.shape[1:]), scale)
            except FloatingPointError:
                raise ValueError(f"node {self.edges[i].child} in layer {layer.name}: its Laplace "
                                 f"draws at noise scale {scale!r} overflow") from None
        injected = {}
        for i, attacker, start, end, gen in self.attacks:
            injected[i] = block = np.zeros(own.shape[1:])
            for row in block:
                row[start:end] = sample_attack_noise(attacker, gen, size=end - start)
        return own, injected

    def skip(self, runs: int) -> None:
        """Moves every stream past its next `runs` runs, where draws(runs) would leave it.  A
        uniform double takes one PCG64 output, so each noisy node's generator advances; the attack
        noise's exponential draws take a varying number, so each skipped injection is drawn."""
        for *_, gen in self.noisy:
            gen.bit_generator.advance(runs * len(self.timestamps))
        for _, attacker, start, end, gen in self.attacks:
            for _ in range(runs):
                sample_attack_noise(attacker, gen, size=end - start)

    def walk(self, own: np.ndarray, injected: dict, out: np.ndarray) -> np.ndarray:
        """Writes each edge's noise_total into out[i]: the combined noise its child receives,
        the child's own draws and the edge's injection, if any; delivered is true[i] plus it."""
        for i, kids in enumerate(self.children):
            np.add(self._combine(out[kids]) if kids else 0.0, own[i], out=out[i])
            if i in injected:
                out[i] += injected[i]
        return out


def run_query(topology: GridTopology, series_map: Mapping, kind: str,
              detector: Detector | None, seed: int) -> SimTrace:
    """Simulate one pass of the measurement tree over the common hourly grid.

    Each PMU's series must be hourly, as resample(series, "hour",
    how=...) returns it: every PMU on the same continuous grid of whole
    hours, with no empty hour.  A series that is not, an empty one
    included, is refused with a ValueError that names its PMU.  kind
    selects how parents combine their children ("hourly_mean" averages,
    "sum" sums).
    Randomness is fully determined by seed; each node and each
    compromised edge gets its own independent stream, so adding or
    reordering siblings never perturbs existing draws.
    """
    query = _Query(topology, series_map, kind, seed)
    own, injected = query.draws(1)
    totals = query.walk(own, injected, np.empty_like(own))
    delivered = query.true + totals
    # One (1, hours) row per edge; the detector's warm-up steps are never flagged.
    flags = np.zeros(delivered.shape, dtype=bool)
    if detector is not None and flags.shape[-1] > detector.window:
        # Each edge's row is scored in one row of buffers that every edge reuses.
        w = detector.window
        row = np.empty(delivered.shape[1:])
        work = _work_buffers(row.shape, w)
        for hit, flag in zip(delivered, flags):
            np.copyto(row, hit)
            np.greater(_deviations(row, w, *work), detector.tau, out=flag[:, w:])
    # Every unattacked edge's injections are one shared zero row, which cannot be written.
    zero = np.zeros(own.shape[1:])
    zero.setflags(write=False)
    injected = [injected.get(i, zero) for i in range(len(own))]
    keys = [e.key for e in query.edges]
    true, dp, inj, total, hit, flag = (dict(zip(keys, (block[0] for block in blocks))) for blocks
                                       in (query.true, own, injected, totals, delivered, flags))
    return SimTrace(timestamps=query.timestamps, kind=kind, seed=seed, edge_keys=tuple(sorted(keys)),
                    true_values=true, dp_noise=dp, injected=inj, noise_total=total, delivered=hit,
                    flags=flag, plaintext_attack_edges=tuple(topology.plaintext_attack_edges()))


@dataclass(frozen=True)
class DetectionRates:
    """Paired flag rates; true_positive_rate is None without an attacker."""

    true_positive_rate: float | None
    false_positive_rate: float
    n_runs: int


def detection_rate(topology: GridTopology, series_map: Mapping, kind: str,
                   detector: Detector, n_runs: int, seed: int) -> DetectionRates:
    """Monte-Carlo flag rates over paired attacked/clean runs.

    Each PMU's series must be hourly, as resample(series, "hour",
    how=...) returns it, and is refused by name as run_query refuses
    it otherwise.  The call keeps one stream per noisy node and per
    attacked edge, keyed as in run_query; run i is the i-th block of
    each, so run 0 draws what run_query(seed) draws, and the chunks of runs, sized by a byte budget,
    do not change the rates.  A clean run is its attacked run without the
    injections; both passes walk the whole tree.  A MASTER entry in
    dp_policy draws nothing, since no edge carries the MASTER's output.
    The false positive rate counts flags on every edge of the clean runs,
    the true positive rate flags on compromised edges inside their attack
    windows; steps inside the detector warm-up count toward neither.

    The runs are cut into contiguous shares of whole chunks by
    shares.run, one per CPU the process may run on and never more than
    there are chunks.  This process scores the first share and a forked
    child each other one, from its streams moved past the runs before
    it; the counts are integers, so the rates do not depend on how the
    runs are split.
    """
    from . import shares

    if n_runs < 1000:
        raise ValueError(f"n_runs must be at least 1000, got {n_runs}")
    query = _Query(topology, series_map, kind, seed)
    n = len(query.timestamps)
    w = detector.window
    if n <= w:
        raise ValueError(f"series too short for detector warm-up: {n} steps, window {w}")

    # True positives are scored on attacked edges, over the part of their window past warm-up.
    scored = [(i, max(w, start), end)
              for i, _, start, end, _ in query.attacks if end > max(w, start)]
    rows = max(1, _CHUNK_BYTES // (32 * n * (len(topology.nodes) + len(topology.edges))))

    def share(first: int, last: int) -> tuple[int, int]:
        # Chunks first..last - 1, from the streams moved past the runs before them.
        first, last = (min(n_runs, chunk * rows) for chunk in (first, last))
        query.skip(first)
        return _flag_counts(query, detector, scored, rows, last - first)

    tp, fp = map(sum, zip(*shares.run(-(-n_runs // rows), share)))
    fpr = fp / (n_runs * len(topology.edges) * (n - w))
    tp_opportunities = n_runs * sum(end - start for _, start, end in scored)
    tpr = tp / tp_opportunities if tp_opportunities else None
    return DetectionRates(true_positive_rate=tpr, false_positive_rate=fpr, n_runs=n_runs)


def _flag_counts(query: _Query, detector: Detector, scored: list, rows: int,
                 runs: int) -> tuple[int, int]:
    """(true, false) positive flags of the next `runs` runs of the query's streams, in chunks of
    up to `rows` runs."""
    n, w = len(query.timestamps), detector.window
    # The stack a pass is walked into, one (runs, hours) layer per edge, and the detector's
    # buffers: allocated once, so no chunk allocates anything of the stack's size.
    stack = np.empty((len(query.edges), min(rows, runs), n))
    work = _work_buffers(stack.shape, w)
    tp = fp = 0
    for first in range(0, runs, rows):
        r = min(rows, runs - first)
        own, injected = query.draws(r)
        clean = query.walk(own, {}, stack[:, :r])
        clean += query.true
        fp += int(np.count_nonzero(
            _deviations(clean, w, *(b[:, :r] for b in work)) > detector.tau))
        if scored:
            # The walk reads the children's noise totals, so true values go in after it.
            hit = query.walk(own, injected, stack[:, :r])
            for i, start, end in scored:
                hit[i] += query.true[i]
                dev = _deviations(hit[i], w, *(b[i, :r] for b in work))
                tp += int(np.count_nonzero(dev[:, start - w:end - w] > detector.tau))
    return tp, fp


_JSON_NAMES = {dict: "object", list: "list", str: "string"}


def _expect(value, kind: type, field: str):
    if not isinstance(value, kind):
        raise ValueError(f"{field} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _required(data: dict, key: str, where: str):
    if data.get(key) is None:
        raise ValueError(f"{where}.{key} is required and may not be null")
    return data[key]


def _number(value, field: str) -> float:
    """float(value) of a JSON number: not a string, nor true or false, which float would read."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{field} must be a number, got {value!r}")


def _at(field: str, make, *args):
    """make(*args), a ValueError prefixed by the JSON path of the field the arguments came from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _params_from_dict(data: dict, field: str) -> PrivacyParams:
    _expect(data, dict, field)
    return _at(field, PrivacyParams,
               _number(_required(data, "sensitivity", field), f"{field}.sensitivity"),
               _number(_required(data, "epsilon", field), f"{field}.epsilon"),
               _number(data.get("theta", 0.0), f"{field}.theta"))


def topology_to_dict(topology: GridTopology) -> dict:
    edges = []
    for e in topology.edges:
        entry: dict = {"child": e.child, "parent": e.parent}
        if e.attacker is not None:
            entry["attacker"] = {"gamma": e.attacker.gamma, **asdict(e.attacker.base)}
            entry["attack_window"] = list(e.attack_window) if e.attack_window else None
        edges.append(entry)
    return {
        "nodes": [{"id": n.id, "layer": n.layer.name} for n in topology.nodes],
        "edges": edges,
        "dp_policy": {layer.name: asdict(params) for layer, params in topology.dp_policy.items()},
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
        nodes.append(Node(id=_expect(_required(n, "id", where), str, f"{where}.id"),
                          layer=parse_layer(_required(n, "layer", where))))
    edges = []
    for i, e in enumerate(_expect(data.get("edges"), list, "topology.edges")):
        where = f"topology.edges[{i}]"
        e = _expect(e, dict, where)
        attacker = None
        window = None
        if e.get("attacker") is not None:
            path = f"{where}.attacker"
            spec = _expect(e["attacker"], dict, path)
            gamma = _number(_required(spec, "gamma", path), f"{path}.gamma")
            attacker = _at(path, AttackProfile.solve, gamma, _params_from_dict(spec, path))
            if e.get("attack_window") is not None:
                field = f"{where}.attack_window"
                bounds = _expect(e["attack_window"], list, field)
                window = tuple(_number(t, field) for t in bounds)
                if len(window) != 2 or not all(w.is_integer() for w in window):
                    raise ValueError(f"{field} must be [start, end] of whole timesteps, got {bounds!r}")
        child, parent = (_expect(_required(e, key, where), str, f"{where}.{key}")
                         for key in ("child", "parent"))
        edges.append(_at(where, Edge, child, parent, attacker, window))
    policy = {
        parse_layer(name): _params_from_dict(params, f"topology.dp_policy.{name}")
        for name, params in _expect(data.get("dp_policy", {}), dict, "topology.dp_policy").items()
    }
    return GridTopology(nodes=tuple(nodes), edges=tuple(edges), dp_policy=policy)


def load_topology(path) -> GridTopology:
    return _load_topology(path)[0]


def _load_topology(path) -> tuple[GridTopology, str]:
    """load_topology's topology and the sha256 hexdigest of the bytes it was read from, decoded
    as open(path) decodes them, so a JSON error's position is the same.  JSON nested deeper than
    the parser's recursion limit is a ValueError that names the file."""
    stream, digest = read_input(path)
    try:
        data = json.load(stream)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    return topology_from_dict(data), digest


def save_topology(topology: GridTopology, path) -> None:
    write_json(path, topology_to_dict(topology))
