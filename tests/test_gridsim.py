import json
import math
import os
import tracemalloc
import warnings
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpgrid import gridsim
from dpgrid.adversary import AttackProfile, impact_sweep, sample_attack_noise, sweep_to_csv
from dpgrid.gridsim import (
    DetectionRates,
    Detector,
    Edge,
    GridTopology,
    Layer,
    Node,
    detection_rate,
    load_topology,
    run_query,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from dpgrid.laplace import PrivacyParams, laplace_from_uniform
from dpgrid.seeds import derive_rng
from dpgrid.series import MeasurementSeries, resample, synth_pmu
from oracles import plaintext_edges_by_fold, rolling_deviation_by_row, rolling_flags_by_row
from test_golden import DETECTION_SHA256, _attacked_tree, _sha256_json

FLAT = np.full(24, 30.0)


def flat_series(days, level=30.0, start="2021-01-01"):
    return synth_pmu(
        days=days, profile=np.full(24, level), noise_level=0.0, weekend_factor=1.0,
        seed=0, start=start,
    )


def two_pmu_topology(dp=None, attacker=None, window=None):
    nodes = (
        Node("pmu1", Layer.PMU),
        Node("pmu2", Layer.PMU),
        Node("pdc1", Layer.PDC),
        Node("master", Layer.MASTER),
    )
    edges = (
        Edge("pmu1", "pdc1", attacker=attacker, attack_window=window),
        Edge("pmu2", "pdc1"),
        Edge("pdc1", "master"),
    )
    return GridTopology(nodes=nodes, edges=edges, dp_policy=dp or {})


def chain_topology(dp=None, attacker=None, window=None):
    nodes = (Node("pmu1", Layer.PMU), Node("pdc1", Layer.PDC), Node("master", Layer.MASTER))
    edges = (
        Edge("pmu1", "pdc1", attacker=attacker, attack_window=window),
        Edge("pdc1", "master"),
    )
    return GridTopology(nodes=nodes, edges=edges, dp_policy=dp or {})


# Wirings of two_pmu_topology's nodes for windowed_topology.
TWO_LAYER = (("pmu1", "pdc1"), ("pmu2", "pdc1"), ("pdc1", "master"))
DIRECT = (("pmu1", "pdc1"), ("pmu2", "master"), ("pdc1", "master"))  # pmu2 beside the PDC


# -------------------------------------------------------------- validation

def test_topology_validation_errors():
    pmu, pdc, master = Node("a", Layer.PMU), Node("b", Layer.PDC), Node("m", Layer.MASTER)
    with pytest.raises(ValueError, match="unique"):
        GridTopology((pmu, Node("a", Layer.PDC), master), (Edge("a", "m"),))
    with pytest.raises(ValueError, match="exactly one MASTER"):
        GridTopology((pmu, pdc), (Edge("a", "b"),))
    with pytest.raises(ValueError, match="unknown node"):
        GridTopology((pmu, master), (Edge("a", "ghost"),))
    with pytest.raises(ValueError, match="strictly higher layer"):
        GridTopology((pmu, pdc, master), (Edge("b", "a"), Edge("a", "m"), Edge("b", "m")))
    with pytest.raises(ValueError, match="strictly higher layer"):  # out of the MASTER
        GridTopology((pmu, pdc, master), (Edge("a", "b"), Edge("b", "m"), Edge("m", "b")))
    with pytest.raises(ValueError, match="exactly one parent edge"):
        GridTopology((pmu, master), ())
    with pytest.raises(ValueError, match="no children"):
        GridTopology((pmu, pdc, master), (Edge("a", "m"), Edge("b", "m")))
    with pytest.raises(ValueError, match="dp_policy keys must be Layer members"):
        GridTopology((pmu, master), (Edge("a", "m"),), {"PMU": PrivacyParams(1.0, 1.0)})
    for window in ((10.5, 20.5), (True, 5), (-1, 5), (5, 4), (0, math.inf), (0, math.nan),
                   (1, 2, 3), (1,), 5, "ab", (None, 3)):
        with pytest.raises(ValueError, match="bad attack window"):
            Edge("a", "m", attack_window=window)


def test_detector_validation():
    with pytest.raises(ValueError):
        Detector(tau=0.0, window=10)
    with pytest.raises(ValueError):
        Detector(tau=1.0, window=0)
    for window in (2.5, True):
        with pytest.raises(ValueError, match="window must be an integer"):
            Detector(tau=6.0, window=window)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        Detector(True, 5)


def test_missing_series_lists_pmus():
    topo = two_pmu_topology()
    with pytest.raises(ValueError, match="pmu2"):
        run_query(topo, {"pmu1": flat_series(2)}, "hourly_mean", None, seed=0)


def test_misaligned_grids_rejected():
    topo = two_pmu_topology()
    series = {"pmu1": flat_series(2), "pmu2": flat_series(2, start="2021-02-01")}
    with pytest.raises(ValueError, match="common hourly grid"):
        run_query(topo, series, "hourly_mean", None, seed=0)


def half_past_with_a_gap():
    ts = np.array(["2021-01-01T00:30", "2021-01-01T02:30"], dtype="datetime64[us]")
    return MeasurementSeries(ts, np.array([30.0, 30.0]), np.array([True, True]))


def test_empty_hours_rejected():
    topo = chain_topology()
    with pytest.raises(ValueError, match="PMU pmu1 has 1 empty hours"):
        run_query(topo, {"pmu1": resample(half_past_with_a_gap(), "hour")}, "hourly_mean", None,
                  seed=0)


def _not_hourly(case):
    hourly = flat_series(2)
    stamps, values = hourly.timestamps, hourly.values
    if case == "quarter-hour":
        stamps = stamps[0] + np.arange(4 * len(values)) * np.timedelta64(15, "m")
        values = np.repeat(values, 4)
    elif case == "half-past":
        stamps = stamps + np.timedelta64(30, "m")
    elif case == "hour-missing":
        stamps, values = np.delete(stamps, 5), np.delete(values, 5)
    elif case == "empty":
        stamps, values = stamps[:0], values[:0]
    elif case == "half-past-with-a-gap":
        return half_past_with_a_gap()
    return MeasurementSeries(stamps, values, np.ones(len(values), dtype=bool))


@pytest.mark.parametrize("faulty", ["pmu1", "pmu2"])
@pytest.mark.parametrize("case", ["quarter-hour", "half-past", "hour-missing", "empty",
                                  "half-past-with-a-gap"])
def test_series_that_are_not_hourly_are_refused_by_name(case, faulty):
    """run_query and detection_rate take hourly series and resample none: a series off the whole
    hours, or with an hour's row left out, is refused, and the error names its PMU.  pmu1's
    stamps are the grid, so its error says what an hourly series is; pmu2's is not on that grid."""
    series = {"pmu1": flat_series(2), "pmu2": flat_series(2), faulty: _not_hourly(case)}
    topo = two_pmu_topology(dp={Layer.PMU: PrivacyParams(2.0, 0.5)})
    message = {"pmu1": "^PMU pmu1's series is not hourly: resample it to hours first",
               "pmu2": "^PMU pmu2's series is not on PMU pmu1's hourly grid"}[faulty]
    with pytest.raises(ValueError, match=message):
        run_query(topo, series, "hourly_mean", Detector(6.0, 4), seed=0)
    with pytest.raises(ValueError, match=message):
        detection_rate(topo, series, "sum", Detector(6.0, 4), n_runs=1000, seed=0)


@settings(derandomize=True, max_examples=800, deadline=None)
@given(start=st.dates(), days=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(gridsim.QUERY_KINDS))
def test_run_query_is_unchanged_by_resampling_an_hourly_series(start, days, seed, kind):
    """resample to hours is the identity on synth_pmu's hourly series, so run_query gives the
    same bits on a series as on its resampled copy, in every field of the trace."""
    series = {p: synth_pmu(days=days, seed=seed + k, start=start.isoformat())
              for k, p in enumerate(("pmu1", "pmu2"))}
    how = gridsim._AGGREGATION[kind]
    resampled = {p: resample(s, "hour", how=how) for p, s in series.items()}
    params = PrivacyParams(2.0, 0.5)
    topo = two_pmu_topology(dp={Layer.PMU: params, Layer.PDC: params},
                            attacker=AttackProfile.solve(2.0, params), window=(3, 30))
    a, b = (run_query(topo, s, kind, Detector(6.0, 4), seed=seed) for s in (series, resampled))
    assert a.timestamps.tobytes() == b.timestamps.tobytes()
    assert (a.kind, a.seed, a.edge_keys, a.plaintext_attack_edges) == \
        (b.kind, b.seed, b.edge_keys, b.plaintext_attack_edges)
    for name in ("true_values", "dp_noise", "injected", "noise_total", "delivered", "flags"):
        left, right = getattr(a, name), getattr(b, name)
        assert list(left) == list(right)
        assert all(left[k].tobytes() == right[k].tobytes() for k in left), name


def test_a_laplace_draw_that_overflows_names_its_node():
    """A finite scale near the float limit overflows as the draws are multiplied out: the query
    names the node, its layer and the scale, and numpy warns of nothing."""
    topo = chain_topology(dp={Layer.PMU: PrivacyParams(1e308, 1.0)})
    message = "^node pmu1 in layer PMU: its Laplace draws at noise scale 1e\\+308 overflow$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            run_query(topo, {"pmu1": flat_series(2)}, "hourly_mean", Detector(6.0, 4), seed=0)
        with pytest.raises(ValueError, match=message):
            detection_rate(topo, {"pmu1": flat_series(2)}, "hourly_mean", Detector(6.0, 4),
                           n_runs=1000, seed=0)


# ------------------------------------------------------------ core pipeline

def test_noiseless_pipeline_is_identity():
    topo = two_pmu_topology()
    series = {"pmu1": flat_series(2, 30.0), "pmu2": flat_series(2, 60.0)}
    trace = run_query(topo, series, "hourly_mean", None, seed=0)
    assert np.all(trace.delivered[("pmu1", "pdc1")] == 30.0)
    assert np.all(trace.delivered[("pdc1", "master")] == 45.0)
    for key in trace.edge_keys:
        assert np.all(trace.noise_total[key] == 0.0)
        assert not trace.flags[key].any()


def test_sum_kind_aggregates_by_sum():
    topo = two_pmu_topology()
    series = {"pmu1": flat_series(2, 30.0), "pmu2": flat_series(2, 60.0)}
    trace = run_query(topo, series, "sum", None, seed=0)
    assert np.all(trace.delivered[("pdc1", "master")] == 90.0)


def test_delivery_bookkeeping_identity():
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(1.0, params)
    topo = two_pmu_topology(
        dp={Layer.PMU: params, Layer.PDC: params}, attacker=attacker, window=(5, 30)
    )
    series = {"pmu1": synth_pmu(3, seed=1), "pmu2": synth_pmu(3, seed=2)}
    trace = run_query(topo, series, "hourly_mean", Detector(5.0, 12), seed=9)
    for key in trace.edge_keys:
        assert np.all(
            trace.delivered[key] == trace.true_values[key] + trace.noise_total[key]
        )


def test_noise_conservation_through_tree():
    # For sum aggregation the carried noise at the top edge must equal
    # the children's carried noise plus the concentrator's own draw,
    # reconstructed in the same child order.
    params = PrivacyParams(2.0, 0.5)
    topo = two_pmu_topology(dp={Layer.PMU: params, Layer.PDC: params})
    series = {"pmu1": synth_pmu(2, seed=1), "pmu2": synth_pmu(2, seed=2)}
    trace = run_query(topo, series, "sum", None, seed=3)
    reconstructed = (
        trace.noise_total[("pmu1", "pdc1")] + trace.noise_total[("pmu2", "pdc1")]
    ) + trace.dp_noise[("pdc1", "master")]
    assert np.array_equal(trace.noise_total[("pdc1", "master")], reconstructed)


def test_trace_deterministic_per_seed():
    params = PrivacyParams(2.0, 0.5)
    topo = chain_topology(dp={Layer.PMU: params})
    series = {"pmu1": synth_pmu(2, seed=4)}
    a = run_query(topo, series, "hourly_mean", None, seed=11)
    b = run_query(topo, series, "hourly_mean", None, seed=11)
    c = run_query(topo, series, "hourly_mean", None, seed=12)
    key = ("pmu1", "pdc1")
    assert np.array_equal(a.delivered[key], b.delivered[key])
    assert not np.array_equal(a.delivered[key], c.delivered[key])


def test_declaration_order_does_not_change_draws():
    params = PrivacyParams(2.0, 0.5)
    series = {"pmu1": synth_pmu(2, seed=1), "pmu2": synth_pmu(2, seed=2)}

    def build(reorder):
        nodes = [
            Node("pmu1", Layer.PMU),
            Node("pmu2", Layer.PMU),
            Node("pdc1", Layer.PDC),
            Node("master", Layer.MASTER),
        ]
        edges = [Edge("pmu1", "pdc1"), Edge("pmu2", "pdc1"), Edge("pdc1", "master")]
        if reorder:
            nodes = nodes[::-1]
            edges = edges[::-1]
        return GridTopology(tuple(nodes), tuple(edges), {Layer.PMU: params})

    a = run_query(build(False), series, "hourly_mean", None, seed=5)
    b = run_query(build(True), series, "hourly_mean", None, seed=5)
    for key in a.edge_keys:
        assert np.array_equal(a.delivered[key], b.delivered[key])


def test_attack_window_bounds_injection():
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(2.0, params)
    topo = chain_topology(dp={Layer.PMU: params}, attacker=attacker, window=(10, 20))
    trace = run_query(topo, {"pmu1": flat_series(2)}, "hourly_mean", None, seed=0)
    injected = trace.injected[("pmu1", "pdc1")]
    assert np.all(injected[:10] == 0.0)
    assert np.all(injected[20:] == 0.0)
    assert np.all(injected[10:20] != 0.0)


def test_attack_window_clipped_to_run():
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(2.0, params)
    topo = chain_topology(dp={Layer.PMU: params}, attacker=attacker, window=(40, 10_000))
    trace = run_query(topo, {"pmu1": flat_series(2)}, "hourly_mean", None, seed=0)
    injected = trace.injected[("pmu1", "pdc1")]
    assert injected.shape == (48,)
    assert np.all(injected[40:] != 0.0)


def test_attack_without_window_covers_run():
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(2.0, params)
    topo = chain_topology(dp={Layer.PMU: params}, attacker=attacker)
    trace = run_query(topo, {"pmu1": flat_series(2)}, "hourly_mean", None, seed=0)
    assert np.all(trace.injected[("pmu1", "pdc1")] != 0.0)


def test_plaintext_attack_surfaced_in_metadata():
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(2.0, params)
    bare = chain_topology(attacker=attacker)  # no DP anywhere
    protected = chain_topology(dp={Layer.PMU: params}, attacker=attacker)
    assert bare.plaintext_attack_edges() == [("pmu1", "pdc1")]
    assert protected.plaintext_attack_edges() == []
    trace = run_query(bare, {"pmu1": flat_series(2)}, "hourly_mean", None, seed=0)
    assert trace.plaintext_attack_edges == (("pmu1", "pdc1"),)


def test_pdc_policy_leaves_plaintext_only_below_the_pdc():
    params = PrivacyParams(2.0, 1.0)
    attacker = AttackProfile.solve(2.0, params)
    edges = tuple(Edge(c, p, attacker=None if c == "pmu2" else attacker) for c, p in TWO_LAYER)
    topo = GridTopology(two_pmu_topology().nodes, edges, {Layer.PDC: params})
    assert topo.plaintext_attack_edges() == [("pmu1", "pdc1")]
    assert plaintext_edges_by_fold(topo) == [("pmu1", "pdc1")]


@st.composite
def attacked_trees(draw):
    """A valid tree of up to 3 PDCs and 6 PMUs, some PMUs wired straight to the MASTER, edges in
    any order, a policy over any subset of layers and an attacker on any subset of edges."""
    pdcs = [f"pdc{j}" for j in range(draw(st.integers(0, 3)))]
    pmus = [f"pmu{i}" for i in range(draw(st.integers(max(1, len(pdcs)), 6)))]
    # The first PMUs give every PDC a child; the rest go to any PDC or the MASTER.
    parents = pdcs + [draw(st.sampled_from(pdcs + ["master"])) for _ in pmus[len(pdcs):]]
    wiring = [*zip(pmus, parents), *((pdc, "master") for pdc in pdcs)]
    attacker = AttackProfile.solve(2.0, PrivacyParams(2.0, 0.5))
    edges = [Edge(c, p, attacker=attacker if draw(st.booleans()) else None) for c, p in wiring]
    nodes = [Node(i, Layer.PMU) for i in pmus] + [Node(j, Layer.PDC) for j in pdcs]
    policy = {layer: PrivacyParams(2.0, 1.0) for layer in draw(st.sets(st.sampled_from(Layer)))}
    return GridTopology((*nodes, Node("master", Layer.MASTER)),
                        tuple(draw(st.permutations(edges))), policy)


@settings(derandomize=True, max_examples=200)
@given(topo=attacked_trees())
def test_plaintext_rule_equals_the_fold_over_layers_below(topo):
    assert topo.plaintext_attack_edges() == plaintext_edges_by_fold(topo)


def test_paired_injection_shift_matches_closed_form():
    # Same seed with and without the attacker isolates the injected
    # draws; their time average must sit in the Monte-Carlo band around
    # the profile's mean shift.
    params = PrivacyParams(2.0, 0.5)  # scale 4
    attacker = AttackProfile.solve(1.0, params)
    topo = chain_topology(dp={Layer.PMU: params}, attacker=attacker)
    series = {"pmu1": flat_series(90)}  # 2160 hourly steps
    clean = run_query(topo.without_attackers(), series, "hourly_mean", None, seed=77)
    hit = run_query(topo, series, "hourly_mean", None, seed=77)
    key = ("pmu1", "pdc1")
    injected = hit.injected[key]
    diff = hit.delivered[key] - clean.delivered[key]
    np.testing.assert_allclose(diff, injected, rtol=0.0, atol=1e-9)

    b, k1 = params.scale, attacker.k1
    shift = 2.0 * b * b * k1 / (k1 * k1 - b * b)
    var = 2.0 * b * b * k1 * k1 * (k1 * k1 + b * b) / (k1 * k1 - b * b) ** 2
    band = 3.0 * math.sqrt(var / len(injected))
    assert abs(injected.mean() - shift) < band


def test_two_layer_noise_variance_composes():
    params = PrivacyParams(2.0, 0.5)  # scale 4 at both layers
    topo = chain_topology(dp={Layer.PMU: params, Layer.PDC: params})
    series = {"pmu1": flat_series(209)}  # 5016 steps
    trace = run_query(topo, series, "hourly_mean", None, seed=13)
    noise = trace.noise_total[("pdc1", "master")]
    expected = 4.0 * params.scale**2  # 2 b^2 per layer
    assert noise.var() == pytest.approx(expected, rel=0.10)


# ---------------------------------------------------------------- detection

def spiked_series(n_hours, spike_at, spike_value, level=30.0):
    ts = (np.datetime64("2021-01-01", "h") + np.arange(n_hours)).astype("datetime64[us]")
    values = np.full(n_hours, level)
    values[spike_at] = spike_value
    return MeasurementSeries(ts, values, np.ones(n_hours, dtype=bool))


def test_detector_warmup_never_flags():
    # Spike lands before the rolling window is full, so it can never be
    # scored; its contamination of later means (270/24) stays under tau.
    topo = chain_topology()
    det = Detector(tau=20.0, window=24)
    series = {"pmu1": spiked_series(48, spike_at=2, spike_value=300.0)}
    trace = run_query(topo, series, "hourly_mean", det, seed=0)
    assert not trace.flags[("pmu1", "pdc1")].any()


def test_detector_flags_spike_exactly_once():
    topo = chain_topology()
    det = Detector(tau=20.0, window=24)
    series = {"pmu1": spiked_series(48, spike_at=30, spike_value=300.0)}
    trace = run_query(topo, series, "hourly_mean", det, seed=0)
    flags = trace.flags[("pmu1", "pdc1")]
    assert flags[30]
    assert flags.sum() == 1


@settings(max_examples=60, deadline=None)
@given(
    level=st.floats(-1e9, 1e9),
    spread=st.floats(1e-2, 1e2),
    window=st.integers(1, 48),
    extra=st.integers(1, 400),
    noise_seed=st.integers(0, 2**32 - 1),
    above=st.booleans(),
)
def test_rolling_mean_matches_direct_window_mean(level, spread, window, extra, noise_seed, above):
    # tau sits 1e-7 * spread from the largest deviation, so a rolling mean
    # that is off by more than that (as a cumsum at the signal's level is)
    # flips that step's flag.
    n = window + extra
    values = level + spread * np.random.default_rng(noise_seed).standard_normal(n)
    deviation = np.zeros(n)
    for t in range(window, n):
        # value minus window mean, summed exactly by fsum before the one division
        terms = [values[t]] * window + [-v for v in values[t - window:t]]
        deviation[t] = math.fsum(terms) / window
    tau = float(np.abs(deviation).max()) + (1e-7 if above else -1e-7) * spread
    assume(tau > 0.0)
    ts = (np.datetime64("2021-01-01", "h") + np.arange(n)).astype("datetime64[us]")
    series = {"pmu1": MeasurementSeries(ts, values, np.ones(n, dtype=bool))}
    trace = run_query(chain_topology(), series, "sum", Detector(tau=tau, window=window), seed=0)
    np.testing.assert_array_equal(trace.flags[("pmu1", "pdc1")], np.abs(deviation) > tau)


@settings(max_examples=80, deadline=None)
@given(
    edges=st.integers(1, 3),
    rows=st.integers(1, 40),
    window=st.integers(1, 48),
    extra=st.integers(1, 60),
    level=st.floats(-1e6, 1e6),
    spread=st.floats(1e-2, 1e2),
    tau_over_spread=st.floats(0.05, 3.0),
    data_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_deviations_equal_flags_by_row(edges, rows, window, extra, level, spread,
                                               tau_over_spread, data_seed, data):
    # detection_rate's use of the kernel: a whole (edges, rows, hours) stack, then a partial
    # last chunk stack[:, :r] and one edge's view of it, all in one set of reused buffers.
    # Deviations, flags and [start, end) counts equal the per-row oracle bit for bit.
    n, w = window + extra, window
    det = Detector(tau=tau_over_spread * spread, window=w)
    rng = np.random.default_rng(data_seed)
    stack = np.empty((edges, rows, n))
    work = gridsim._work_buffers(stack.shape, w)
    r = data.draw(st.integers(1, rows), label="r")
    start = data.draw(st.integers(w, n - 1), label="start")
    end = data.draw(st.integers(start, n), label="end")
    for part in (slice(None), slice(None, r)):
        stack[:] = np.nan  # what a chunk leaves behind must not matter
        values = level + spread * rng.standard_normal(stack[:, part].shape)
        stack[:, part] = values
        expect = np.array([rolling_deviation_by_row(block, w) for block in values])
        dev = gridsim._deviations(stack[:, part], w, *(b[:, part] for b in work))
        np.testing.assert_array_equal(dev, expect)
        flags = np.array([rolling_flags_by_row(block, det) for block in values])
        np.testing.assert_array_equal(dev > det.tau, flags[..., w:])
        assert not flags[..., :w].any()
        stack[-1, part] = values[-1]
        dev = gridsim._deviations(stack[-1, part], w, *(b[-1, part] for b in work))
        assert (np.count_nonzero(dev[:, start - w:end - w] > det.tau)
                == flags[-1][:, start:end].sum())


def test_deviations_scale_only_the_rows_whose_sum_overflows():
    # A row whose sum overflows is centred on _mean's scaled mean, without a warning; every
    # other row keeps the bits it has when scored alone.
    w = 4
    values = 30.0 + np.random.default_rng(3).standard_normal((2, 3, 24))
    values[1, 2] = 1e308
    values[0, 1] = np.tile([1e308, 5e307], 12)
    dev = gridsim._deviations(values.copy(), w, *gridsim._work_buffers(values.shape, w))
    assert not dev[1, 2].any()
    np.testing.assert_allclose(dev[0, 1], 2.5e307, rtol=1e-12)
    for edge, run in [(0, 0), (0, 2), (1, 0), (1, 1)]:
        row = values[edge, run][None].copy()
        alone = gridsim._deviations(row, w, *gridsim._work_buffers(row.shape, w))
        assert dev[edge, run].tobytes() == alone[0].tobytes()


def test_run_query_names_the_edge_whose_true_sum_overflows():
    # Each PMU's 1e308 is a float; their sum, the PDC's true value under sum, is not.  The query
    # refuses it by name, and numpy warns of nothing.
    huge = flat_series(1, level=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^edge pdc1->master: the sum of its children's true "
                                             "values overflows$"):
            run_query(two_pmu_topology(), {"pmu1": huge, "pmu2": huge}, "sum", None, seed=0)
    trace = run_query(two_pmu_topology(), {"pmu1": huge, "pmu2": huge}, "hourly_mean", None, 0)
    assert trace.true_values[("pdc1", "master")].tobytes() == np.full(24, 1e308).tobytes()


def test_unattacked_edges_share_one_read_only_zero_row():
    """Every edge without injections holds the same row of +0.0, which cannot be written; an
    attacked edge's row is its own."""
    topology, series = _attacked_tree()
    trace = run_query(topology, series, "sum", Detector(tau=6.0, window=4), seed=3)
    attacked = trace.injected[("pmu1", "pdc1")]
    clean = [trace.injected[k] for k in trace.edge_keys if k != ("pmu1", "pdc1")]
    zero = np.zeros(trace.n_timesteps)
    for row in clean:
        assert row.tobytes() == zero.tobytes() and not row.flags.writeable
        assert np.shares_memory(row, clean[0])
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
    assert attacked.flags.writeable and np.any(attacked != 0.0)
    assert not any(np.shares_memory(attacked, row) for row in clean)


def _wide_tree():
    """Wide's shape: 100 PMUs under 5 PDCs, each PMU with 720 hours of its own."""
    pmus = [f"pmu{i:03d}" for i in range(100)]
    topology = GridTopology(
        nodes=(*(Node(p, Layer.PMU) for p in pmus), *(Node(f"pdc{j}", Layer.PDC) for j in range(5)),
               Node("m", Layer.MASTER)),
        edges=(*(Edge(p, f"pdc{i // 20}") for i, p in enumerate(pmus)),
               *(Edge(f"pdc{j}", "m") for j in range(5))),
        dp_policy={Layer.PMU: PrivacyParams(2.0, 0.5)},
    )
    return topology, {p: synth_pmu(days=30, seed=i) for i, p in enumerate(pmus)}


def test_query_holds_one_hourly_copy_of_each_series():
    """On wide's shape the query reads each PMU's hourly values straight into its (edges, 1,
    hours) array of true values, 0.58 MiB, so it peaks under 1 MiB, where resampling every
    series again and holding all the copies at once peaked at 1.93 MiB."""
    topology, series = _wide_tree()
    gridsim._Query(topology, series, "sum", 13)  # a first call's allocations
    tracemalloc.start()
    try:
        gridsim._Query(topology, series, "sum", 13)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 1.0, f"_Query peaked at {peak:.2f} MiB"


def test_run_query_holds_no_full_size_copy_for_the_detector():
    """Wide's shape, 100 PMUs under 5 PDCs over 720 hours: beside the draws, the noise totals,
    the delivered and the true values, 0.55 MiB each, the detector scores each edge in one row
    of buffers and the unattacked edges share one zero row, so the call stays under 4 MiB, where
    a copy of every delivered row, its cumsum and deviations and a zero row per edge peaked at
    4.3 MiB."""
    topology, series = _wide_tree()
    detector = Detector(tau=6.0, window=24)
    run_query(topology, series, "hourly_mean", detector, seed=13)  # a first call's allocations
    tracemalloc.start()
    try:
        run_query(topology, series, "hourly_mean", detector, seed=13)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 4.0, f"run_query peaked at {peak:.2f} MiB"


@pytest.mark.parametrize("hours", [6, 24], ids=["shorter", "equal"])
def test_run_query_flags_nothing_within_one_window(hours):
    topo = chain_topology(dp={Layer.PMU: PrivacyParams(2.0, 0.5)})
    series = {"pmu1": spiked_series(hours, spike_at=hours - 1, spike_value=1e6)}
    trace = run_query(topo, series, "sum", Detector(tau=1e-3, window=24), seed=0)
    for key in trace.edge_keys:
        assert trace.flags[key].shape == (hours,) and not trace.flags[key].any()


def test_false_positive_rate_matches_noise_tail():
    # Constant signal, Laplace noise at scale b, threshold 1.5 b: the
    # flag probability is e^-1.5 up to the rolling-mean correction,
    # which a 512-step window makes negligible.
    params = PrivacyParams(2.0, 0.5)
    topo = chain_topology(dp={Layer.PMU: params})
    det = Detector(tau=1.5 * params.scale, window=512)
    series = {"pmu1": flat_series(24)}  # 576 steps, 64 opportunities/run
    rates = detection_rate(topo, series, "hourly_mean", det, n_runs=1000, seed=3)
    assert rates.true_positive_rate is None
    assert rates.false_positive_rate == pytest.approx(math.exp(-1.5), abs=0.006)


def test_detection_improves_with_budget():
    params = PrivacyParams(2.0, 0.5)
    series = {"pmu1": flat_series(10)}
    det = Detector(tau=1.5 * params.scale, window=48)

    def tpr(gamma):
        attacker = AttackProfile.solve(gamma, params)
        topo = chain_topology(dp={Layer.PMU: params}, attacker=attacker)
        rates = detection_rate(topo, series, "hourly_mean", det, n_runs=1000, seed=5)
        return rates.true_positive_rate

    stealthy, moderate, blatant = tpr(0.05), tpr(2.0), tpr(25.0)
    assert stealthy < moderate < blatant
    # Not ~1 even for a blatant budget: the optimal injection keeps its
    # mode at theta (the mean shift lives in the tail), and a sustained
    # attack drags the rolling baseline along with it.
    assert blatant > 0.9


def test_detection_rate_requires_enough_runs():
    params = PrivacyParams(2.0, 0.5)
    topo = chain_topology(dp={Layer.PMU: params})
    with pytest.raises(ValueError, match="n_runs"):
        detection_rate(topo, {"pmu1": flat_series(4)}, "hourly_mean", Detector(1.0, 12), 10, 0)


def reference_detection_rate(topology, series, kind, detector, n_runs, seed):
    # The documented stream layout in plain per-run code.  One generator per noisy node
    # and per attacked edge serves the whole call: run i's privacy draws are row i of one
    # (n_runs, hours) uniform block through laplace_from_uniform, its injections the i-th
    # sample_attack_noise call on the edge's generator.  Each run walks the whole tree
    # without and with its injections; steps inside the detector warm-up are no flag chances.
    true = run_query(topology.without_attackers(), series, kind, None, seed).true_values
    n, w = len(true[topology.edges[0].key]), detector.window
    scale = {nd.id: topology.dp_policy[nd.layer].scale
             for nd in topology.nodes if nd.layer in topology.dp_policy}
    uniform = {node_id: derive_rng(seed, "node", node_id).random((n_runs, n)) for node_id in scale}
    children = {}
    for e in sorted(topology.edges, key=lambda e: e.child):
        children.setdefault(e.parent, []).append(e)
    windows = {}
    for e in topology.attacked_edges():
        start, end = e.attack_window if e.attack_window is not None else (0, n)
        windows[e.key] = (e.attacker, derive_rng(seed, "edge", *e.key), start, min(n, end))
    master = next(nd.id for nd in topology.nodes if nd.layer == Layer.MASTER)

    def deliveries(i, injected):
        delivered = {}

        def emitted(node_id):  # the noise node_id sends to its parent in run i
            own = np.zeros(n)
            if node_id in scale:
                own = laplace_from_uniform(uniform[node_id][i], scale[node_id])
            inputs = children.get(node_id, [])
            if not inputs:
                return 0.0 + own
            carried = [emitted(e.child) + injected.get(e.key, 0.0) for e in inputs]
            for e, noise in zip(inputs, carried):
                delivered[e.key] = true[e.key] + noise
            total = sum(carried)
            return (total / len(carried) if kind == "hourly_mean" else total) + own

        emitted(master)
        return delivered

    def flags(values):
        return rolling_flags_by_row(values[None], detector)[0]

    tp = fp = tp_chances = fp_chances = 0
    for i in range(n_runs):
        injected = {}
        for key, (attacker, gen, start, end) in windows.items():
            if end > start:
                injected[key] = np.zeros(n)
                injected[key][start:end] = sample_attack_noise(attacker, gen, size=end - start)
        for values in deliveries(i, {}).values():
            fp += int(flags(values)[w:].sum())
            fp_chances += n - w
        hit = deliveries(i, injected)
        for key, (_, _, start, end) in windows.items():
            start = max(w, start)
            if end > start:
                tp += int(flags(hit[key])[start:end].sum())
                tp_chances += end - start
    tpr = tp / tp_chances if tp_chances else None
    return DetectionRates(true_positive_rate=tpr, false_positive_rate=fp / fp_chances,
                          n_runs=n_runs)


@pytest.mark.parametrize("windows, wiring, expect_tpr", [
    ({("pmu1", "pdc1"): (10, 30), ("pdc1", "master"): (20, 48)}, TWO_LAYER, True),  # stacked
    ({("pmu1", "pdc1"): (0, 5)}, TWO_LAYER, False),  # wholly inside the warm-up
    ({}, TWO_LAYER, False),  # no attacker
    ({("pdc1", "master"): (20, 48)}, TWO_LAYER, True),  # upper edge only: nothing below it
    ({("pmu2", "master"): (10, 30), ("pmu1", "pdc1"): (20, 40)}, DIRECT, True),
], ids=["stacked", "warmup", "clean", "upper", "direct"])
def test_detection_rate_equals_paired_run_query(windows, wiring, expect_tpr):
    topo, series = windowed_topology(windows, wiring)
    det = Detector(tau=6.0, window=6)
    rates = detection_rate(topo, series, "sum", det, n_runs=1000, seed=11)
    assert rates == reference_detection_rate(topo, series, "sum", det, 1000, 11)
    assert (rates.true_positive_rate is not None) == expect_tpr
    trace = run_query(topo, series, "sum", det, seed=11)
    for key in trace.edge_keys:
        expect = rolling_flags_by_row(trace.delivered[key][None], det)[0]
        assert np.array_equal(trace.flags[key], expect)


def test_draws_are_rows_of_one_whole_call_draw():
    # Runs [a, b) drawn block by block equal rows a..b of one whole-call draw, for
    # noisy nodes and for attack windows clipped to the run; run_query(seed) is run 0.
    windows = {("pmu1", "pdc1"): (10, 30), ("pdc1", "master"): (40, 10_000)}
    topo, series = windowed_topology(windows)
    query = gridsim._Query(topo, series, "sum", 11)
    keys = [e.key for e in query.edges]  # blocks are indexed by edge, edge i leaving node i
    own, injected = query.draws(10)
    assert {keys[i] for i in injected} == set(windows)
    assert np.all(injected[keys.index(("pdc1", "master"))][:, 40:] != 0.0)
    again = gridsim._Query(topo, series, "sum", 11)
    blocks = [again.draws(rows) for rows in (1, 3, 6)]
    for whole, part in ((dict(enumerate(own)), 0), (injected, 1)):
        for i, block in whole.items():
            assert np.array_equal(np.concatenate([b[part][i] for b in blocks]), block)
    trace = run_query(topo, series, "sum", None, seed=11)
    for i, e in enumerate(query.edges):
        assert np.array_equal(trace.dp_noise[e.key], own[i][0])
        assert np.all(trace.injected[e.key] == (injected[i][0] if i in injected else 0.0))


def test_master_policy_draws_nothing():
    # No edge carries the MASTER's output, so a MASTER entry in dp_policy changes nothing.
    topo, series = windowed_topology({("pmu2", "master"): (10, 30)}, DIRECT)
    policy = {layer: params for layer, params in topo.dp_policy.items() if layer != Layer.MASTER}
    bare = GridTopology(topo.nodes, topo.edges, policy)
    det = Detector(tau=6.0, window=6)
    traces = [run_query(t, series, "sum", det, seed=11) for t in (topo, bare)]
    for name in ("true_values", "dp_noise", "injected", "noise_total", "delivered", "flags"):
        with_master, without = (getattr(trace, name) for trace in traces)
        assert with_master.keys() == without.keys()
        assert all(np.array_equal(with_master[k], without[k]) for k in with_master)
    assert traces[0].summary() == traces[1].summary()
    assert (detection_rate(topo, series, "sum", det, 1000, 11)
            == detection_rate(bare, series, "sum", det, 1000, 11))


def windowed_topology(windows, wiring=TWO_LAYER):
    # Every node noisy; one attacker on each edge named in windows.
    pmu = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(2.0, pmu)
    edges = tuple(
        Edge(child, parent, attacker=attacker if (child, parent) in windows else None,
             attack_window=windows.get((child, parent)))
        for child, parent in wiring
    )
    topo = GridTopology(
        nodes=two_pmu_topology().nodes, edges=edges,
        dp_policy={Layer.PMU: pmu, Layer.PDC: PrivacyParams(2.0, 1.0),
                   Layer.MASTER: PrivacyParams(2.0, 1.0)},
    )
    return topo, {p: synth_pmu(days=2, seed=i) for i, p in enumerate(topo.pmu_ids())}


def chunked_detection_rate(monkeypatch, rows, topology, series, *args):
    # detection_rate on 2-day series with a byte budget of `rows` runs per chunk
    # (four float rows per node and edge per run), all in this process on one CPU,
    # so the spy sees every chunk; returns (rates, chunk sizes).
    budget = rows * 32 * 48 * (len(topology.nodes) + len(topology.edges))
    monkeypatch.setattr(gridsim, "_CHUNK_BYTES", budget)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    sizes = []
    draws = gridsim._Query.draws

    def spy(self, rows):
        sizes.append(rows)
        return draws(self, rows)

    monkeypatch.setattr(gridsim._Query, "draws", spy)
    return detection_rate(topology, series, *args), sizes


def test_detection_rate_does_not_depend_on_chunk_size(monkeypatch):
    golden = _attacked_tree()
    stacked = windowed_topology({("pmu1", "pdc1"): (10, 30), ("pdc1", "master"): (20, 48)})
    stacked_rates = []
    for rows, expect_sizes in ((1, [1] * 1000), (7, [7] * 142 + [6]), (1000, [1000])):
        rates, sizes = chunked_detection_rate(monkeypatch, rows, *golden, "hourly_mean",
                                              Detector(tau=6.0, window=12), 1000, 11)
        assert sizes == expect_sizes
        assert _sha256_json(asdict(rates)) == DETECTION_SHA256
        stacked_rates.append(chunked_detection_rate(monkeypatch, rows, *stacked, "sum",
                                                    Detector(tau=6.0, window=6), 1000, 11)[0])
    assert stacked_rates[0] == stacked_rates[1] == stacked_rates[2]


@pytest.mark.parametrize("skipped, rows", [(0, 3), (1, 4), (4, 1), (9, 2)])
def test_skip_then_draws_equals_rows_of_one_whole_call_draw(skipped, rows):
    # skip(k) then draws(r) gives rows k..k+r of one draws(k+r), bit for bit, for noisy nodes
    # and for attack windows clipped to the run.
    windows = {("pmu1", "pdc1"): (10, 30), ("pdc1", "master"): (40, 10_000)}
    topo, series = windowed_topology(windows)
    own, injected = gridsim._Query(topo, series, "sum", 11).draws(skipped + rows)
    query = gridsim._Query(topo, series, "sum", 11)
    query.skip(skipped)
    part_own, part_injected = query.draws(rows)
    assert part_own.tobytes() == own[:, skipped:].tobytes()
    assert part_injected.keys() == injected.keys() and len(injected) == 2
    for i, block in injected.items():
        assert part_injected[i].tobytes() == block[skipped:].tobytes()


@pytest.mark.parametrize("n_runs", [1000, 1001])
def test_detection_rate_does_not_depend_on_share_count(monkeypatch, fake_affinity, n_runs):
    golden = _attacked_tree()
    stacked = windowed_topology({("pmu1", "pdc1"): (10, 30), ("pdc1", "master"): (20, 48)})
    # Chunks of 100 runs on the golden tree (11 nodes and edges) and of 157 on the stacked one
    # (7): 10 or 11 chunks and 7, cut into 1, 2 or 3 shares of unequal sizes.
    monkeypatch.setattr(gridsim, "_CHUNK_BYTES", 100 * 32 * 48 * 11)
    rates = []
    for count in (1, 2, 3):
        forks = fake_affinity(range(count))
        rates.append((
            detection_rate(*golden, "hourly_mean", Detector(tau=6.0, window=12), n_runs, 11),
            detection_rate(*stacked, "sum", Detector(tau=6.0, window=6), n_runs, 11),
        ))
        assert len(forks) == 2 * (count - 1)
    assert rates[0] == rates[1] == rates[2]
    if n_runs == 1000:
        assert _sha256_json(asdict(rates[2][0])) == DETECTION_SHA256


def failing_share(monkeypatch, fails):
    # detection_rate's chunk loop, raising in every share whose first run `fails` picks; a child
    # learns its first run from skip, the parent's share starts at run 0.
    skip, count = gridsim._Query.skip, gridsim._flag_counts

    def skip_spy(self, runs):
        self.first = runs
        skip(self, runs)

    def helper(query, *args):
        first = getattr(query, "first", 0)
        if fails(first):
            raise ValueError(f"share from run {first} failed")
        return count(query, *args)

    monkeypatch.setattr(gridsim._Query, "skip", skip_spy)
    monkeypatch.setattr(gridsim, "_flag_counts", helper)


@pytest.mark.parametrize("fails, message", [
    (lambda first: first > 0, "share from run 200 failed"),  # the lowest failing share's
    (lambda first: first == 600, "share from run 600 failed"),
    (lambda first: first == 0, "share from run 0 failed"),  # the children are killed
], ids=["every-child", "last-child", "parent"])
def test_failing_share_reaches_the_caller_and_leaves_no_child(monkeypatch, fake_affinity, fails,
                                                              message):
    monkeypatch.setattr(gridsim, "_CHUNK_BYTES", 200 * 32 * 48 * 11)  # shares of 1, 2 and 2 chunks
    forks = fake_affinity(range(3))
    failing_share(monkeypatch, fails)
    with pytest.raises(ValueError, match=message):
        detection_rate(*_attacked_tree(), "hourly_mean", Detector(tau=6.0, window=12), 1000, 11)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_ignores_only_the_multithreaded_fork_warning(monkeypatch, fake_affinity):
    # Python 3.12+ warns on os.fork in a process with threads, which OpenBLAS starts; pytest
    # makes a DeprecationWarning an error, so the fork must not let that one through.
    fake_affinity(range(2))
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                      "lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    rates = detection_rate(*_attacked_tree(), "hourly_mean", Detector(tau=6.0, window=12), 1000, 11)
    assert _sha256_json(asdict(rates)) == DETECTION_SHA256

    def other_warning_fork():
        warnings.warn("some other deprecation", DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", other_warning_fork)
    with pytest.raises(DeprecationWarning, match="some other deprecation"):
        detection_rate(*_attacked_tree(), "hourly_mean", Detector(tau=6.0, window=12), 1000, 11)


@pytest.mark.parametrize("affinity", [True, False], ids=["one-cpu", "no-affinity"])
def test_one_cpu_never_forks(monkeypatch, fake_affinity, affinity):
    if affinity:
        fake_affinity([3])
    else:  # as outside Linux
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    rates = detection_rate(*_attacked_tree(), "hourly_mean", Detector(tau=6.0, window=12), 1000, 11)
    assert _sha256_json(asdict(rates)) == DETECTION_SHA256


# -------------------------------------------------------------------- sweep

def test_sweep_matches_profile_solver():
    points = impact_sweep([0.1, 0.5], [0.5, 2.0], [2.0], theta=33.18)
    assert len(points) == 4
    for p in points:
        profile = AttackProfile.solve(p.gamma, PrivacyParams(p.sensitivity, p.epsilon, p.theta))
        assert p.k1 == pytest.approx(profile.k1, rel=1e-12)
        assert p.deviation == pytest.approx(profile.mean_shift, rel=1e-12)
        assert p.mu_star == pytest.approx(p.theta + p.deviation, rel=1e-12)


_SWEEP_AXIS = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4)


@given(epsilons=_SWEEP_AXIS, sensitivities=_SWEEP_AXIS,
       gammas=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=5)),
       theta=st.floats(-1e3, 1e3))
def test_sweep_equals_per_cell_solve_bit_for_bit(epsilons, gammas, sensitivities, theta):
    points = impact_sweep(epsilons, gammas, sensitivities, theta=theta)
    cells = list(product(epsilons, gammas, sensitivities))
    assert [(p.epsilon, p.gamma, p.sensitivity) for p in points] == cells
    for p, (eps, gamma, sens) in zip(points, cells):
        profile = AttackProfile.solve(gamma, PrivacyParams(sens, eps, theta))
        assert type(p.mu_star) is float
        assert (p.theta, p.k1, p.mu_star, p.deviation) == (
            theta, profile.k1, profile.mu_star, profile.mean_shift)


def test_sweep_rejects_empty_axes():
    with pytest.raises(ValueError, match="non-empty"):
        impact_sweep([], [1.0], [1.0])


def test_sweep_csv_export(tmp_path):
    points = impact_sweep([0.1, 0.2], [1.0], [2.0])
    path = tmp_path / "sweep.csv"
    sweep_to_csv(points, path, metadata={"config_hash": "cafe"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=cafe"
    assert lines[1].split(",")[0] == "epsilon"
    assert len(lines) == 2 + len(points)


# ----------------------------------------------------------- serialization

def test_topology_json_round_trip(tmp_path):
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(1.5, params)
    topo = two_pmu_topology(dp={Layer.PMU: params}, attacker=attacker, window=(10, 50))
    path = tmp_path / "topo.json"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert topology_to_dict(loaded) == topology_to_dict(topo)
    restored = loaded.edges[0].attacker
    assert restored is not None
    assert restored.k1 == pytest.approx(attacker.k1, rel=1e-9)


def test_topology_from_dict_rejects_unknown_layer():
    data = {
        "nodes": [{"id": "a", "layer": "SENSOR"}, {"id": "m", "layer": "MASTER"}],
        "edges": [{"child": "a", "parent": "m"}],
    }
    with pytest.raises(ValueError, match="unknown layer"):
        topology_from_dict(data)


def test_trace_csv_export(tmp_path):
    params = PrivacyParams(2.0, 0.5)
    topo = chain_topology(dp={Layer.PMU: params})
    trace = run_query(topo, {"pmu1": flat_series(1)}, "hourly_mean", Detector(6.0, 4), seed=2)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, metadata={"config_hash": "beef"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=beef"
    header = lines[1].split(",")
    assert header == [
        "timestep", "timestamp", "child", "parent", "true_value",
        "dp_noise", "injected", "noise_total", "delivered", "flag",
    ]
    assert len(lines) == 2 + 24 * len(trace.edge_keys)
    # Edge keys are emitted in sorted order within each timestep.
    first = lines[2].split(",")
    assert first[2] == "pdc1"
    assert float(first[8]) == trace.delivered[("pdc1", "master")][0]


def test_trace_summary_and_json(tmp_path):
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(2.0, params)
    topo = chain_topology(dp={Layer.PMU: params}, attacker=attacker, window=(0, 24))
    trace = run_query(topo, {"pmu1": flat_series(2)}, "hourly_mean", Detector(6.0, 4), seed=2)
    summary = trace.summary()
    assert summary["n_timesteps"] == 48
    assert summary["edges"]["pmu1->pdc1"]["attacked"]
    assert not summary["edges"]["pdc1->master"]["attacked"]
    path = tmp_path / "trace.json"
    trace.to_json(path, metadata={"config_hash": "f00d"})
    payload = json.loads(path.read_text())
    assert payload["metadata"]["config_hash"] == "f00d"
    assert payload["edges"]["pmu1->pdc1"]["flags"] >= 0
