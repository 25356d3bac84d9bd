import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgrid.adversary import AttackProfile, impact_sweep, sweep_to_csv
from dpgrid.calibrate import DesignSpec, calibrate_epsilon
from dpgrid.cli import main
from dpgrid.gridsim import Edge, GridTopology, Layer, Node, save_topology
from dpgrid.laplace import PrivacyParams
from dpgrid.series import ingest_csv, synth_pmu


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def parse_json(text):
    """Strict JSON: NaN, Infinity and -Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------- calibrate

def test_calibrate_matches_library(capsys):
    code, out, _ = run_cli(capsys, [
        "calibrate", "--sensitivity", "2.0", "--gamma", "2.0",
        "--theta", "33.18", "--max-deviation", "76.82",
    ])
    assert code == 0
    payload = parse_json(out)
    direct = calibrate_epsilon(DesignSpec(2.0, 2.0, 33.18, 76.82))
    assert payload["epsilon"] == pytest.approx(direct.epsilon, rel=1e-12)
    assert payload["k1"] == pytest.approx(direct.k1, rel=1e-12)
    assert payload["predicted_impact"] == pytest.approx(33.18 + 76.82, rel=1e-9)
    assert len(payload["config_hash"]) == 16
    int(payload["config_hash"], 16)


def test_calibrate_writes_output_file(capsys, tmp_path):
    out_file = tmp_path / "design.json"
    code, out, _ = run_cli(capsys, [
        "calibrate", "--sensitivity", "2.0", "--gamma", "1.0",
        "--max-deviation", "50.0", "--out", str(out_file),
    ])
    assert code == 0
    assert parse_json(out_file.read_text()) == parse_json(out)


def test_config_hash_depends_on_params(capsys):
    base = ["calibrate", "--sensitivity", "2.0", "--gamma", "2.0", "--max-deviation", "76.82"]
    _, out_a, _ = run_cli(capsys, base)
    _, out_b, _ = run_cli(capsys, base)
    _, out_c, _ = run_cli(capsys, base[:-1] + ["80.0"])
    assert parse_json(out_a)["config_hash"] == parse_json(out_b)["config_hash"]
    assert parse_json(out_a)["config_hash"] != parse_json(out_c)["config_hash"]


# ------------------------------------------------------------------- impact

def test_impact_matches_library(capsys):
    code, out, _ = run_cli(capsys, [
        "impact", "--epsilon", "0.1", "--gamma", "2.0",
        "--sensitivity", "2.0", "--theta", "33.18",
    ])
    assert code == 0
    payload = parse_json(out)
    profile = AttackProfile.solve(2.0, PrivacyParams(2.0, 0.1, 33.18))
    assert payload["k1"] == pytest.approx(profile.k1, rel=1e-12)
    assert payload["mu_star"] == pytest.approx(profile.mu_star, rel=1e-12)
    assert payload["deviation"] == pytest.approx(profile.mean_shift, rel=1e-12)
    assert payload["scale"] == 20.0


# -------------------------------------------------------------------- sweep

def test_sweep_writes_csv(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, [
        "sweep", "--epsilons", "0.1,0.5", "--gammas", "0.5,2.0",
        "--sensitivities", "2.0", "--out", str(out_file),
    ])
    assert code == 0
    payload = parse_json(out)
    assert payload["rows"] == 4
    lines = out_file.read_text().splitlines()
    assert lines[0] == f"# config_hash={payload['config_hash']}"
    assert len(lines) == 2 + 4


def _axis(low, high):
    """A grid axis drawn from a small pool, so values repeat and single-value axes occur."""
    return st.lists(st.floats(low, high), min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=4))


@settings(derandomize=True, max_examples=120)
@given(epsilons=_axis(0.05, 20.0), gammas=_axis(1e-3, 1e3), sensitivities=_axis(0.05, 20.0),
       theta=st.sampled_from([0.0, -0.0, 1e300, -1e300]) | st.floats(-1e3, 1e3))
def test_sweep_command_writes_sweep_to_csv_bytes(epsilons, gammas, sensitivities, theta):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "sweep.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["sweep", *(f"--{name}={','.join(map(repr, axis))}" for name, axis in (
                ("epsilons", epsilons), ("gammas", gammas), ("sensitivities", sensitivities))),
                f"--theta={theta!r}", "--out", str(out)]) == 0
        payload = parse_json(stdout.getvalue())
        points = impact_sweep(epsilons, gammas, sensitivities, theta=theta)
        expected = Path(tmp, "points.csv")
        sweep_to_csv(points, expected, metadata={"config_hash": payload["config_hash"]})
        assert payload["rows"] == len(points)
        assert out.read_bytes() == expected.read_bytes()


def test_sweep_rejects_empty_axis(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--epsilons", ",", "--gammas", "1.0", "--sensitivities", "1.0"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- synth

def test_synth_round_trips_through_ingest(capsys, tmp_path):
    out_file = tmp_path / "pmu.csv"
    code, out, _ = run_cli(capsys, [
        "synth", "--days", "3", "--seed", "5", "--out", str(out_file),
    ])
    assert code == 0
    payload = parse_json(out)
    assert payload["rows"] == 72
    series = ingest_csv(out_file)
    assert len(series) == 72
    assert f"config_hash={payload['config_hash']}" in out_file.read_text()


# ----------------------------------------------------------------- simulate

@pytest.fixture
def topology_file(tmp_path):
    params = PrivacyParams(2.0, 0.5)
    attacker = AttackProfile.solve(2.0, params)
    topo = GridTopology(
        nodes=(Node("pmu1", Layer.PMU), Node("pdc1", Layer.PDC), Node("m", Layer.MASTER)),
        edges=(
            Edge("pmu1", "pdc1", attacker=attacker, attack_window=(10, 30)),
            Edge("pdc1", "m"),
        ),
        dp_policy={Layer.PMU: params},
    )
    path = tmp_path / "topo.json"
    save_topology(topo, path)
    return path


def test_simulate_with_synth_series(capsys, topology_file, tmp_path):
    trace_file = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, [
        "simulate", "--topology", str(topology_file), "--synth-days", "2",
        "--tau", "6.0", "--window", "12", "--seed", "3",
        "--trace-out", str(trace_file),
    ])
    assert code == 0
    payload = parse_json(out)
    assert payload["n_timesteps"] == 48
    assert payload["edges"]["pmu1->pdc1"]["attacked"]
    assert "config_hash" in payload
    lines = trace_file.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert len(lines) == 2 + 48 * 2


def test_simulate_with_series_files(capsys, topology_file, tmp_path):
    from dpgrid.series import export_csv

    series_file = tmp_path / "pmu1.csv"
    export_csv(synth_pmu(days=2, seed=1), series_file)
    code, out, _ = run_cli(capsys, [
        "simulate", "--topology", str(topology_file),
        "--series", f"pmu1={series_file}",
    ])
    assert code == 0
    assert parse_json(out)["n_timesteps"] == 48


def test_simulate_reads_only_the_last_series_per_node(capsys, topology_file, tmp_path):
    from dpgrid.series import export_csv

    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,value\nnot-a-time,1.0\n")
    good = tmp_path / "good.csv"
    export_csv(synth_pmu(days=2, seed=1), good)
    code, out, err = run_cli(capsys, [
        "simulate", "--topology", str(topology_file),
        "--series", f"pmu1={bad}", "--series", f"pmu1={good}",
    ])
    assert code == 0, err
    assert parse_json(out)["n_timesteps"] == 48


def test_simulate_missing_series_fails_cleanly(capsys, topology_file):
    code, _, err = run_cli(capsys, ["simulate", "--topology", str(topology_file)])
    assert code == 2
    payload = parse_json(err)
    assert payload["command"] == "simulate"
    assert "pmu1" in payload["error"]


def _simulate_hash(capsys, *argv):
    code, out, _ = run_cli(capsys, ["simulate", *argv])
    assert code == 0
    return parse_json(out)["config_hash"]


def test_simulate_config_hash_covers_inputs_not_output_paths(capsys, tmp_path):
    from dpgrid.series import export_csv

    chain = (Node("pmu1", Layer.PMU), Node("pdc1", Layer.PDC), Node("m", Layer.MASTER))
    edges = (Edge("pmu1", "pdc1"), Edge("pdc1", "m"))
    topologies = []
    for name, policy in (("plain", {}), ("noisy", {Layer.PMU: PrivacyParams(2.0, 0.5)})):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "topo.json"
        save_topology(GridTopology(nodes=chain, edges=edges, dp_policy=policy), path)
        topologies.append(str(path))
    plain, noisy = topologies
    assert (_simulate_hash(capsys, "--topology", plain, "--synth-days", "2")
            != _simulate_hash(capsys, "--topology", noisy, "--synth-days", "2"))

    series = []
    for seed in (1, 2):
        path = tmp_path / f"series{seed}.csv"
        export_csv(synth_pmu(days=2, seed=seed), path)
        series.append(f"pmu1={path}")
    first = _simulate_hash(capsys, "--topology", plain, "--series", series[0])
    (tmp_path / "series1.csv").write_bytes((tmp_path / "series2.csv").read_bytes())
    assert _simulate_hash(capsys, "--topology", plain, "--series", series[0]) != first

    base = ["--topology", noisy, "--synth-days", "2", "--tau", "6.0"]
    assert _simulate_hash(capsys, *base) == _simulate_hash(
        capsys, *base, "--out", str(tmp_path / "run.json"),
        "--trace-out", str(tmp_path / "trace.csv"),
    )


# ---------------------------------------------------------------------- qos

def test_qos_smoke(capsys, tmp_path):
    export_dir = tmp_path / "series"
    code, out, _ = run_cli(capsys, [
        "qos", "--epsilon", "0.5", "--gamma", "0.5", "--sensitivity", "2.0",
        "--days", "120", "--seed", "1", "--export-series", str(export_dir),
    ])
    assert code == 0
    payload = parse_json(out)
    assert payload["defense_cost"] == payload["privacy_cost"] + payload["security_cost"]
    assert payload["epsilon"] == 0.5
    for name in ("original", "dp", "fdi_dp"):
        assert (export_dir / f"{name}.csv").exists()


# -------------------------------------------------------------------- bench

def test_bench_smoke(capsys):
    code, out, _ = run_cli(capsys, [
        "bench", "--batch-size", "2000", "--reps", "10", "--seed", "1",
    ])
    assert code == 0
    payload = parse_json(out)
    assert payload["batch_size"] == 2000
    assert payload["speedup"] > 1.0
    assert "config_hash" in payload


@pytest.mark.parametrize("size", ["-5", "0"])
def test_bench_rejects_batch_size_below_one(capsys, size):
    code, out, err = run_cli(capsys, ["bench", "--batch-size", size, "--reps", "10"])
    assert code == 2 and out == ""
    payload = parse_json(err)
    assert payload["command"] == "bench"
    assert "--batch-size" in payload["error"]


# ------------------------------------------------------------ error handling

def test_validation_error_exits_2_with_json(capsys):
    code, _, err = run_cli(capsys, [
        "calibrate", "--sensitivity", "2.0", "--gamma", "-1.0", "--max-deviation", "50.0",
    ])
    assert code == 2
    payload = parse_json(err)
    assert payload["command"] == "calibrate"
    assert payload["error"]


def test_unwritable_out_exits_2_and_prints_nothing(capsys, tmp_path):
    code, out, err = run_cli(capsys, [
        "calibrate", "--sensitivity", "2", "--gamma", "2", "--max-deviation", "50",
        "--out", str(tmp_path),
    ])
    assert code == 2 and out == ""
    assert parse_json(err)["command"] == "calibrate"


# Beyond DesignSpec's gamma bounds the root solves cannot hold the round trip.
@pytest.mark.parametrize("gamma", ["1e11", "1e-60"], ids=["above-max", "below-min"])
def test_calibrate_beyond_gamma_bound_exits_2_with_json(capsys, gamma):
    code, _, err = run_cli(capsys, [
        "calibrate", "--sensitivity", "2", "--gamma", gamma, "--max-deviation", "50",
    ])
    assert code == 2
    payload = parse_json(err)
    assert payload["command"] == "calibrate"
    assert "gamma" in payload["error"]


# Noise scales whose squares under- or overflow: the attacker's mean
# shift is 0/0 or inf/inf there, which must not reach the output.  Where
# only k1^2 overflows or only b^2 underflows, the shift would read 0.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["impact", "--epsilon", "1e200", "--gamma", "2", "--sensitivity", "1e-3"],
    ["impact", "--epsilon", "1e-100", "--gamma", "2", "--sensitivity", "1e100"],
    ["impact", "--epsilon", "0.1", "--gamma", "3e-308", "--sensitivity", "2"],
    ["impact", "--epsilon", "1", "--gamma", "1e-20", "--sensitivity", "1e-170"],
    ["sweep", "--epsilons", "1e200", "--gammas", "2", "--sensitivities", "1e-3"],
    ["sweep", "--epsilons", "1,1e-100", "--gammas", "2", "--sensitivities", "1e100"],
    ["calibrate", "--sensitivity", "2", "--gamma", "2", "--max-deviation", "1e-300"],
    ["calibrate", "--sensitivity", "2", "--gamma", "2", "--max-deviation", "1e300"],
    ["calibrate", "--sensitivity", "1", "--gamma", "1", "--max-deviation", "1e308"],
    ["qos", "--epsilon", "1e200", "--gamma", "2", "--sensitivity", "1e-3", "--days", "60"],
    ["bench", "--epsilon", "1e200", "--gamma", "2", "--sensitivity", "1e-3"],
], ids=["impact-underflow", "impact-overflow", "impact-tilt-overflow", "impact-scale-underflow",
        "sweep-underflow", "sweep-overflow", "calibrate-underflow", "calibrate-overflow",
        "calibrate-scale-overflow", "qos-underflow", "bench-underflow"])
def test_extreme_noise_scale_exits_2_with_json(capsys, tmp_path, argv):
    out_file = tmp_path / "sweep.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_file)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    payload = parse_json(err)
    assert payload["command"] == argv[0]
    assert "not finite" in payload["error"]
    assert not out_file.exists()  # every cell is solved before the file opens


# A stealth budget the tilt's root solve cannot resolve, at either end.
@pytest.mark.parametrize("argv, needle", [
    (["impact", "--epsilon", "0.1", "--gamma", "1e-310", "--sensitivity", "2"],
     "stealth budget 1e-310 too small to resolve"),
    (["sweep", "--epsilons", "0.1", "--gammas", "2,1e-310", "--sensitivities", "2"],
     "stealth budget 1e-310 too small to resolve"),
    (["impact", "--epsilon", "0.1", "--gamma", "1e13", "--sensitivity", "2"],
     "too large to resolve"),
], ids=["impact-subnormal-gamma", "sweep-subnormal-gamma", "impact-huge-gamma"])
def test_unresolvable_stealth_budget_exits_2_with_json(capsys, tmp_path, argv, needle):
    out_file = tmp_path / "sweep.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_file)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    payload = parse_json(err)
    assert payload["command"] == argv[0]
    assert needle in payload["error"]
    assert not out_file.exists()


# A calibrated epsilon below the smallest normal float: sensitivity / epsilon no longer gives
# the scale back, whether or not the attacker's round trip still lands within tolerance.
@pytest.mark.parametrize("argv", [
    ["calibrate", "--sensitivity", "1e-308", "--gamma", "1e-20", "--max-deviation", "1"],
    ["calibrate", "--sensitivity", "1e-308", "--gamma", "1", "--max-deviation", "1000"],
], ids=["round-trip-drifts", "round-trip-holds"])
def test_subnormal_epsilon_exits_2_with_json(capsys, tmp_path, argv):
    out_file = tmp_path / "design.json"
    code, out, err = run_cli(capsys, [*argv, "--out", str(out_file)])
    assert code == 2 and out == ""
    payload = parse_json(err)
    assert payload["command"] == "calibrate"
    assert "is below the smallest normal float" in payload["error"]
    assert not out_file.exists()


_CHAIN_NODES = [{"id": "pmu1", "layer": "PMU"}, {"id": "pdc1", "layer": "PDC"},
                {"id": "m", "layer": "MASTER"}]
_BAD_WINDOW_EDGES = [
    {"child": "pmu1", "parent": "pdc1", "attack_window": "ab",
     "attacker": {"gamma": 2.0, "sensitivity": 2.0, "epsilon": 0.5}},
    {"child": "pdc1", "parent": "m"},
]
_GOOD_EDGES = [{"child": "pmu1", "parent": "pdc1"}, {"child": "pdc1", "parent": "m"}]
_NO_GAMMA_EDGES = [
    {"child": "pmu1", "parent": "pdc1", "attacker": {"sensitivity": 2.0, "epsilon": 0.5}},
    {"child": "pdc1", "parent": "m"},
]
_TINY_SCALE_EDGES = [
    {"child": "pmu1", "parent": "pdc1",
     "attacker": {"gamma": 2.0, "sensitivity": 1e-3, "epsilon": 1e200}},
    {"child": "pdc1", "parent": "m"},
]
_FRACTIONAL_WINDOW_EDGES = [{**_BAD_WINDOW_EDGES[0], "attack_window": [10.5, 20.5]}, _GOOD_EDGES[1]]
_BOOL_WINDOW_EDGES = [{**_BAD_WINDOW_EDGES[0], "attack_window": [True, 20]}, _GOOD_EDGES[1]]
_HUGE_WINDOW_EDGES = [{**_BAD_WINDOW_EDGES[0], "attack_window": [0, 10**400]}, _GOOD_EDGES[1]]
_NULL_ID_NODES = [{"id": None, "layer": "PMU"}, *_CHAIN_NODES[1:]]
_CHAIN = {"nodes": _CHAIN_NODES, "edges": _GOOD_EDGES}
_REVERSED_WINDOW_EDGES = [{**_BAD_WINDOW_EDGES[0], "attack_window": [5, 2]}, _GOOD_EDGES[1]]
_HUGE_GAMMA_EDGES = [
    {"child": "pmu1", "parent": "pdc1",
     "attacker": {"gamma": 1e13, "sensitivity": 2.0, "epsilon": 0.5}},
    _GOOD_EDGES[1],
]
_TWO_PMUS = {
    "nodes": [{"id": "pmu1", "layer": "PMU"}, {"id": "pmu2", "layer": "PMU"}, *_CHAIN_NODES[1:]],
    "edges": [{"child": "pmu1", "parent": "pdc1"}, {"child": "pmu2", "parent": "pdc1"},
              _GOOD_EDGES[1]],
}


def _series_file(text):
    """Arguments giving pmu1 the series file `text`."""
    def extra(tmp_path):
        path = tmp_path / "pmu1.csv"
        path.write_text(text)
        return ["--series", f"pmu1={path}"]
    return extra


def _stray_series(tmp_path):
    """Series files for a PDC and an unknown node; ingest would reject the file itself."""
    path = tmp_path / "stray.csv"
    path.write_text("not a measurement file\n")
    return ["--series", f"pdc1={path}", "--series", f"typo={path}"]


def _overflowing_sum(tmp_path):
    """Both PMUs read 24 hours of 1e308, whose sums overflow; the trace would go to trace.csv."""
    path = tmp_path / "huge.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"2018-01-01T{hour:02d}:00:00,1e308\n" for hour in range(24)))
    return ["--series", f"pmu1={path}", "--series", f"pmu2={path}", "--kind", "sum",
            "--trace-out", str(tmp_path / "trace.csv")]


def _stray_missing_series(tmp_path):
    """A stray node whose file does not exist: the id is checked before any file is read."""
    return ["--series", f"typo={tmp_path / 'missing.csv'}"]


def _stamped_series(stamp):
    """Arguments giving pmu1 a series whose row 3 is stamped `stamp`."""
    return _series_file(f"timestamp,value\n2018-01-01T00:00:00,1.0\n{stamp},2.0\n")


@pytest.mark.parametrize("topology, extra, needle", [
    ([1, 2], [], "topology"),
    ({"nodes": 5}, [], "nodes"),
    ({"nodes": _CHAIN_NODES, "edges": _BAD_WINDOW_EDGES}, [], "attack_window"),
    ({"nodes": _CHAIN_NODES, "edges": _GOOD_EDGES}, ["--n-runs", "1000"], "--tau"),
    ({"nodes": [{"layer": "PMU"}], "edges": []}, [], "topology.nodes[0].id is required"),
    ({"nodes": _CHAIN_NODES, "edges": _NO_GAMMA_EDGES}, [],
     "topology.edges[0].attacker.gamma is required"),
    ({"nodes": _CHAIN_NODES, "edges": _GOOD_EDGES}, ["--tau", "6", "--n-runs", "0"],
     "n_runs must be at least 1000, got 0"),
    ({"nodes": _CHAIN_NODES, "edges": _TINY_SCALE_EDGES}, [], "not finite"),
    ({"nodes": _NULL_ID_NODES, "edges": [{"child": None, "parent": "pdc1"}, _GOOD_EDGES[1]]},
     [], "topology.nodes[0].id is required and may not be null"),
    ({"nodes": _CHAIN_NODES, "edges": [{"child": None, "parent": "pdc1"}, _GOOD_EDGES[1]]},
     [], "topology.edges[0].child is required and may not be null"),
    ({"nodes": _CHAIN_NODES, "edges": [_GOOD_EDGES[0], {"child": "pdc1", "parent": None}]},
     [], "topology.edges[1].parent is required and may not be null"),
    ({"nodes": _CHAIN_NODES, "edges": _FRACTIONAL_WINDOW_EDGES}, [],
     "topology.edges[0].attack_window must be [start, end] of whole timesteps"),
    ({"nodes": _CHAIN_NODES, "edges": _BOOL_WINDOW_EDGES}, [],
     "topology.edges[0].attack_window must be [start, end] of whole timesteps"),
    ({"nodes": _CHAIN_NODES, "edges": _HUGE_WINDOW_EDGES}, [],
     "topology.edges[0].attack_window must be a number"),
    (_CHAIN, ["--kind", "bogus"], "expected one of ('hourly_mean', 'sum')"),
    (_CHAIN, _stamped_series("2018-01-01T05:00+01:00"),
     "row 3: bad timestamp '2018-01-01T05:00+01:00'"),
    (_CHAIN, _stamped_series("now"), "row 3: bad timestamp 'now'"),
    (_CHAIN, _stamped_series("Today"), "row 3: bad timestamp 'Today'"),
    (_CHAIN, _stamped_series("300000-01-01"), "row 3: bad timestamp '300000-01-01'"),
    (_CHAIN, _series_file("timestamp,value\n2018-01-01T00:00:00," + "1" * 140_000 + "\n"),
     "row 2: field larger than field limit (131072)"),
    ({**_CHAIN, "dp_policy": {"PMU": {"sensitivity": 1e308, "epsilon": 1e-10}}}, [],
     "not finite"),
    (_CHAIN, _stray_series, "--series names node(s) that are not PMUs of the topology: pdc1, typo"),
    (_TWO_PMUS, _overflowing_sum, "overflow"),
    ({**_CHAIN, "dp_policy": {"PMU": {"sensitivity": -1, "epsilon": 1}}}, [],
     "topology.dp_policy.PMU: sensitivity must be finite and non-negative, got -1.0"),
    ({"nodes": _CHAIN_NODES, "edges": _HUGE_GAMMA_EDGES}, [],
     "topology.edges[0].attacker: stealth budget 10000000000000.0 too large to resolve"),
    ({"nodes": _CHAIN_NODES, "edges": _REVERSED_WINDOW_EDGES}, [],
     "topology.edges[0]: bad attack window (5.0, 2.0)"),
    (_CHAIN, _stray_missing_series,
     "--series names node(s) that are not PMUs of the topology: typo"),
], ids=["list", "nodes-not-list", "window-not-list", "n-runs-without-tau", "node-without-id",
        "attacker-without-gamma", "zero-n-runs", "attacker-scale-underflow", "null-node-id",
        "null-edge-child", "null-edge-parent", "fractional-window", "boolean-window",
        "huge-window", "unknown-kind", "non-utc-stamp", "now-stamp", "today-stamp",
        "year-beyond-datetime64", "oversized-field", "policy-scale-overflow",
        "series-not-a-pmu", "non-finite-sum", "policy-negative-sensitivity",
        "attacker-huge-gamma", "reversed-window", "stray-series-missing-file"])
def test_simulate_bad_input_exits_2_with_json(capsys, tmp_path, topology, extra, needle):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(topology))
    if callable(extra):
        extra = extra(tmp_path)
    code, out, err = run_cli(capsys, [
        "simulate", "--topology", str(path), "--synth-days", "2", *extra,
    ])
    assert code == 2 and out == ""
    payload = parse_json(err)
    assert payload["command"] == "simulate"
    assert needle in payload["error"]
    assert not (tmp_path / "trace.csv").exists()


def test_numpy_overflow_exits_2_without_the_test_suites_warning_filter(tmp_path):
    """The command itself makes numpy's RuntimeWarnings errors, not only pytest's filterwarnings."""
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps(_TWO_PMUS))
    proc = subprocess.run(
        [sys.executable, "-m", "dpgrid.cli", "simulate", "--topology", str(topology),
         *_overflowing_sum(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "overflow" in parse_json(proc.stderr)["error"]
    assert not (tmp_path / "trace.csv").exists()


_YEARS_NEEDLE = "start must be a date in datetime64[us]'s years, got {!r}"


@pytest.mark.parametrize("start, needle", [
    ("now", _YEARS_NEEDLE), ("today", _YEARS_NEEDLE), ("300000-01-01", _YEARS_NEEDLE),
    ("2018-01-01T05:00", "start must be a date at midnight, got {!r}"),
    ("2018-01-01T01:00+01:00", "start must be an ISO-8601 date in UTC, got {!r}"),
], ids=["now", "today", "year-beyond-datetime64", "time-of-day", "zone"])
def test_synth_bad_start_exits_2_with_json(capsys, tmp_path, start, needle):
    out_file = tmp_path / "pmu.csv"
    code, out, err = run_cli(capsys, [
        "synth", "--days", "1", "--start", start, "--out", str(out_file),
    ])
    assert code == 2 and out == ""
    payload = parse_json(err)
    assert payload["command"] == "synth"
    assert needle.format(start) in payload["error"]
    assert not out_file.exists()


def test_output_dir_env_resolves_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DPGRID_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, [
        "synth", "--days", "1", "--out", "nested/pmu.csv",
    ])
    assert code == 0
    assert (tmp_path / "nested" / "pmu.csv").exists()
    assert parse_json(out)["out"] == str(tmp_path / "nested" / "pmu.csv")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dpgrid.cli", "impact", "--epsilon", "0.1",
         "--gamma", "2.0", "--sensitivity", "2.0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["deviation"] > 0.0
