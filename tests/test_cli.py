import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgrid import adversary, cli, gridsim
from dpgrid.adversary import AttackProfile, impact_sweep, sweep_to_csv
from dpgrid.calibrate import DesignSpec, calibrate_epsilon
from dpgrid.cli import main
from dpgrid.gridsim import _AGGREGATION, Edge, GridTopology, Layer, Node, save_topology
from dpgrid.laplace import PrivacyParams
from dpgrid.series import export_csv, ingest_csv, resample, synth_pmu


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # a value argparse rejects exits as argparse does
        code = exc.code
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


@pytest.mark.parametrize("theta", ["0.0", "33.18"])
def test_sweep_bytes_do_not_depend_on_share_count(capsys, monkeypatch, fake_affinity, tmp_path,
                                                  theta):
    # 70 cells, cut into 1, 2 or 3 shares of 23 and 24 cells; the fork cut-off is lowered so a
    # grid this small forks.
    monkeypatch.setattr(adversary, "_FORK_CELLS", 20)
    axes = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2], [0.5, 1.0, 2.0, 4.0, 8.0], [1.0, 2.5]
    argv = ["sweep", *(f"--{name}={','.join(map(repr, axis))}" for name, axis in
                       zip(("epsilons", "gammas", "sensitivities"), axes)), "--theta", theta]
    outputs = []
    for count in (1, 2, 3):
        forks = fake_affinity(range(count))
        out_file = tmp_path / f"sweep-{count}.csv"
        code, out, err = run_cli(capsys, [*argv, "--out", str(out_file)])
        assert code == 0, err
        assert len(forks) == count - 1
        assert parse_json(out)["rows"] == 70
        outputs.append(out_file.read_bytes())
    expected = tmp_path / "points.csv"
    sweep_to_csv(impact_sweep(*axes, theta=float(theta)), expected,
                 metadata={"config_hash": parse_json(out)["config_hash"]})
    assert outputs[0] == outputs[1] == outputs[2] == expected.read_bytes()


def test_sweep_below_the_fork_cut_off_runs_in_one_process(capsys, fake_affinity, tmp_path):
    # The README's 48-cell example.
    forks = fake_affinity(range(2))
    code, _, err = run_cli(capsys, ["sweep", "--epsilons", "0.05,0.1,0.2,0.4",
                                    "--gammas", "0.5,1,2,4", "--sensitivities", "1,2,4",
                                    "--out", str(tmp_path / "sweep.csv")])
    assert code == 0, err
    assert forks == []


@pytest.mark.parametrize("count, earlier", [(2, None), (3, None), (3, b"an earlier sweep\r\n")],
                         ids=["2", "3", "3-over-an-earlier-file"])
def test_faulty_cell_in_a_childs_share_exits_2_as_in_one_process(capsys, monkeypatch,
                                                                 fake_affinity, tmp_path, count,
                                                                 earlier):
    # Cells 4 and 5 of 6, epsilon 1e200 at both sensitivities, have no finite mean shift; they
    # lie in the last share, a child's, of 2 or 3.  An earlier file at --out stays as it was.
    monkeypatch.setattr(adversary, "_FORK_CELLS", 1)
    out_file = tmp_path / "sweep.csv"
    if earlier is not None:
        out_file.write_bytes(earlier)
    argv = ["sweep", "--epsilons", "1,2,1e200", "--gammas", "2", "--sensitivities", "1e-3,1",
            "--out", str(out_file)]
    runs = []
    for cpu_count in (1, count):
        forks = fake_affinity(range(cpu_count))
        runs.append(run_cli(capsys, argv))
        assert len(forks) == cpu_count - 1
        assert (out_file.read_bytes() if out_file.exists() else None) == earlier
        assert os.listdir(tmp_path) == ([] if earlier is None else ["sweep.csv"])
    assert runs[0] == runs[1]
    code, out, err = runs[1]
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": "sweep", "error": "noise scale out of range: the "
                               "attacker's mean shift is not finite"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _quarter_hours(path, seed):
    """Two days of quarter-hour readings with a quality column, every seventh one bad: each hour
    keeps a good reading."""
    stamps = np.datetime_as_string(np.datetime64("2015-01-01T00:00", "m") + 15 * np.arange(192),
                                   unit="s")
    values = np.random.default_rng(seed).normal(7.5, 1.0, 192).tolist()
    path.write_text("timestamp,value,quality\n" + "".join(
        f"{stamp},{value!r},{'bad' if k % 7 == 3 else 'ok'}\n"
        for k, (stamp, value) in enumerate(zip(stamps, values))))


def _fan(capsys, tmp_path, files, quarter_hours=False):
    """A topology of `files` PMUs under one PDC, pmu0's edge attacked, and the --series
    arguments of one file per PMU, in PMU order: synth-written hourly files, or quarter-hour
    ones."""
    params = PrivacyParams(2.0, 0.5)
    pmus = [f"pmu{i}" for i in range(files)]
    topo = GridTopology(
        nodes=(*(Node(pmu, Layer.PMU) for pmu in pmus), Node("pdc1", Layer.PDC),
               Node("m", Layer.MASTER)),
        edges=(Edge("pmu0", "pdc1", attacker=AttackProfile.solve(2.0, params),
                    attack_window=(10, 30)),
               *(Edge(pmu, "pdc1") for pmu in pmus[1:]), Edge("pdc1", "m")),
        dp_policy={Layer.PMU: params},
    )
    save_topology(topo, tmp_path / "fan.json")
    series = []
    for i, pmu in enumerate(pmus):
        path = tmp_path / f"{pmu}.csv"
        if quarter_hours:
            _quarter_hours(path, i)
        else:
            code, _, err = run_cli(capsys, ["synth", "--days", "2", "--seed", str(i),
                                            "--out", str(path)])
            assert code == 0, err
        series += ["--series", f"{pmu}={path}"]
    return ["simulate", "--topology", str(tmp_path / "fan.json"), *series]


def test_simulate_bytes_do_not_depend_on_ingest_share_count(capsys, monkeypatch, fake_affinity,
                                                           tmp_path):
    _check_ingest_shares(capsys, monkeypatch, fake_affinity, tmp_path, False, "hourly_mean")


def test_quarter_hour_bytes_do_not_depend_on_ingest_share_count(capsys, monkeypatch,
                                                                fake_affinity, tmp_path):
    _check_ingest_shares(capsys, monkeypatch, fake_affinity, tmp_path, True, "sum")


def _check_ingest_shares(capsys, monkeypatch, fake_affinity, tmp_path, quarter_hours, kind):
    # Three shares' worth of files: 1, 2 or 3 faked CPUs cut them into that many shares.  Each
    # share resamples its files to hours, as the query does.
    files = 3 * cli._FORK_FILES
    argv = _fan(capsys, tmp_path, files, quarter_hours)
    paths = argv[4::2]
    real_run_query = gridsim.run_query
    seen = []  # (forks so far, series map) as each run's query starts, after ingest

    def spy(topology, series_map, *args, **kwargs):
        seen.append((len(forks), series_map))
        return real_run_query(topology, series_map, *args, **kwargs)

    monkeypatch.setattr(gridsim, "run_query", spy)
    outputs = []
    for count in (1, 2, 3):
        forks = fake_affinity(range(count))
        trace_file = tmp_path / f"trace-{count}.csv"
        code, out, err = run_cli(capsys, [*argv, "--kind", kind, "--tau", "6", "--window", "12",
                                          "--n-runs", "1000", "--trace-out", str(trace_file)])
        assert code == 0, err
        assert seen[-1][0] == count - 1
        payload = parse_json(out)
        assert payload.pop("trace_out") == str(trace_file)
        outputs.append((payload, trace_file.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][1].startswith(f"# config_hash={outputs[0][0]['config_hash']}\n".encode())
    for _, series_map in seen:
        assert list(series_map) == [f"pmu{i}" for i in range(files)]
        for path, got in zip(paths, series_map.values()):
            want = resample(ingest_csv(path.split("=", 1)[1]), "hour", how=_AGGREGATION[kind])
            assert got.timestamps.tobytes() == want.timestamps.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert got.mask.tobytes() == want.mask.tobytes()


def test_simulate_below_the_ingest_cut_off_runs_in_one_process(capsys, fake_affinity, tmp_path):
    # Too few files for two shares of at least _FORK_FILES each, on any number of CPUs.
    argv = _fan(capsys, tmp_path, 2 * cli._FORK_FILES - 1)
    forks = fake_affinity(range(3))
    code, _, err = run_cli(capsys, argv)
    assert code == 0, err
    assert forks == []


def _full_spill(monkeypatch):
    """The second spill file is /dev/full: the child whose share it takes gets ENOSPC."""
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    real = tempfile.TemporaryFile
    made = []

    def spill(*args, **kwargs):
        made.append(1)
        if len(made) == 2:
            return open("/dev/full", "w+", encoding=kwargs.get("encoding"), newline="")
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", spill)
    return "[Errno 28] No space left on device"


def _failing_lines(monkeypatch):
    """A forked share's lines raise, share 0's do not."""
    real = gridsim.write_shares

    def write_shares(path, header, units, lines, most, metadata=None):
        def failing(first, last):
            if first:
                raise ValueError(f"no lines from {first}")
            return lines(first, last)

        return real(path, header, units, failing, most, metadata)

    monkeypatch.setattr(gridsim, "write_shares", write_shares)
    return "no lines from 16"


@pytest.mark.parametrize("fault, earlier", [(_full_spill, None), (_failing_lines, None),
                                           (_failing_lines, b"an earlier trace\r\n")],
                         ids=["enospc", "lines-raise", "lines-raise-over-an-earlier-file"])
def test_failing_trace_share_leaves_nothing_behind(capsys, monkeypatch, fake_affinity, tmp_path,
                                                   fault, earlier):
    # 3 files over 2 days: 48 hours x 4 edges, cut into shares of 16 hours on 3 CPUs.  An earlier
    # file at --trace-out stays as it was.
    argv = _fan(capsys, tmp_path, 3)
    trace_file = tmp_path / "trace.csv"
    if earlier is not None:
        trace_file.write_bytes(earlier)
    monkeypatch.setattr(gridsim, "_FORK_ROWS", 1)
    needle = fault(monkeypatch)
    before = sorted(os.listdir(tmp_path))
    forks = fake_affinity(range(3))
    code, out, err = run_cli(capsys, [*argv, "--trace-out", str(trace_file)])
    assert len(forks) == 2
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": "simulate", "error": needle}
    assert (trace_file.read_bytes() if trace_file.exists() else None) == earlier
    assert sorted(os.listdir(tmp_path)) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bad_timestamp(path):
    path.write_text("timestamp,value\n2018-01-01T00:00:00,1.0\nnot-a-time,2.0\n")
    return f"{path}: row 3: bad timestamp 'not-a-time'"


def _missing(path):
    path.unlink()
    return f"[Errno 2] No such file or directory: '{path}'"


@pytest.mark.parametrize("fault", [_bad_timestamp, _missing], ids=["bad-timestamp", "missing"])
@pytest.mark.parametrize("count", [2, 3])
def test_bad_series_file_in_a_childs_share_exits_2_as_in_one_process(capsys, fake_affinity,
                                                                    tmp_path, fault, count):
    # The last of 24 files lies in the last share, a child's, of 2 or 3.
    argv = _fan(capsys, tmp_path, 24)
    needle = fault(tmp_path / "pmu23.csv")
    runs = []
    for cpu_count in (1, count):
        forks = fake_affinity(range(cpu_count))
        runs.append(run_cli(capsys, argv))
        assert len(forks) == cpu_count - 1
    assert runs[0] == runs[1]
    code, out, err = runs[1]
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": "simulate", "error": needle}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("first, second", [(3, 20), (10, 20)], ids=["parents-share", "childs"])
@pytest.mark.parametrize("faults", [(_bad_timestamp, _missing), (_missing, _bad_timestamp)],
                         ids=["timestamp-then-missing", "missing-then-timestamp"])
def test_first_bad_series_file_in_argument_order_is_named(capsys, fake_affinity, tmp_path,
                                                          first, second, faults):
    # Three shares of 8 files: the bad files lie in two different ones.
    argv = _fan(capsys, tmp_path, 24)
    needle = faults[0](tmp_path / f"pmu{first}.csv")
    faults[1](tmp_path / f"pmu{second}.csv")
    forks = fake_affinity(range(3))
    code, out, err = run_cli(capsys, argv)
    assert len(forks) == 2
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": "simulate", "error": needle}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_in_shares_skips_a_nodes_earlier_missing_file(capsys, fake_affinity, tmp_path):
    argv = _fan(capsys, tmp_path, 24)
    forks = fake_affinity(range(3))
    expected = run_cli(capsys, argv)
    assert expected[0] == 0, expected[2]
    missing = tmp_path / "missing.csv"
    assert run_cli(capsys, [*argv[:3], "--series", f"pmu23={missing}", *argv[3:]]) == expected
    assert len(forks) == 4


@pytest.mark.parametrize("first", [7, 10], ids=["parents-share-then-childs", "childs-share"])
def test_resample_fault_comes_before_a_parse_fault_in_a_later_file(capsys, fake_affinity,
                                                                   tmp_path, first):
    # Each share resamples a file as it reads it, so under --kind sum file `first`'s hour that
    # overflows is named before the next file's bad timestamp, in one process and in three shares
    # of 8 files.
    argv = [*_fan(capsys, tmp_path, 24), "--kind", "sum"]
    faulty = _huge_quarter_hours(tmp_path).replace(tmp_path / f"pmu{first}.csv")
    _bad_timestamp(tmp_path / f"pmu{first + 1}.csv")
    runs = []
    for count in (1, 3):
        forks = fake_affinity(range(count))
        runs.append(run_cli(capsys, argv))
        assert len(forks) == count - 1
    assert runs[0] == runs[1]
    code, out, err = runs[1]
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": "simulate", "error": f"{faulty}: the sum of the readings "
                               f"in the hour from 2018-01-01T00 overflows"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _hour_rows(path, value):
    path.write_text("timestamp,value\n" + "".join(
        f"2018-01-0{day}T{hour:02d}:00:00,{value}\n" for day in (1, 2) for hour in range(24)))


def test_config_hash_names_the_bytes_that_were_ingested(capsys, monkeypatch, tmp_path):
    # A series file rewritten after ingest, before the query runs: the hash is that of the bytes
    # the run read, not of the file as it is when the run ends.
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps(_CHAIN))
    series = tmp_path / "pmu1.csv"
    argv = ["simulate", "--topology", str(topology), "--series", f"pmu1={series}"]
    runs = {}
    for value in ("1.0", "2.0"):
        _hour_rows(series, value)
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        runs[value] = parse_json(out)
    assert runs["1.0"]["config_hash"] != runs["2.0"]["config_hash"]
    real_run_query = gridsim.run_query

    def rewrite(*args, **kwargs):
        _hour_rows(series, "1.0")
        return real_run_query(*args, **kwargs)

    monkeypatch.setattr(gridsim, "run_query", rewrite)
    code, out, err = run_cli(capsys, argv)  # reads the 2.0 file left by the loop
    assert code == 0, err
    assert parse_json(out) == runs["2.0"]


def test_simulate_opens_each_input_file_once(capsys, monkeypatch, fake_affinity, tmp_path):
    # In one process, so every open is seen: the topology and each series file are read once,
    # for the run and its config hash both.
    argv = _fan(capsys, tmp_path, 3)
    inputs = [argv[2], *(arg.split("=", 1)[1] for arg in argv[4::2])]
    opened = []
    real_open = open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    fake_affinity([0])
    code, _, err = run_cli(capsys, [*argv, "--trace-out", str(tmp_path / "trace.csv")])
    assert code == 0, err
    assert sorted(str(f) for f in opened if str(f) in inputs) == sorted(inputs)


# A value or an argument that argparse itself rejects: the same JSON error and exit code as a
# command's own validation, nothing on stdout and no output file.
@pytest.mark.parametrize("argv, command, needle", [
    (["impact", "--epsilon", "0.1", "--gamma", "2", "--sensitivity", "2", "--theta", "abc"],
     "impact", "argument --theta: invalid float value: 'abc'"),
    (["qos", "--epsilon", "0.1", "--gamma", "2", "--sensitivity", "2", "--days", "x"],
     "qos", "argument --days: invalid int value: 'x'"),
    (["sweep", "--epsilons", ",", "--gammas", "1", "--sensitivities", "1"],
     "sweep", "argument --epsilons: empty list: ','"),
    (["sweep", "--epsilons", "0.1,abc", "--gammas", "1", "--sensitivities", "1"],
     "sweep", "argument --epsilons: not a list of numbers: '0.1,abc'"),
    (["sweep", "--epsilons", "0.1", "--gammas", "1", "--sensitivities", "1", "--bogus", "1"],
     "sweep", "unrecognized arguments: --bogus 1"),
    (["calibrate", "--sensitivity", "2", "--gamma", "2"],
     "calibrate", "the following arguments are required: --max-deviation"),
    (["simulate", "--topology", "topo.json", "--series", "pmu1"],
     "simulate", "argument --series: expected NODE=PATH, got 'pmu1'"),
    (["nosuch"], None, "argument command: invalid choice: 'nosuch'"),
    ([], None, "the following arguments are required: command"),
], ids=["impact-theta", "qos-days", "sweep-empty-axis", "sweep-bad-axis", "sweep-unknown-flag",
        "calibrate-missing", "simulate-series-without-node", "unknown-command", "no-command"])
def test_argparse_rejection_exits_2_with_json(capsys, tmp_path, argv, command, needle):
    out_file = tmp_path / "out"
    if argv and argv[0] != "calibrate":
        argv = [*argv, "--out", str(out_file)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    payload = parse_json(err)
    assert payload["command"] == command
    assert needle in payload["error"]
    assert not out_file.exists()


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


def _synth_series(capsys, out_file, *flags):
    code, out, err = run_cli(capsys, ["synth", "--days", "3", "--out", str(out_file), *flags])
    assert code == 0, err
    series = ingest_csv(out_file)
    return parse_json(out)["config_hash"], series.values.tobytes(), series.mask.tobytes()


@pytest.mark.parametrize("flag, value", [("--noise-level", "0.2"), ("--missing-fraction", "0.3")])
def test_synth_flag_changes_output_and_config_hash(capsys, tmp_path, flag, value):
    base = _synth_series(capsys, tmp_path / "base.csv")
    changed = _synth_series(capsys, tmp_path / "changed.csv", flag, value)
    assert changed[0] != base[0]
    assert changed[1:] != base[1:]


@pytest.mark.parametrize("flag, value, needle", [
    ("--noise-level", "nan", "noise_level must be finite, got nan"),
    ("--noise-level", "inf", "noise_level must be finite, got inf"),
    ("--noise-level", "-1", "noise_level must be non-negative, got -1.0"),
    ("--missing-fraction", "1", "missing_fraction must be in [0, 1), got 1.0"),
    ("--noise-level", "1e308", "noise_level=1e+308 overflows the reading at 2015-01-01T00:00:00"),
], ids=["nan-noise", "inf-noise", "negative-noise", "all-missing", "overflowing-noise"])
def test_synth_bad_flag_exits_2_with_json(capsys, tmp_path, flag, value, needle):
    out_file = tmp_path / "pmu.csv"
    code, out, err = run_cli(capsys, ["synth", "--days", "1", flag, value, "--out", str(out_file)])
    assert code == 2 and out == ""
    payload = parse_json(err)
    assert payload["command"] == "synth"
    assert needle in payload["error"]
    assert not out_file.exists()


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


# qos exports daily totals: ingest_csv reads them back bit for bit, but simulate needs a reading
# in every hour, as a synth --out file has, so it refuses them as --series.
def test_qos_exports_read_back_but_are_no_simulate_series(capsys, topology_file, tmp_path):
    export_dir = tmp_path / "series"
    code, out, err = run_cli(capsys, [
        "qos", "--epsilon", "0.5", "--gamma", "0.5", "--sensitivity", "2.0",
        "--days", "120", "--seed", "1", "--export-series", str(export_dir),
    ])
    assert code == 0, err
    meta = {"config_hash": parse_json(out)["config_hash"]}
    for name in ("original", "dp", "fdi_dp"):
        path = export_dir / f"{name}.csv"
        series = ingest_csv(path)
        assert len(series) == 120 and series.complete
        export_csv(series, tmp_path / "again.csv", metadata=meta)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    simulate = ["simulate", "--topology", str(topology_file), "--tau", "6.0", "--window", "24"]
    code, out, err = run_cli(capsys, [*simulate, "--series", f"pmu1={export_dir / 'original.csv'}"])
    assert code == 2 and out == ""
    assert "empty hours after resampling" in parse_json(err)["error"]
    hourly = tmp_path / "pmu1.csv"
    assert run_cli(capsys, ["synth", "--days", "120", "--seed", "1", "--out", str(hourly)])[0] == 0
    code, out, err = run_cli(capsys, [*simulate, "--series", f"pmu1={hourly}"])
    assert code == 0, err
    assert parse_json(out)["n_timesteps"] == 120 * 24


_QOS = ["qos", "--epsilon", "0.5", "--gamma", "0.5", "--sensitivity", "2.0", "--days", "120"]


@pytest.mark.parametrize("flag, value", [
    ("--attack-start", "10"), ("--attack-end", "60"), ("--horizon", "7"),
    ("--season-length", "14"),
])
def test_qos_flag_changes_output_and_config_hash(capsys, flag, value):
    # At --days 120 the default attack window is days [42, 72).
    base = parse_json(run_cli(capsys, _QOS)[1])
    code, out, err = run_cli(capsys, [*_QOS, flag, value])
    assert code == 0, err
    changed = parse_json(out)
    assert changed.pop("config_hash") != base.pop("config_hash")
    assert changed != base


@pytest.mark.parametrize("flags, needle", [
    (["--attack-start", "50", "--attack-end", "40"], "attack window outside series"),
    (["--attack-start", "100", "--attack-end", "200"], "attack window outside series"),
    (["--horizon", "0"], "horizon must be at least 1, got 0"),
    (["--season-length", "0"], "season_length must be at least 1, got 0"),
    (["--attack-start", "50", "--attack-end", "40"],
     "--attack-start 50 and --attack-end 40 must satisfy 0 <= start <= end <= --days 120"),
    (["--attack-start", "100", "--attack-end", "200"],
     "--attack-start 100 and --attack-end 200 must satisfy 0 <= start <= end <= --days 120"),
    (["--attack-start", "-1"], "--attack-start -1 and --attack-end 72"),
], ids=["reversed-window", "window-past-series", "zero-horizon", "zero-season-length",
        "reversed-window-named", "window-past-series-named", "negative-start-named"])
def test_qos_bad_flag_exits_2_with_json(capsys, tmp_path, flags, needle):
    out_file = tmp_path / "qos.json"
    code, out, err = run_cli(capsys, [*_QOS, *flags, "--out", str(out_file)])
    assert code == 2 and out == ""
    payload = parse_json(err)
    assert payload["command"] == "qos"
    assert needle in payload["error"]
    assert not out_file.exists()


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


# numpy's _ArrayMemoryError, for an array larger than the host can give, is a MemoryError.
@pytest.mark.parametrize("argv", [
    ["synth", "--days", "100000000", "--out", "s.csv"],
    ["qos", "--epsilon", "0.1", "--gamma", "0.5", "--sensitivity", "2", "--days", "100000000"],
    ["simulate", "--topology", "topo.json", "--synth-days", "100000000"],
], ids=["synth", "qos", "simulate"])
def test_refused_allocation_exits_2_with_json(capsys, monkeypatch, tmp_path, topology_file,
                                              argv):
    import dpgrid.series

    message = "Unable to allocate 17.9 GiB for an array with shape (2400000000,)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(dpgrid.series, "synth_pmu", refuse)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, [str(topology_file) if a == "topo.json" else a
                                      for a in argv])
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": argv[0], "error": message}
    assert not (tmp_path / "s.csv").exists()


def test_unwritable_out_exits_2_and_prints_nothing(capsys, tmp_path):
    code, out, err = run_cli(capsys, [
        "calibrate", "--sensitivity", "2", "--gamma", "2", "--max-deviation", "50",
        "--out", str(tmp_path),
    ])
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": "calibrate",
                               "error": f"[Errno 21] Is a directory: '{tmp_path}'"}
    assert os.listdir(tmp_path) == []


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


# A negative theta in exponent form, or a negative infinity or NaN, is the option's value, as in
# the --option=... form: the same stdout, stderr, exit code and sweep file.
_IMPACT = ["impact", "--epsilon", "0.1", "--gamma", "2", "--sensitivity", "2"]
_SWEEP = ["sweep", "--gammas", "0.5,2", "--sensitivities", "1,2"]


@pytest.mark.parametrize("argv, option, value, code", [
    ([*_SWEEP, "--epsilons", "0.1,0.5"], "--theta", "-1e-300", 0),
    (_IMPACT, "--theta", "-1e308", 0),
    (["calibrate", "--sensitivity", "2", "--gamma", "2", "--max-deviation", "50"], "--theta",
     "-1e308", 0),
    (_IMPACT, "--theta", "-inf", 2),
    (_IMPACT, "--theta", "-Infinity", 2),
    (_IMPACT, "--theta", "-nan", 2),
    (_IMPACT, "--theta", "-NaN", 2),
    (_SWEEP, "--epsilons", "-inf,1", 2),
], ids=["sweep", "impact", "calibrate", "impact-minus-inf", "impact-minus-infinity",
        "impact-minus-nan", "impact-minus-nan-mixed-case", "sweep-minus-inf-epsilon"])
def test_negative_exponent_theta_is_the_options_value(capsys, tmp_path, argv, option, value,
                                                      code):
    out_file = tmp_path / "sweep.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_file)]
    runs = []
    for form in ([option, value], [f"{option}={value}"]):
        run = run_cli(capsys, [*argv, *form])
        runs.append((*run, out_file.read_bytes() if out_file.exists() else None))
        assert run[0] == code, run[2]
    assert runs[0] == runs[1]
    if code == 0:
        assert parse_json(runs[0][1])["config_hash"]
    else:
        assert runs[0][1] == ""
        assert parse_json(runs[0][2])["command"] == argv[0]


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
_BOOL_GAMMA_EDGES = [
    {"child": "pmu1", "parent": "pdc1",
     "attacker": {"gamma": True, "sensitivity": 2.0, "epsilon": 0.5}},
    _GOOD_EDGES[1],
]
_STRING_GAMMA_EDGES = [
    {"child": "pmu1", "parent": "pdc1",
     "attacker": {"gamma": " 2 ", "sensitivity": 2.0, "epsilon": 0.5}},
    _GOOD_EDGES[1],
]
_STRING_WINDOW_EDGES = [{**_BAD_WINDOW_EDGES[0], "attack_window": ["10", "20"]}, _GOOD_EDGES[1]]
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


def _huge_hours(tmp_path):
    """A series file of 24 hourly readings of 1e308, whose sum overflows."""
    path = tmp_path / "huge.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"2018-01-01T{hour:02d}:00:00,1e308\n" for hour in range(24)))
    return path


def _overflowing_sum(tmp_path):
    """Both PMUs read 24 hours of 1e308, whose sums overflow; the trace would go to trace.csv."""
    path = _huge_hours(tmp_path)
    return ["--series", f"pmu1={path}", "--series", f"pmu2={path}", "--kind", "sum",
            "--trace-out", str(tmp_path / "trace.csv")]


def _stray_missing_series(tmp_path):
    """A stray node whose file does not exist: the id is checked before any file is read."""
    return ["--series", f"typo={tmp_path / 'missing.csv'}"]


def _stamped_series(stamp):
    """Arguments giving pmu1 a series whose row 3 is stamped `stamp`."""
    return _series_file(f"timestamp,value\n2018-01-01T00:00:00,1.0\n{stamp},2.0\n")


def _huge_quarter_hours(tmp_path):
    """A series file of four quarter-hour readings of 1e308 in one hour, whose sum overflows."""
    path = tmp_path / "quarter.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"2018-01-01T00:{minute:02d}:00,1e308\n" for minute in (0, 15, 30, 45)))
    return path


def _overflowing_bucket(tmp_path):
    """pmu1's hour sums past the largest float in resample under --kind sum."""
    return ["--series", f"pmu1={_huge_quarter_hours(tmp_path)}", "--kind", "sum",
            "--trace-out", str(tmp_path / "trace.csv")]


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
     "topology.edges[0].attack_window must be a number"),
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
    (_CHAIN, _overflowing_bucket, "overflow"),
    ({**_CHAIN, "dp_policy": {"PMU": {"sensitivity": True, "epsilon": 0.5}}}, [],
     "topology.dp_policy.PMU.sensitivity must be a number, got True"),
    ({"nodes": _CHAIN_NODES, "edges": _BOOL_GAMMA_EDGES}, [],
     "topology.edges[0].attacker.gamma must be a number, got True"),
    ({"nodes": _CHAIN_NODES, "edges": _STRING_GAMMA_EDGES}, [],
     "topology.edges[0].attacker.gamma must be a number, got ' 2 '"),
    ({"nodes": _CHAIN_NODES, "edges": _STRING_WINDOW_EDGES}, [],
     "topology.edges[0].attack_window must be a number, got '10'"),
    ({**_CHAIN, "dp_policy": {"PMU": {"sensitivity": 2.0, "epsilon": "0.5"}}}, [],
     "topology.dp_policy.PMU.epsilon must be a number, got '0.5'"),
    ({"nodes": [{"id": 1, "layer": "PMU"}, *_CHAIN_NODES[1:]], "edges": _GOOD_EDGES}, [],
     "topology.nodes[0].id must be a JSON string, got 1"),
    ({"nodes": _CHAIN_NODES, "edges": [{"child": {"a": 1}, "parent": "pdc1"}, _GOOD_EDGES[1]]},
     [], "topology.edges[0].child must be a JSON string, got {'a': 1}"),
    (_CHAIN, ["--synth-days", "1", "--tau", "6", "--window", "24", "--n-runs", "1000"],
     "series too short for detector warm-up: 24 steps, window 24"),
], ids=["list", "nodes-not-list", "window-not-list", "n-runs-without-tau", "node-without-id",
        "attacker-without-gamma", "zero-n-runs", "attacker-scale-underflow", "null-node-id",
        "null-edge-child", "null-edge-parent", "fractional-window", "boolean-window",
        "huge-window", "unknown-kind", "non-utc-stamp", "now-stamp", "today-stamp",
        "year-beyond-datetime64", "oversized-field", "policy-scale-overflow",
        "series-not-a-pmu", "non-finite-sum", "policy-negative-sensitivity",
        "attacker-huge-gamma", "reversed-window", "stray-series-missing-file",
        "resample-overflow", "boolean-sensitivity", "boolean-gamma", "string-gamma",
        "string-window", "string-policy-epsilon", "integer-node-id", "object-edge-child",
        "shorter-than-warm-up"])
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
    """The command itself makes numpy's RuntimeWarnings errors, not only pytest's filterwarnings:
    Laplace draws at a scale of 1e308 overflow as numpy multiplies them out."""
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps({**_CHAIN, "dp_policy": {"PMU": {"sensitivity": 1e308,
                                                                    "epsilon": 1.0}}}))
    proc = subprocess.run(
        [sys.executable, "-m", "dpgrid.cli", "simulate", "--topology", str(topology),
         "--synth-days", "2", "--trace-out", str(tmp_path / "trace.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "overflow" in parse_json(proc.stderr)["error"]
    assert not (tmp_path / "trace.csv").exists()


def test_simulate_summarises_readings_whose_sum_overflows(capsys, tmp_path):
    """Each mean is 1e308, though the 24 hourly readings it averages sum past the largest float."""
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(_CHAIN))
    code, out, err = run_cli(capsys, ["simulate", "--topology", str(path),
                                      "--series", f"pmu1={_huge_hours(tmp_path)}"])
    assert code == 0, err
    payload = parse_json(out)
    assert payload["n_timesteps"] == 24
    summary = {"flags": 0, "mean_true": 1e308, "mean_delivered": 1e308, "mean_noise_total": 0.0,
               "attacked": False}
    assert payload["edges"] == {"pdc1->m": summary, "pmu1->pdc1": summary}


@pytest.mark.parametrize("extra", [[], ["--n-runs", "1000"]], ids=["trace", "detection-rate"])
def test_simulate_detects_on_readings_whose_sum_overflows(capsys, tmp_path, extra):
    """The detector centres each edge's 24 readings of 1e308 on their mean, 1e308, though their
    sum is not a float, in the trace and in every Monte-Carlo run."""
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(_CHAIN))
    code, out, err = run_cli(capsys, ["simulate", "--topology", str(path), "--series",
                                      f"pmu1={_huge_hours(tmp_path)}", "--tau", "6",
                                      "--window", "4", *extra])
    assert code == 0, err
    payload = parse_json(out)
    summary = {"flags": 0, "mean_true": 1e308, "mean_delivered": 1e308, "mean_noise_total": 0.0,
               "attacked": False}
    assert payload["edges"] == {"pdc1->m": summary, "pmu1->pdc1": summary}
    if extra:
        assert payload["detection"] == {"true_positive_rate": None, "false_positive_rate": 0.0,
                                        "n_runs": 1000}


def test_simulate_averages_children_whose_sum_overflows(capsys, tmp_path):
    """The PDC's true value is the mean of two PMUs that each read 1e308, though their sum is not a
    float; under --kind sum the same input exits 2, naming the edge whose true value overflows."""
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(_TWO_PMUS))
    series = _huge_hours(tmp_path)
    argv = ["simulate", "--topology", str(path), "--series", f"pmu1={series}",
            "--series", f"pmu2={series}"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    edges = parse_json(out)["edges"]
    summary = {"flags": 0, "mean_true": 1e308, "mean_delivered": 1e308, "mean_noise_total": 0.0,
               "attacked": False}
    assert edges == {"pdc1->m": summary, "pmu1->pdc1": summary, "pmu2->pdc1": summary}
    code, out, err = run_cli(capsys, [*argv, "--kind", "sum"])
    assert code == 2 and out == ""
    assert parse_json(err) == {"command": "simulate", "error": "edge pdc1->m: the sum of its "
                               "children's true values overflows"}


def test_simulate_resamples_an_hour_whose_sum_overflows(capsys, tmp_path):
    """Under hourly_mean pmu1's hour of four readings of 1e308 averages to 1e308, though their sum
    is not a float; under --kind sum the same file exits 2 (resample-overflow)."""
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(_CHAIN))
    code, out, err = run_cli(capsys, ["simulate", "--topology", str(path),
                                      "--series", f"pmu1={_huge_quarter_hours(tmp_path)}"])
    assert code == 0, err
    payload = parse_json(out)
    assert payload["n_timesteps"] == 1
    summary = {"flags": 0, "mean_true": 1e308, "mean_delivered": 1e308, "mean_noise_total": 0.0,
               "attacked": False}
    assert payload["edges"] == {"pdc1->m": summary, "pmu1->pdc1": summary}


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
