"""Tests of the benchmark's own generator, checks and span accounting.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TRACE_HEADER = ("timestep,timestamp,child,parent,true_value,dp_noise,injected,"
                "noise_total,delivered,flag")


def _write_trace(path, delivered_fix=None):
    """A 2-edge, 4-hour trace; edge a->p is attacked on hours [1, 3)."""
    rng = np.random.default_rng(0)
    lines = ["# config_hash=abc", TRACE_HEADER]
    row = 0
    for t in range(4):
        for child in ("a", "b"):
            true = float(rng.uniform(10, 50))
            dp = float(rng.laplace(0, 4))
            injected = float(rng.exponential(3)) if child == "a" and 1 <= t < 3 else 0.0
            noise = dp + injected
            delivered = true + noise
            if delivered_fix is not None and row == delivered_fix:
                delivered = float(np.nextafter(delivered, np.inf))
            lines.append(f"{t},2015-01-01T0{t}:00:00,{child},p,{true!r},{dp!r},{injected!r},"
                         f"{noise!r},{delivered!r},0")
            row += 1
    path.write_text("\n".join(lines) + "\n")
    payload = {"config_hash": "abc", "plaintext_attack_edges": ["a->p"]}
    return payload, {("a", "p"): (1, 3)}


def test_trace_check_accepts_exact_sums(tmp_path):
    payload, windows = _write_trace(tmp_path / "trace.csv")
    assert checks.check_trace(payload, str(tmp_path / "trace.csv"), windows, 2, 4) == []


def test_trace_check_rejects_delivered_one_ulp_off(tmp_path):
    payload, windows = _write_trace(tmp_path / "trace.csv", delivered_fix=5)
    problems = checks.check_trace(payload, str(tmp_path / "trace.csv"), windows, 2, 4)
    assert any("delivered != true_value + noise_total on 1 rows" in p for p in problems)


def _write_sweep(path, eps, gammas, sens, drop=None):
    lines = ["# config_hash=h", "epsilon,gamma,sensitivity,theta,k1,mu_star,deviation"]
    cells = [(e, g, s) for e in eps for g in gammas for s in sens]
    for i, (e, g, s) in enumerate(cells):
        if i == drop:
            continue
        dev = float(s) / float(e) * float(g)
        lines.append(f"{e},{g},{s},0.0,1.0,{dev!r},{dev!r}")
    path.write_text("\n".join(lines) + "\n")
    return {"rows": len(cells), "config_hash": "h"}


def test_sweep_check_accepts_full_grid(tmp_path):
    eps, gammas, sens = ["0.1", "0.2"], ["0.5", "1.0"], ["1", "2"]
    payload = _write_sweep(tmp_path / "s.csv", eps, gammas, sens)
    assert checks.check_sweep(payload, str(tmp_path / "s.csv"), eps, gammas, sens) == []


def test_sweep_check_rejects_missing_row(tmp_path):
    eps, gammas, sens = ["0.1", "0.2"], ["0.5", "1.0"], ["1", "2"]
    payload = _write_sweep(tmp_path / "s.csv", eps, gammas, sens, drop=3)
    problems = checks.check_sweep(payload, str(tmp_path / "s.csv"), eps, gammas, sens)
    assert any("7 rows, want 8" in p for p in problems)


def test_command_exiting_2_is_a_failure(tmp_path):
    launcher = run.Launcher()
    try:
        runner = run.Runner(launcher, str(tmp_path), traced=False)
        result = runner.cli("calibrate", ["calibrate", "--sensitivity", "-1", "--gamma", "1",
                                          "--max-deviation", "1"])
    finally:
        launcher.close()
    assert result.returncode == 2
    assert not result.ok
    assert "exit code 2" in result.problems[0]


def test_paced_runner_scales_by_the_references_around_a_command(tmp_path):
    launcher = run.Launcher()
    try:
        runner = run.Runner(launcher, str(tmp_path), traced=False, paced=True)
        first = runner.spawn("pass", [sys.executable, "-c", "pass"])
        second = runner.spawn("pass", [sys.executable, "-c", "pass"])
    finally:
        launcher.close()
    (s0, c0), (s1, c1), (s2, c2) = runner.refs
    assert 0 < c0 and 0 < s0
    assert first.start_scale == run.REFERENCE_START_S / ((s0 + s1) / 2)
    assert first.compute_scale == run.REFERENCE_COMPUTE_S / ((c0 + c1) / 2)
    assert second.start_scale == run.REFERENCE_START_S / ((s1 + s2) / 2)
    assert second.compute_scale == run.REFERENCE_COMPUTE_S / ((c1 + c2) / 2)


def test_start_up_and_compute_are_scaled_apart():
    def cmd(wall, start_scale=1.0, compute_scale=1.0):
        return checks.CommandResult("c", 0, wall, 10.0, start_scale=start_scale,
                                    compute_scale=compute_scale)

    setup = cmd(0.25, start_scale=2.0)
    assert run.scaled_time(cmd(1.25, 2.0, 0.5), setup) == 0.25 * 2.0 + 1.0 * 0.5
    # a command shorter than the set-up sample is all start-up
    assert run.scaled_time(cmd(0.2, 2.0, 0.5), setup) == 0.4

    reps = [{"commands": [cmd(1.0, 2.0, 2.0), cmd(3.0)], "units": 100, "main": cmd(1.0, 2.0, 2.0)},
            {"commands": [cmd(2.0), cmd(1.0)], "units": 100, "main": cmd(2.0)},
            {"commands": [cmd(4.0, 0.5, 0.5), cmd(9.0)], "units": 100, "main": cmd(4.0, 0.5, 0.5)}]
    m = {"reps": reps, "setups": [cmd(0.5), cmd(0.2, 2.0), cmd(0.5)]}
    scaled = run.summarize(run.Detect, m)
    assert scaled["wall_s"] == 5.0  # medians of 5, 3 and 11
    assert scaled["setup_s"] == 0.5
    assert scaled["throughput_per_s"] == 50.0
    raw = run.summarize(run.Detect, m, scaled=False)
    assert raw["wall_s"] == 4.0 and raw["throughput_per_s"] == 50.0


def test_generator_is_byte_identical_per_seed(tmp_path):
    def snapshot(directory, seed):
        directory.mkdir()
        info = gen.write_wide(str(directory), seed)
        paths = [info["topology"], *info["series"].values()]
        return info, [open(p, "rb").read() for p in paths]

    info_a, first = snapshot(tmp_path / "a", 7)
    info_b, second = snapshot(tmp_path / "b", 7)
    _, other = snapshot(tmp_path / "c", 8)
    assert first == second
    assert first[1:] != other[1:]
    assert info_a["rows"] == 100 * 2880
    assert info_a["bytes"] == info_b["bytes"] == sum(len(b) for b in first)


def test_generated_hours_keep_a_good_reading():
    lines = gen.quarter_hour_csv(3, "pmu")[:-1].split("\n")[1:]
    bad = np.array([line.endswith(",bad") for line in lines]).reshape(-1, 4)
    assert bad.any()
    assert not bad.all(axis=1).any()


def test_self_time_subtracts_child_spans():
    doc = {
        "names": ["cli.main", "gridsim.detection_rate", "seeds.derive_rng"],
        "spans": [
            [0, 0.0, 10.0, -1, 0],
            [1, 1.0, 9.0, 0, 0],
            [2, 2.0, 3.0, 1, 1],
            [2, 4.0, 4.5, 1, 0],
            [2, 9.5, 9.75, 0, 1],
        ],
    }
    agg = tracing.aggregate([json.loads(json.dumps(doc))])
    assert agg["cli.main"]["self_s"] == 10.0 - 8.0 - 0.25
    assert agg["cli.main"]["top_busy_s"] == 10.0
    assert agg["gridsim.detection_rate"]["self_s"] == 8.0 - 1.5
    rng = agg["seeds.derive_rng"]
    assert (rng["calls"], rng["mc_calls"], rng["count"], rng["mc_count"]) == (3, 2, 2, 1)
