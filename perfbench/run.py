#!/usr/bin/env python3
"""dpgrid benchmark: fixed CLI workloads, timed end to end and per module.

    python3 perfbench/run.py --workload {detect,wide,design,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: it runs the CLI from ``src/`` as
``python -m dpgrid.cli``, spawned and timed by ``perfbench/launcher.py``.
The load is a closed loop with one client: each command starts after the
previous one exits.  One repetition runs all of a workload's commands;
repetitions go on until ``--seconds`` is spent, and every output is
checked.  ``--seed`` picks the generated inputs.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
medians over the repetitions.  Each untraced command runs between two
runs of ``perfbench/reference.py``, and its time is scaled to a fixed
machine speed (see Runner and summarize): on a shared host the same
command's time drifts by tens of percent.

With ``--trace 1`` untraced repetitions alternate with traced ones,
which run each command through ``perfbench/tracing.py``; the last line
then holds the per-module metrics, and the spans of the last traced
repetition are written to ``.perfbench-out/``.  Lines above the last
give a report with the machine, inputs and the workload's own metric
names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import checks
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
REFERENCE = os.path.join(HERE, "reference.py")

# Typical start-up (wall time minus compute_s) and compute times of
# reference.py on the machine the benchmark was tuned on (2-vCPU Intel
# Xeon guest, Python 3.11); timed metrics are scaled to these speeds.
# Start-up there ranged over 0.12-0.26 s as the host's load changed, and
# moved apart from compute speed for minutes at a time.
REFERENCE_START_S = 0.18
REFERENCE_COMPUTE_S = 0.11

MIN_REPS = 3
COMMAND_TIMEOUT_S = 120.0

DETECT_RUNS = 1000
WIDE_HOURS = gen.WIDE_DAYS * 24
SWEEP_EPSILONS = [repr(float(x)) for x in np.geomspace(0.02, 2.0, 50)]
SWEEP_GAMMAS = [repr(float(x)) for x in np.geomspace(0.05, 10.0, 50)]
SWEEP_SENSITIVITIES = [str(s) for s in range(1, 21)]
CAL_GAMMAS = ["0.5", "1", "2", "4"]
CAL_THETA = 33.18
CAL_DEVIATION = 76.82
QOS_DAYS = 1461


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DPGRID_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The small child process (launcher.py) that spawns and times every command.

    It runs in a process group of its own, with the command it is running,
    so that closing it early can stop both.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def run(self, argv: list, cwd: str, out_path: str, err_path: str) -> dict:
        request = {"argv": argv, "cwd": cwd, "stdout": out_path, "stderr": err_path,
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        return json.loads(line)

    def close(self) -> None:
        """Stop the launcher; kill its group if a command is still running."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs one command at a time, plain or traced, and checks its output.

    A paced runner runs reference.py after every command, so that each
    command lies between two reference samples, and sets the command's
    ``start_scale`` to REFERENCE_START_S over the mean start-up time of
    the two, and its ``compute_scale`` likewise from their compute times.
    """

    def __init__(self, launcher: Launcher, workdir: str, traced: bool,
                 paced: bool = False) -> None:
        self.launcher = launcher
        self.workdir = workdir
        self.traced = traced
        self.paced = paced
        self.span_docs: list = []
        self.refs: list = []
        self._n = 0
        if paced:
            self.sample_reference()

    def _run(self, name: str, argv: list) -> checks.CommandResult:
        self._n += 1
        out_path = os.path.join(self.workdir, f"cmd{self._n}.out")
        err_path = os.path.join(self.workdir, f"cmd{self._n}.err")
        done = self.launcher.run(argv, self.workdir, out_path, err_path)
        with open(out_path, errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, errors="replace") as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return checks.CommandResult(name, done["returncode"], done["wall_s"],
                                    done["maxrss_kb"] / 1024.0, stdout, stderr)

    def sample_reference(self) -> None:
        """Time reference.py once, as (start-up, compute) seconds."""
        result = self._run("reference", [sys.executable, REFERENCE])
        if result.returncode != 0:
            raise RuntimeError(f"reference.py failed: {result.stderr.strip()[-300:]}")
        compute = json.loads(result.stdout)["compute_s"]
        self.refs.append((result.wall_s - compute, compute))

    def spawn(self, name: str, argv: list) -> checks.CommandResult:
        """Run one process and collect its exit code, times, max-RSS and output."""
        result = self._run(name, argv)
        if self.paced:
            self.sample_reference()
            (start0, compute0), (start1, compute1) = self.refs[-2:]
            result.start_scale = REFERENCE_START_S / ((start0 + start1) / 2)
            result.compute_scale = REFERENCE_COMPUTE_S / ((compute0 + compute1) / 2)
        return result

    def cli(self, name: str, args: list, check=None) -> checks.CommandResult:
        """Run ``python -m dpgrid.cli ARGS`` (traced or not) and check its output."""
        if self.traced:
            spans = os.path.join(self.workdir, f"spans{self._n + 1}.json")
            argv = [sys.executable, os.path.join(HERE, "tracing.py"), spans, "--", *args]
        else:
            argv = [sys.executable, "-m", "dpgrid.cli", *args]
        result = self.spawn(name, argv)
        if self.traced and os.path.exists(spans):
            with open(spans) as fh:
                self.span_docs.append(json.load(fh))
            os.remove(spans)
        result.problems = checks.check_command(result, check)
        return result


def time_import(runner: Runner) -> checks.CommandResult:
    result = runner.spawn("import", [sys.executable, "-c", "import dpgrid.cli"])
    if result.returncode != 0:
        raise RuntimeError(f"import dpgrid.cli failed: {result.stderr.strip()[-300:]}")
    return result


class Detect:
    """W1: Monte-Carlo detection on a small tree, no file output."""

    name = "detect"
    rate_name = "mc_runs_per_s"

    def __init__(self, workdir: str, seed: int) -> None:
        self.inputs = gen.write_detect(workdir)
        self.seed = seed
        self.noisy_nodes = sum(
            1 for n in self.inputs["topology_dict"]["nodes"]
            if n["layer"] in self.inputs["topology_dict"]["dp_policy"]
        )
        self.n_runs = DETECT_RUNS

    def rep(self, runner: Runner) -> dict:
        args = ["simulate", "--topology", self.inputs["topology"], "--synth-days", "30",
                "--tau", "6", "--window", "24", "--n-runs", str(DETECT_RUNS),
                "--seed", str(self.seed)]
        res = runner.cli("simulate", args,
                         lambda r: checks.check_detect(checks.stdout_json(r), DETECT_RUNS))
        return {"commands": [res], "units": DETECT_RUNS, "main": res}


class Wide:
    """W2+W4: one pass over a 100-PMU tree from CSV inputs, trace written to CSV."""

    name = "wide"
    rate_name = "edge_hours_per_s"
    n_runs = 0
    noisy_nodes = 0

    def __init__(self, workdir: str, seed: int) -> None:
        self.inputs = gen.write_wide(workdir, seed)
        self.seed = seed
        self.windows = gen.attacked_windows(self.inputs["topology_dict"])
        self.n_edges = len(self.inputs["topology_dict"]["edges"])

    def rep(self, runner: Runner) -> dict:
        trace_path = os.path.join(runner.workdir, "trace.csv")
        args = ["simulate", "--topology", self.inputs["topology"]]
        for node, path in self.inputs["series"].items():
            args += ["--series", f"{node}={path}"]
        args += ["--kind", "sum", "--tau", "20", "--window", "24",
                 "--seed", str(self.seed), "--trace-out", trace_path]

        def check(r):
            return checks.check_trace(checks.stdout_json(r), trace_path, self.windows,
                                      self.n_edges, WIDE_HOURS)

        res = runner.cli("simulate", args, check)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        units = self.n_edges * WIDE_HOURS
        return {"commands": [res], "units": units, "main": res}


class Design:
    """W3+W5: the defender's loop: one sweep, then calibrate and qos per gamma."""

    name = "design"
    rate_name = "sweep_cells_per_s"
    n_runs = 0
    noisy_nodes = 0

    def __init__(self, workdir: str, seed: int) -> None:
        self.seed = seed
        self.inputs = {"files": 0, "rows": 0, "bytes": 0}

    def rep(self, runner: Runner) -> dict:
        wd = runner.workdir
        sweep_path = os.path.join(wd, "sweep.csv")
        sweep = runner.cli(
            "sweep",
            ["sweep", "--epsilons", ",".join(SWEEP_EPSILONS), "--gammas", ",".join(SWEEP_GAMMAS),
             "--sensitivities", ",".join(SWEEP_SENSITIVITIES), "--out", sweep_path],
            lambda r: checks.check_sweep(checks.stdout_json(r), sweep_path, SWEEP_EPSILONS,
                                         SWEEP_GAMMAS, SWEEP_SENSITIVITIES),
        )
        commands = [sweep]
        epsilons = []
        cals, qoses = [], []
        for gamma in CAL_GAMMAS:
            cal = runner.cli(
                "calibrate",
                ["calibrate", "--sensitivity", "2", "--gamma", gamma, "--theta", repr(CAL_THETA),
                 "--max-deviation", repr(CAL_DEVIATION)],
                lambda r: checks.check_calibration(checks.stdout_json(r), CAL_THETA,
                                                   CAL_DEVIATION),
            )
            commands.append(cal)
            cals.append(cal)
            if not cal.ok:
                commands.append(checks.CommandResult(
                    "qos", -1, 0.0, 0.0, problems=["qos: skipped, calibration failed"]))
                continue
            epsilon = checks.stdout_json(cal)["epsilon"]
            epsilons.append(epsilon)
            export_dir = os.path.join(wd, f"export_g{gamma}")
            exports = [os.path.join(export_dir, f"{v}.csv") for v in ("original", "dp", "fdi_dp")]
            qos = runner.cli(
                "qos",
                ["qos", "--epsilon", repr(epsilon), "--gamma", gamma, "--sensitivity", "2",
                 "--seed", str(self.seed), "--export-series", export_dir],
                lambda r: checks.check_qos(checks.stdout_json(r), exports, QOS_DAYS),
            )
            commands.append(qos)
            qoses.append(qos)
            shutil.rmtree(export_dir, ignore_errors=True)
        if len(epsilons) == len(CAL_GAMMAS):
            cal.problems += checks.check_epsilon_rises(epsilons)
        if os.path.exists(sweep_path):
            os.remove(sweep_path)
        return {
            "commands": commands,
            "units": len(SWEEP_EPSILONS) * len(SWEEP_GAMMAS) * len(SWEEP_SENSITIVITIES),
            "main": sweep,
            "calibrate": cals,
            "qos": qoses,
        }


WORKLOADS = {w.name: w for w in (Detect, Wide, Design)}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# Per-module metrics: (metric, span name, field of tracing.aggregate, unit).
SPAN_METRICS = [
    ("cli.main.calls", "cli.main", "calls", "count"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("series.ingest_csv.calls", "series.ingest_csv", "calls", "count"),
    ("series.ingest_csv.busy_s", "series.ingest_csv", "busy_s", "s"),
    ("series.ingest_csv.rows", "series.ingest_csv", "count", "count"),
    ("series.resample.busy_s", "series.resample", "busy_s", "s"),
    ("series.synth_pmu.busy_s", "series.synth_pmu", "busy_s", "s"),
    ("series.export_csv.busy_s", "series.export_csv", "busy_s", "s"),
    ("series.export_csv.rows", "series.export_csv", "count", "count"),
    ("gridsim.load_topology.busy_s", "gridsim.load_topology", "busy_s", "s"),
    ("gridsim.run_query.busy_s", "gridsim.run_query", "busy_s", "s"),
    ("gridsim.run_query.self_s", "gridsim.run_query", "self_s", "s"),
    ("gridsim.plaintext_attack_edges.busy_s", "gridsim.plaintext_attack_edges", "busy_s", "s"),
    ("gridsim.SimTrace.to_csv.busy_s", "gridsim.SimTrace.to_csv", "busy_s", "s"),
    ("gridsim.SimTrace.to_csv.rows", "gridsim.SimTrace.to_csv", "count", "count"),
    ("gridsim.detection_rate.busy_s", "gridsim.detection_rate", "busy_s", "s"),
    ("gridsim.detection_rate.self_s", "gridsim.detection_rate", "self_s", "s"),
    ("seeds.derive_rng.calls", "seeds.derive_rng", "calls", "count"),
    ("seeds.derive_rng.busy_s", "seeds.derive_rng", "busy_s", "s"),
    ("seeds.derive_seed.calls", "seeds.derive_seed", "calls", "count"),
    ("laplace.sample_laplace.calls", "laplace.sample_laplace", "calls", "count"),
    ("laplace.sample_laplace.draws", "laplace.sample_laplace", "count", "count"),
    ("laplace.sample_laplace.busy_s", "laplace.sample_laplace", "busy_s", "s"),
    ("adversary.sample_attack_noise.calls", "adversary.sample_attack_noise", "calls", "count"),
    ("adversary.sample_attack_noise.draws", "adversary.sample_attack_noise", "count", "count"),
    ("adversary.sample_attack_noise.busy_s", "adversary.sample_attack_noise", "busy_s", "s"),
    ("adversary.AttackProfile.solve.calls", "adversary.AttackProfile.solve", "calls", "count"),
    ("adversary.AttackProfile.solve.busy_s", "adversary.AttackProfile.solve", "busy_s", "s"),
    ("gridsim.impact_sweep.busy_s", "gridsim.impact_sweep", "busy_s", "s"),
    ("gridsim.impact_sweep.self_s", "gridsim.impact_sweep", "self_s", "s"),
    ("gridsim.sweep_to_csv.busy_s", "gridsim.sweep_to_csv", "busy_s", "s"),
    ("calibrate.calibrate_epsilon.busy_s", "calibrate.calibrate_epsilon", "busy_s", "s"),
    ("forecasting.forecast.calls", "forecasting.forecast", "calls", "count"),
    ("forecasting.forecast.busy_s", "forecasting.forecast", "busy_s", "s"),
    ("qos.dp_protect.busy_s", "qos.dp_protect", "busy_s", "s"),
    ("qos.inject_attack.busy_s", "qos.inject_attack", "busy_s", "s"),
    ("qos.cost_analysis.self_s", "qos.cost_analysis", "self_s", "s"),
]

DERIVED_METRICS = [
    ("gridsim.tree_passes_per_mc_run", "ratio"),
    ("seeds.derive_rng.calls_per_mc_run", "ratio"),
    ("calibrate_s", "s"),
    ("qos_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
]

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
]


def span_metrics(agg: dict, workload) -> dict:
    """Per-module metrics of one traced repetition."""
    out = {}
    for metric, span, field, _ in SPAN_METRICS:
        out[metric] = agg.get(span, {}).get(field, 0)
    rng = agg.get("seeds.derive_rng", {})
    runs = workload.n_runs
    passes = runs * workload.noisy_nodes
    out["gridsim.tree_passes_per_mc_run"] = rng.get("mc_count", 0) / passes if passes else 0.0
    out["seeds.derive_rng.calls_per_mc_run"] = rng.get("mc_calls", 0) / runs if runs else 0.0
    out["top_busy_s"] = agg.get(tracing.ROOT_SPAN, {}).get("top_busy_s", 0.0)
    return out


def provenance(args, workload) -> dict:
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    sys.path.insert(0, SRC)
    try:
        from dpgrid.bench import _cpu_model
        cpu = _cpu_model()
    except ImportError:
        cpu = platform.processor() or "unknown"

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": version("cryptography"),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {k: workload.inputs[k] for k in ("files", "rows", "bytes")},
    }


def measure(workload, launcher: Launcher, workdir: str, seconds: float, traced: bool) -> dict:
    """Alternate set-up samples, untraced and (optionally) traced repetitions."""
    plain = Runner(launcher, workdir, traced=False, paced=True)
    trace_runner = Runner(launcher, workdir, traced=True)
    time_import(plain)  # warm-up: byte-compiles the sources once
    setups, reps, traced_reps, span_rows = [], [], [], []
    start = time.perf_counter()
    loops = 0
    while True:
        setups.append(time_import(plain))
        reps.append(workload.rep(plain))
        if traced:
            trace_runner.span_docs = []
            traced_reps.append(workload.rep(trace_runner))
            span_rows.append(span_metrics(tracing.aggregate(trace_runner.span_docs), workload))
            plain.sample_reference()  # the traced repetition ran since the last sample
        loops += 1
        elapsed = time.perf_counter() - start
        if loops >= MIN_REPS and elapsed * (loops + 1) / loops > seconds:
            break
    return {"setups": setups, "refs": plain.refs, "reps": reps, "traced_reps": traced_reps,
            "span_rows": span_rows, "last_spans": trace_runner.span_docs}


def scaled_time(c: checks.CommandResult, setup: checks.CommandResult) -> float:
    """A command's wall time at the reference speeds.

    The set-up sample taken just before the command's repetition stands
    for the command's own start-up: that part is scaled by the start-up
    speed, the rest by the compute speed.  On a shared host the two speeds
    drift apart, so one factor for both would over-correct one of them.
    """
    start = min(setup.wall_s, c.wall_s)
    return start * c.start_scale + (c.wall_s - start) * c.compute_scale


def summarize(workload, m: dict, scaled: bool = True) -> dict:
    """End-to-end metrics: medians over the repetitions.

    With ``scaled``, times are taken at the reference speeds (see
    scaled_time); without, as measured.
    """
    rows = []
    for r, setup in zip(m["reps"], m["setups"]):
        def t(c, setup=setup):
            return scaled_time(c, setup) if scaled else c.wall_s
        row = {
            "wall_s": sum(t(c) for c in r["commands"]),
            "setup_s": setup.wall_s * (setup.start_scale if scaled else 1.0),
            "peak_rss_mb": max(c.maxrss_mb for c in r["commands"]),
            "throughput_per_s": r["units"] / t(r["main"]),
        }
        if workload.name == "design":
            row["calibrate_s"] = _median([t(c) for c in r["calibrate"]])
            row["qos_s"] = _median([t(c) for c in r["qos"]])
        rows.append(row)
    return {k: _median([row[k] for row in rows]) for k in rows[0]}


def run_workload(name: str, args) -> tuple:
    """(report, result) of one workload; result is the last-line object."""
    workdir = os.path.join(WORK_ROOT, f"{name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    launcher = Launcher()
    try:
        workload = WORKLOADS[name](workdir, args.seed)
        m = measure(workload, launcher, workdir, args.seconds, bool(args.trace))
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    commands = [c for r in m["reps"] + m["traced_reps"] for c in r["commands"]]
    problems = [p for c in commands for p in c.problems]
    failed = sum(1 for c in commands if not c.ok)
    e2e = summarize(workload, m)
    raw = summarize(workload, m, scaled=False)
    n_cmds = len(m["reps"][0]["commands"])
    report = {
        "provenance": provenance(args, workload),
        "repetitions": len(m["reps"]),
        "commands_per_repetition": n_cmds,
        "reference": {"start_s": _median([r[0] for r in m["refs"]]),
                      "compute_s": _median([r[1] for r in m["refs"]]),
                      "unit": "s", "samples": len(m["refs"])},
        "as_measured": {k: {"value": v, "unit": dict(END_TO_END).get(k, "s")}
                        for k, v in raw.items()},
        "failed_frac": {"value": failed / len(commands), "unit": "ratio"},
        workload.rate_name: {"value": e2e["throughput_per_s"], "unit": "1/s"},
        **{k: {"value": v, "unit": "s"} for k, v in e2e.items() if k in ("calibrate_s", "qos_s")},
        "problems": problems[:20],
    }

    if args.trace:
        rows = m["span_rows"]
        per_layer = {metric: _median([r[metric] for r in rows])
                     for metric in rows[0] if metric != "top_busy_s"}
        traced_walls = [sum(c.wall_s for c in r["commands"]) for r in m["traced_reps"]]
        per_layer["calibrate_s"] = e2e.get("calibrate_s", 0.0)
        per_layer["qos_s"] = e2e.get("qos_s", 0.0)
        per_layer["trace.overhead_s"] = _median(traced_walls) - raw["wall_s"]
        per_layer["trace.unaccounted_s"] = (
            raw["wall_s"] - raw["setup_s"] * n_cmds - _median([r["top_busy_s"] for r in rows])
        )
        units = {metric: unit for metric, _, _, unit in SPAN_METRICS}
        units.update(dict(DERIVED_METRICS))
        metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in per_layer}
        os.makedirs(OUT_ROOT, exist_ok=True)
        spans_path = os.path.join(OUT_ROOT, f"spans-{name}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"workload": name, "seed": args.seed, "commands": m["last_spans"]},
                      fh, separators=(",", ":"))
        report["spans_out"] = os.path.relpath(spans_path, ROOT)
        report["unwrapped"] = sorted({n for doc in m["last_spans"] for n in doc["skipped"]})
    else:
        metrics = {metric: {"value": e2e[metric], "unit": unit} for metric, unit in END_TO_END}
        report.update(metrics)
    result = {"correct": failed == 0, "attempted": len(commands), "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that every process started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "dpgrid", "cli.py")):
        print(f"dpgrid sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report, results[name] = run_workload(name, args)
        print(json.dumps({"report": report}, indent=2), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
