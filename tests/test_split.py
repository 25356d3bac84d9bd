"""Split invariance over whole commands: simulate's ingest of its --series files, its Monte-Carlo
chunks and its trace rows, and the sweep's cells run in shares through shares.run.  With every
cut-off lowered so that small inputs split, a command on 1, 2, 3 or 4 CPUs writes the stdout and
output files of one process, byte for byte, and forks once per share past the first.  A fault in
any share ends the run as in one process: the same JSON error, exit 2, nothing on stdout, earlier
outputs as they were, and no staged, spill or child process left."""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from dpgrid import adversary, cli, gridsim
from dpgrid.adversary import AttackProfile
from dpgrid.csvio import json_text
from dpgrid.gridsim import Edge, GridTopology, Layer, Node, topology_to_dict
from dpgrid.laplace import PrivacyParams
from dpgrid.series import synth_pmu

_EARLIER = b"an earlier file\r\n"
_POLICY = {Layer.PMU: PrivacyParams(2.0, 0.5), Layer.PDC: PrivacyParams(2.0, 1.0),
           Layer.MASTER: PrivacyParams(2.0, 1.0)}


class Case(NamedTuple):
    argv: list
    files: dict  # name -> bytes in the run's directory before it: inputs and earlier outputs
    outputs: list  # names a successful run writes
    units: list  # the unit count of each stage that runs in shares
    chunk_bytes: int  # gridsim._CHUNK_BYTES, so that a Monte-Carlo chunk holds a few runs
    fault: bool


@st.composite
def simulate_case(draw):
    """1-6 PMUs under 0-2 PDCs, ids holding , " and line breaks, one edge attacked in a window,
    and a file of 1-48 hours per PMU: hourly synth readings, or quarter-hour ones with a quality
    column, every seventh bad.  Up to two files are bad or missing; one node may first be given
    a missing file that a later --series replaces, and so is never read."""
    n_pdcs = draw(st.integers(0, 2))
    n_pmus = draw(st.integers(max(1, n_pdcs), 6))
    ids = draw(st.lists(st.text(',"\r\nab', min_size=1, max_size=3), min_size=n_pmus + n_pdcs + 1,
                        max_size=n_pmus + n_pdcs + 1, unique=True))
    master, pdcs, pmus = ids[0], ids[1:n_pdcs + 1], ids[n_pdcs + 1:]
    parents = pdcs + draw(st.lists(st.sampled_from([master, *pdcs]), min_size=n_pmus - n_pdcs,
                                   max_size=n_pmus - n_pdcs))
    hours = draw(st.integers(1, 48))
    edges = [*(Edge(p, master) for p in pdcs), *map(Edge, pmus, parents)]
    attacked = draw(st.integers(0, len(edges) - 1))
    start = draw(st.integers(0, hours - 1))
    edges[attacked] = Edge(*edges[attacked].key, AttackProfile.solve(2.0, _POLICY[Layer.PMU]),
                           (start, draw(st.integers(start + 1, hours + 4))))
    topology = GridTopology(
        nodes=(Node(master, Layer.MASTER), *(Node(p, Layer.PDC) for p in pdcs),
               *(Node(p, Layer.PMU) for p in pmus)),
        edges=tuple(edges),
        dp_policy={layer: _POLICY[layer] for layer in draw(st.sets(st.sampled_from(Layer)))})
    files = {"topology.json": json_text(topology_to_dict(topology)).encode()}
    series = [f"{draw(st.sampled_from(pmus))}=absent.csv"] * draw(st.booleans())
    for i, pmu in enumerate(pmus):
        quarter = draw(st.booleans())  # else hourly synth readings
        n = hours * (4 if quarter else 1)
        stamps = np.datetime64("2015-01-01T00:00", "m") + np.arange(n) * (15 if quarter else 60)
        values = (np.random.default_rng(i).normal(7.5, 1.0, n) if quarter
                  else synth_pmu(days=2, seed=i).values[:n]).tolist()
        columns = [np.datetime_as_string(stamps, unit="s"), map(repr, values)]
        columns += [("bad" if k % 7 == 3 else "ok" for k in range(n))] * quarter
        rows = ["timestamp,value" + ",quality" * quarter, *map(",".join, zip(*columns))]
        files[f"pmu{i}.csv"] = "".join(row + "\n" for row in rows).encode()
        series.append(f"{pmu}=pmu{i}.csv")
    paths = list(dict(arg.split("=", 1) for arg in series).values())  # the last per node wins
    faults = draw(st.lists(st.sampled_from(range(len(paths))), max_size=2, unique=True))
    for j in faults:
        if draw(st.booleans()):
            files[paths[j]] = b"timestamp,value\n2015-01-01T00:00:00,1.0\nnot-a-time,2.0\n"
        else:
            del files[paths[j]]
    argv = ["simulate", "--topology", "topology.json", *(f"--series={arg}" for arg in series),
            "--kind", draw(st.sampled_from(gridsim.QUERY_KINDS)),
            "--seed", str(draw(st.integers(0, 3)))]
    units = [len(paths)]
    n_runs = draw(st.sampled_from([1000, 1001, None])) if hours > 1 else None
    runs_per_chunk = draw(st.integers(1, 8))
    if n_runs or draw(st.booleans()):
        window = draw(st.integers(1, min(12, hours - 1) if n_runs else 12))
        argv += ["--tau", draw(st.sampled_from(["2", "6"])), "--window", str(window)]
    if n_runs:
        argv += ["--n-runs", str(n_runs)]
        units.append(-(-n_runs // runs_per_chunk))
    argv += ["--trace-out", "trace.csv"]
    outputs = ["trace.csv", *["out.json"] * draw(st.booleans())]
    argv += ["--out", "out.json"] * (len(outputs) - 1)
    if draw(st.booleans()):
        files.update(dict.fromkeys(outputs, _EARLIER))
    units.append(hours)  # the trace's timesteps
    size = 32 * hours * (len(topology.nodes) + len(topology.edges))
    return Case(argv, files, outputs, units, size * runs_per_chunk, bool(faults))


@st.composite
def sweep_case(draw):
    """Axes of 1-3 values each and a theta; the faulty cells of the CI's faulty sweep, epsilon
    1e-308, may be put at any place in the epsilon axis."""
    axes = [draw(st.lists(st.floats(low, high), min_size=1, max_size=3))
            for low, high in ((0.05, 20.0), (1e-3, 1e3), (0.05, 1.5))]
    fault = draw(st.booleans())
    if fault:  # at a sensitivity of at most 1.5 the scale is finite, the mean shift is not
        axes[0].insert(draw(st.integers(0, len(axes[0]))), 1e-308)
    theta = draw(st.sampled_from([0.0, 33.18]) | st.floats(-1e3, 1e3))
    argv = ["sweep", *(f"--{name}={','.join(map(repr, axis))}" for name, axis in
                       zip(("epsilons", "gammas", "sensitivities"), axes)),
            f"--theta={theta!r}", "--out", "sweep.csv"]
    files = {"sweep.csv": _EARLIER} if draw(st.booleans()) else {}
    return Case(argv, files, ["sweep.csv"], [math.prod(map(len, axes))], 1, fault)


def _run(argv) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    with pytest.raises(ChildProcessError):  # every forked share is reaped
        os.waitpid(-1, os.WNOHANG)
    return code, stdout.getvalue(), stderr.getvalue(), {
        name: Path(name).read_bytes() for name in sorted(os.listdir())}


# Shrinking runs each smaller example on four CPU counts and stops at Hypothesis's five-minute
# limit, so a failing example is reported as it was drawn.
@settings(derandomize=True, max_examples=16, phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases=st.tuples(simulate_case(), sweep_case()))
def test_output_does_not_depend_on_the_split(cases, monkeypatch, fake_affinity):
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp, monkeypatch.context() as patch:
            patch.chdir(tmp)
            patch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
            for module, cut_off in (cli, "_FORK_FILES"), (gridsim, "_FORK_ROWS"), \
                                   (adversary, "_FORK_CELLS"):
                patch.setattr(module, cut_off, 1)
            patch.setattr(gridsim, "_CHUNK_BYTES", case.chunk_bytes)
            for name, data in case.files.items():
                Path(name).write_bytes(data)
            runs = []
            for cpus in (1, 2, 3, 4):
                forks = fake_affinity(range(cpus))
                runs.append(_run(case.argv))
                assert case.fault or len(forks) == sum(min(cpus, n) - 1 for n in case.units)
        assert runs[1:] == runs[:1] * 3
        code, out, err, files = runs[0]
        if case.fault:
            assert (code, out) == (2, "")
            assert json.loads(err).keys() == {"error", "command"}
            assert files == case.files  # earlier outputs as they were; nothing staged or spilled
        else:
            assert code == 0, err
            assert files.keys() == {*case.files, *case.outputs}
