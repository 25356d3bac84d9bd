"""The column writer against csv.writer's rows, and the JSON writer against json.dumps, byte for
byte."""

import csv
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpgrid import adversary, gridsim
from dpgrid.adversary import _solve_cells, _sweep_axes, _write_sweep, impact_sweep, sweep_to_csv
from dpgrid.csvio import json_text, quote, write_csv, write_json, write_shares
from dpgrid.gridsim import Detector, Edge, GridTopology, Layer, Node, SimTrace, run_query
from dpgrid.laplace import PrivacyParams
from dpgrid.series import MeasurementSeries, synth_pmu
from oracles import trace_rows, write_csv_by_rows

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                     float("inf"), float("-inf"), float("nan")]),
    st.floats(width=64),
)
_TEXTS = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", 'a,"b"', "ä €"]), st.text())
# Each column kind: the values csv.writer takes, and how the column writer's caller formats them.
_KINDS = [(_TEXTS, quote), (_FLOATS, repr)]


@st.composite
def csv_table(draw):
    """A header, columns of str or float values, and each column's format.

    At least two columns: csv.writer quotes an empty field that is alone
    on its row, which no output of the package can hold.
    """
    n_rows = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=2, max_size=5))
    header = draw(st.lists(_TEXTS, min_size=len(kinds), max_size=len(kinds)))
    columns = [draw(st.lists(values, min_size=n_rows, max_size=n_rows)) for values, _ in kinds]
    return header, columns, [fmt for _, fmt in kinds]


@settings(derandomize=True, max_examples=300)
@given(table=csv_table(), metadata=st.dictionaries(st.text(), st.text(), max_size=2))
def test_write_csv_matches_row_writer(table, metadata, tmp_path_factory):
    header, columns, formats = table
    tmp = tmp_path_factory.mktemp("w")
    texts = [map(fmt, column) for fmt, column in zip(formats, columns)]
    write_csv(tmp / "columns.csv", header, texts, metadata)
    write_csv_by_rows(tmp / "rows.csv", header, zip(*columns), metadata)
    assert (tmp / "columns.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def test_quote_is_csv_writers_minimal_quoting():
    assert quote("pmu1") == "pmu1"
    assert quote("") == ""
    assert quote("pmu,1") == '"pmu,1"'
    assert quote('pdc"1') == '"pdc""1"'
    assert quote("a\r\nb") == '"a\r\nb"'


def test_trace_quotes_node_ids_as_csv_writer_does(tmp_path):
    pmu, pdc = "pmu,1", 'pdc"1'
    topology = GridTopology(
        nodes=(Node(pmu, Layer.PMU), Node(pdc, Layer.PDC), Node("m", Layer.MASTER)),
        edges=(Edge(pmu, pdc), Edge(pdc, "m")),
        dp_policy={Layer.PMU: PrivacyParams(sensitivity=2.0, epsilon=0.5)},
    )
    trace = run_query(topology, {pmu: synth_pmu(days=1, seed=3)}, "hourly_mean",
                      Detector(tau=6.0, window=4), seed=5)
    header = ("timestep", "timestamp", "child", "parent", "true_value",
              "dp_noise", "injected", "noise_total", "delivered", "flag")
    trace.to_csv(tmp_path / "trace.csv", metadata={"config_hash": "beef"})
    write_csv_by_rows(tmp_path / "rows.csv", header, trace_rows(trace), {"config_hash": "beef"})
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == list(header)
    assert [tuple(r[2:4]) for r in rows[1:]] == [(pdc, "m"), (pmu, pdc)] * 24
    assert np.array_equal([float(r[8]) for r in rows[2::2]], trace.delivered[(pmu, pdc)])


_TRACE_HEADER = ("timestep", "timestamp", "child", "parent", "true_value", "dp_noise", "injected",
                 "noise_total", "delivered", "flag")


@st.composite
def small_run(draw):
    """A tree of 1-4 PMUs under 0-2 PDCs, each PDC with a child, and with or without one PMU
    straight to the MASTER (always, with no PDC: a single edge); ids hold , " and line breaks.
    Each PMU reads 1-48 hours."""
    n_pdcs = draw(st.integers(0, 2))
    direct = n_pdcs == 0 or draw(st.booleans())
    n_pmus = draw(st.integers(n_pdcs + direct, 4 if n_pdcs else 1))
    ids = draw(st.lists(st.text(',"\r\nab', min_size=1, max_size=3), min_size=n_pmus + n_pdcs + 1,
                        max_size=n_pmus + n_pdcs + 1, unique=True))
    master, pdcs, pmus = ids[0], ids[1:n_pdcs + 1], ids[n_pdcs + 1:]
    parents = [master] * direct + pdcs
    parents += draw(st.lists(st.sampled_from(pdcs or [master]), min_size=n_pmus - len(parents),
                             max_size=n_pmus - len(parents)))
    topology = GridTopology(
        nodes=(Node(master, Layer.MASTER), *(Node(p, Layer.PDC) for p in pdcs),
               *(Node(p, Layer.PMU) for p in pmus)),
        edges=(*(Edge(p, master) for p in pdcs), *map(Edge, pmus, parents)),
        dp_policy={Layer.PMU: PrivacyParams(sensitivity=2.0, epsilon=0.5)},
    )
    hours = draw(st.integers(1, 48))
    series = {p: synth_pmu(days=2, seed=i) for i, p in enumerate(pmus)}
    series = {p: MeasurementSeries(s.timestamps[:hours], s.values[:hours], s.mask[:hours])
              for p, s in series.items()}
    return run_query(topology, series, "hourly_mean", Detector(tau=3.0, window=4),
                     seed=draw(st.integers(0, 3)))


@settings(derandomize=True, max_examples=60)
@given(trace=small_run())
def test_trace_matches_row_writer(trace, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    trace.to_csv(tmp / "trace.csv", metadata={"config_hash": "beef"})
    write_csv_by_rows(tmp / "rows.csv", _TRACE_HEADER, trace_rows(trace), {"config_hash": "beef"})
    assert (tmp / "trace.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


_COLUMN_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                                  -5e-324, 0.1, -2.5, 1e308])


def _direct_trace(edge_keys, hours, columns, flags):
    """A SimTrace built field by field: columns maps each float field to its per-edge arrays."""
    stamps = np.datetime64("2018-01-01T00", "h") + np.arange(hours)
    return SimTrace(timestamps=stamps, kind="sum", seed=0, edge_keys=edge_keys, flags=flags,
                    plaintext_attack_edges=(), **columns)


@st.composite
def edge_case_trace(draw):
    """1-4 edges over 0-6 hours.  Each float column is all +0.0, all -0.0 or drawn from
    _COLUMN_FLOATS; each delivered column has true_value's bits, equals it under == with the
    sign of every zero flipped, or is drawn like the others."""
    hours = draw(st.integers(0, 6))
    keys = tuple((f"pmu{i}", "m") for i in range(draw(st.integers(1, 4))))

    def column():
        fill = draw(st.sampled_from([0.0, -0.0, None]))
        if fill is not None:
            return np.full(hours, fill)
        return np.array(draw(st.lists(_COLUMN_FLOATS, min_size=hours, max_size=hours)), dtype=float)

    columns = {name: {k: column() for k in keys}
               for name in ("true_values", "dp_noise", "injected", "noise_total")}
    columns["delivered"] = {}
    for k in keys:
        true = columns["true_values"][k]
        columns["delivered"][k] = draw(st.sampled_from([
            lambda: true.copy(),
            lambda: np.where(true == 0.0, np.copysign(0.0, -np.copysign(1.0, true)), true),
            column,
        ]))()
    flags = {k: np.array(draw(st.lists(st.booleans(), min_size=hours, max_size=hours)), dtype=bool)
             for k in keys}
    return _direct_trace(keys, hours, columns, flags)


@settings(derandomize=True, max_examples=200)
@given(trace=edge_case_trace())
def test_trace_texts_follow_bits_not_equality(trace, tmp_path_factory):
    """A column of -0.0, or a delivered column == true_value but with other zeros, keeps its own
    text; all +0.0 columns and copies of true_value's bits are written as repr writes them."""
    tmp = tmp_path_factory.mktemp("edge")
    trace.to_csv(tmp / "trace.csv")
    write_csv_by_rows(tmp / "rows.csv", _TRACE_HEADER, trace_rows(trace))
    assert (tmp / "trace.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def _to_csv_peak(path) -> int:
    """The tracemalloc peak of writing 105 edges x 720 hours of distinct values, every delivered
    column a copy of true_value's bits, to path."""
    rng = np.random.default_rng(0)
    keys = tuple((f"pmu{i}", "m") for i in range(105))
    columns = {name: {k: rng.standard_normal(720) for k in keys}
               for name in ("true_values", "dp_noise", "injected", "noise_total")}
    columns["delivered"] = {k: columns["true_values"][k].copy() for k in keys}
    trace = _direct_trace(keys, 720, columns, {k: np.zeros(720, dtype=bool) for k in keys})
    tracemalloc.start()
    try:
        trace.to_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_writer_holds_no_column_of_texts(tmp_path):
    """The writer's peak stays near one row, where a column of texts held per edge costs about
    25 MB."""
    peak = _to_csv_peak(tmp_path / "trace.csv")
    assert peak < 2 * 2**20, f"to_csv peaked at {peak / 2**20:.2f} MiB"


def test_trace_writer_holds_no_column_of_texts_in_three_shares(fake_affinity, tmp_path):
    """The bound above with the trace cut into three shares, two of them forked: this process
    streams its own share into the file and copies the others' spill files back as bytes."""
    forks = fake_affinity(range(3))
    peak = _to_csv_peak(tmp_path / "trace.csv")
    assert len(forks) == 2
    assert len((tmp_path / "trace.csv").read_bytes().splitlines()) == 1 + 105 * 720
    assert peak < 2 * 2**20, f"to_csv peaked at {peak / 2**20:.2f} MiB"


def _expect_share_count_free(trace, fake_affinity, tmp, metadata=None):
    """On 1, 2 and 3 CPUs, to_csv writes the row writer's bytes, in a share per CPU."""
    write_csv_by_rows(tmp / "rows.csv", _TRACE_HEADER, trace_rows(trace), metadata)
    for count in (1, 2, 3):
        forks = fake_affinity(range(count))
        trace.to_csv(tmp / f"trace-{count}.csv", metadata)
        assert (tmp / f"trace-{count}.csv").read_bytes() == (tmp / "rows.csv").read_bytes()
        assert len(forks) == min(count, max(1, trace.n_timesteps)) - 1


_SHARED_FIXTURES = settings(derandomize=True, max_examples=60,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SHARED_FIXTURES
@given(trace=edge_case_trace())
def test_edge_case_trace_bytes_do_not_depend_on_share_count(trace, monkeypatch, fake_affinity,
                                                            tmp_path_factory):
    monkeypatch.setattr(gridsim, "_FORK_ROWS", 1)  # so that a trace of a few rows splits
    _expect_share_count_free(trace, fake_affinity, tmp_path_factory.mktemp("edge"))


@_SHARED_FIXTURES
@given(trace=small_run())
def test_small_run_trace_bytes_do_not_depend_on_share_count(trace, monkeypatch, fake_affinity,
                                                            tmp_path_factory):
    monkeypatch.setattr(gridsim, "_FORK_ROWS", 1)
    _expect_share_count_free(trace, fake_affinity, tmp_path_factory.mktemp("run"),
                             {"config_hash": "beef"})


def test_trace_texts_are_chosen_per_share(monkeypatch, fake_affinity, tmp_path):
    """Six hours cut into shares of 3 + 3 and 2 + 2 + 2: dp_noise is all +0.0 in the first
    share only, and delivered has true_value's bits in the first share only, then differs in
    one value or in the sign of one zero."""
    monkeypatch.setattr(gridsim, "_FORK_ROWS", 1)
    keys = (("pmu,1", "m"), ("pmu2", "m"))
    true = np.array([0.0, 0.1, -2.5, 0.0, 1e308, 5e-324])
    columns = {"true_values": {k: true for k in keys},
               "dp_noise": {k: np.array([0.0, 0.0, 0.0, 0.0, -0.0, 0.1]) for k in keys},
               "injected": {k: np.zeros(6) for k in keys},
               "noise_total": {k: np.array([-0.0, 0.0, 0.0, 0.0, 0.0, 0.0]) for k in keys},
               "delivered": {keys[0]: np.array([0.0, 0.1, -2.5, -0.0, 1e308, 5e-324]),
                             keys[1]: np.array([0.0, 0.1, -2.5, 0.0, 1e308, 0.2])}}
    flags = {k: np.array([0, 1, 0, 0, 1, 1], dtype=bool) for k in keys}
    _expect_share_count_free(_direct_trace(keys, 6, columns, flags), fake_affinity, tmp_path,
                             {"config_hash": "beef"})


@pytest.mark.parametrize("rows, forks", [(2 * gridsim._FORK_ROWS - 1, 0),
                                         (2 * gridsim._FORK_ROWS, 1)], ids=["below", "at"])
def test_trace_below_the_fork_cut_off_is_written_in_one_process(fake_affinity, tmp_path, rows,
                                                                forks):
    """One edge over `rows` hours, on 3 CPUs: a share is given at least _FORK_ROWS rows."""
    keys = (("pmu1", "m"),)
    values = np.arange(rows, dtype=float)
    columns = {name: {keys[0]: values} for name in
               ("true_values", "dp_noise", "injected", "noise_total", "delivered")}
    trace = _direct_trace(keys, rows, columns, {keys[0]: np.zeros(rows, dtype=bool)})
    made = fake_affinity(range(3))
    trace.to_csv(tmp_path / "trace.csv")
    assert len(made) == forks
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]


_SWEEP_AXES = ([0.1, 0.5, 3.0], [0.5, 2.0], [1.0, 2.0, 2.0])


def write_sweep(path, theta, metadata=None):
    """What the sweep command writes for _SWEEP_AXES: 18 cells, one share in this process."""
    _write_sweep(path, *_SWEEP_AXES, theta, metadata)


@pytest.mark.parametrize("theta", [0.0, -0.0, 1e-300], ids=["zero", "negative-zero", "tiny"])
def test_sweep_deviation_texts_are_mu_stars_where_theta_moves_no_cell(tmp_path, theta):
    path, expected = tmp_path / "sweep.csv", tmp_path / "points.csv"
    write_sweep(path, theta, metadata={"config_hash": "beef"})
    sweep_to_csv(impact_sweep(*_SWEEP_AXES, theta=theta), expected, metadata={"config_hash": "beef"})
    assert path.read_bytes() == expected.read_bytes()
    rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
    assert len(rows) == 18
    assert all(row["deviation"] == row["mu_star"] for row in rows)


@pytest.mark.parametrize("theta, per_cell", [(0.0, 2), (-0.0, 2), (1e-300, 2), (33.18, 3)],
                         ids=["zero", "negative-zero", "tiny", "shifting"])
def test_sweep_writer_formats_shared_texts_once(monkeypatch, tmp_path, theta, per_cell):
    """k1 and mu_star per cell, deviation too only where it differs, and each axis value and
    theta once."""
    calls = []
    monkeypatch.setattr(adversary, "repr", lambda x: calls.append(x) or float.__repr__(x),
                        raising=False)
    write_sweep(tmp_path / "sweep.csv", theta)
    assert len(calls) == per_cell * 18 + 8 + 1


def test_sweep_writer_holds_no_column_of_texts(fake_affinity, tmp_path):
    """The sweep command's writer on 50,000 cells at theta 0 in one share, as on one CPU or under
    taskset -c 0, deviation sharing mu_star's texts: beyond the three columns of solved cells,
    which the share solves before it formats any, it peaks under 2 MiB, most of it the two
    columns' bytes it compares, where holding one column of texts costs about 4.7 MiB."""
    axes = ([0.05 + 0.01 * i for i in range(50)], [0.25 * (i + 1) for i in range(50)],
            [0.5 * (i + 1) for i in range(20)])
    fake_affinity([0])
    tracemalloc.start()
    try:
        solved = _solve_cells(*_sweep_axes(*axes, 0.0), 0.0, 0, None)
        solved_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del solved
    tracemalloc.start()
    try:
        _write_sweep(tmp_path / "sweep.csv", *axes, 0.0, None)
        peak = tracemalloc.get_traced_memory()[1] - solved_bytes
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 50_001
    assert peak < 2 * 2**20, f"the sweep's path peaked {peak / 2**20:.2f} MiB above its cells"


_PAYLOAD = {"epsilon": 0.1, "k1": 2.0000000000000004, "ids": ["pmu,1", 'pdc"1', "ä €", {}],
            "nested": {"none": None, "flag": True, "tiny": 5e-324, "huge": -1.7976931348623157e308}}


@pytest.mark.parametrize("metadata", [None, {}, {"config_hash": "beef", "seed": 3}],
                         ids=["none", "empty", "two-keys"])
def test_write_json_is_indented_json_dumps_plus_newline(tmp_path, metadata):
    expected = dict(_PAYLOAD, metadata=metadata) if metadata else _PAYLOAD
    write_json(tmp_path / "doc.json", _PAYLOAD, metadata)
    text = json.dumps(expected, indent=2) + "\n"
    assert (tmp_path / "doc.json").read_bytes() == text.encode()
    assert json_text(_PAYLOAD, metadata) == text
    assert "metadata" not in _PAYLOAD


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["payload", "metadata"])
def test_write_json_refuses_non_finite_floats_and_writes_no_file(tmp_path, value, where):
    payload, metadata = ({"x": [1.0, value]}, None) if where == "payload" else ({}, {"x": value})
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "doc.json", payload, metadata)
    assert not (tmp_path / "doc.json").exists()


def _failing(texts):
    yield from texts
    raise ValueError("no more fields")


def _write_csv(path, fail):
    write_csv(path, ["a", "b"], [["1", "2"], _failing(["3"]) if fail else ["3", "4"]])
    return b"a,b\r\n1,3\r\n2,4\r\n"


def _write_shares(path, fail):
    """Six units in at most three shares; with fail, the last share, a child's on 3 CPUs, raises."""
    def lines(first, last):
        if fail and last == 6:
            raise ValueError("no lines")
        return map("{}\r\n".format, range(first, last))

    write_shares(path, ["a"], 6, lines, 3, {"config_hash": "beef"})
    return b"# config_hash=beef\na\r\n" + b"".join(b"%d\r\n" % u for u in range(6))


def _write_json(path, fail):
    write_json(path, {"x": float("nan") if fail else 1.0})
    return b'{\n  "x": 1.0\n}\n'


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
@pytest.mark.parametrize("write, cpus", [(_write_csv, 1), (_write_shares, 1), (_write_shares, 3),
                                         (_write_json, 1)],
                         ids=["csv", "shares-1-cpu", "shares-3-cpus", "json"])
def test_output_is_staged_and_replaced_only_when_whole(fake_affinity, tmp_path, write, cpus, umask):
    """A new file gets open(path, "w")'s mode, a symlink is written through, a failed write
    leaves an earlier file as it was, an error names the path, a pipe is written in place, and
    no staged or spill file is left behind."""
    forks = fake_affinity(range(cpus))
    real, link, missing = tmp_path / "real", tmp_path / "link", tmp_path / "no-dir" / "out"
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    link.symlink_to(real.name)
    real.write_bytes(b"earlier\n")
    os.chmod(real, 0o600)
    old = os.umask(umask)
    try:
        expected = write(tmp_path / "new", fail=False)
        with pytest.raises(ValueError):
            write(link, fail=True)
        assert real.read_bytes() == b"earlier\n"
        with pytest.raises(FileNotFoundError) as exc:
            write(missing, fail=False)
        assert str(exc.value) == f"[Errno 2] No such file or directory: '{missing}'"
        assert write(link, fail=False) == expected
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
        try:
            write(fifo, fail=False)
            assert os.read(reader, 1 << 16) == expected
        finally:
            os.close(reader)
    finally:
        os.umask(old)
    assert len(forks) == (8 if cpus == 3 else 0)  # two per write that reaches its shares
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link", "new", "real"]
    assert link.is_symlink() and os.readlink(link) == "real"
    assert (tmp_path / "new").read_bytes() == real.read_bytes() == expected
    for path in (tmp_path / "new", real):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
