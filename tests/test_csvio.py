"""The column writer against csv.writer's rows, and the JSON writer against json.dumps, byte for
byte."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgrid.csvio import json_text, quote, write_csv, write_json
from dpgrid.gridsim import Detector, Edge, GridTopology, Layer, Node, run_query
from dpgrid.laplace import PrivacyParams
from dpgrid.series import synth_pmu
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
