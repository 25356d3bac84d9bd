"""Golden digests: sha256 of fixed-seed outputs.

Any change to an RNG stream, to the order of draws or to an output
format moves one of these digests.  Such a change must be deliberate:
update the digest in the same change and record why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np

from dpgrid.adversary import AttackProfile, _write_sweep, impact_sweep, sweep_to_csv
from dpgrid.cli import main
from dpgrid.gridsim import (
    Detector,
    Edge,
    GridTopology,
    Layer,
    Node,
    detection_rate,
    run_query,
)
from dpgrid.laplace import PrivacyParams
from dpgrid.series import export_csv, synth_pmu

TRACE_SHA256 = "ddcfab3beb7cf147964041a08d2d90ad8cb30b5fc2caa412e6d53220723738d9"
DETECTION_SHA256 = "8d6f8685ffe60d62df86c34f6b5446d0c16ba61c9cfee4d8489f46bcc399db38"
QOS_SHA256 = "0396031fb99bb4757fc973633961b9bd4ac97728990d320bcc6ac6ab87db0134"
SYNTH_CSV_SHA256 = "63d1c57584aa9f2f9ed24ac9c1b744f4ed2411d78ba604a2c1ec6389a80968a0"
TRACE_CSV_SHA256 = "a6af11e7106837f602070dd17604715bade40ee9e021787d17c2875301b11bdb"
SWEEP_CSV_SHA256 = "988596fba47ee62b5581b942739d6af9b06715e0984c38f193e7836fe0ad3cee"
SWEEP_ZERO_THETA_CSV_SHA256 = "5bf578ab00e14e5e74a6070f050f2bd0bdccfc45b47a8e3d5848a64a7253db8f"
MISSING_CSV_SHA256 = "6560c0ab08c4b2dc63df51983ffcda181033b4c97d986b56e8df6478e946420d"
_META = {"config_hash": "beef"}


def _attacked_tree():
    pmu = PrivacyParams(sensitivity=2.0, epsilon=0.5)
    attacker = AttackProfile.solve(2.0, pmu)
    topology = GridTopology(
        nodes=(
            Node("pmu1", Layer.PMU),
            Node("pmu2", Layer.PMU),
            Node("pmu3", Layer.PMU),
            Node("pdc1", Layer.PDC),
            Node("pdc2", Layer.PDC),
            Node("m", Layer.MASTER),
        ),
        edges=(
            Edge("pmu1", "pdc1", attacker=attacker, attack_window=(10, 30)),
            Edge("pmu2", "pdc1"),
            Edge("pmu3", "pdc2"),
            Edge("pdc1", "m"),
            Edge("pdc2", "m"),
        ),
        dp_policy={Layer.PMU: pmu, Layer.PDC: PrivacyParams(sensitivity=2.0, epsilon=1.0)},
    )
    series = {p: synth_pmu(days=2, seed=i) for i, p in enumerate(topology.pmu_ids())}
    return topology, series


def _sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_query_trace_digest():
    topology, series = _attacked_tree()
    trace = run_query(topology, series, "hourly_mean", Detector(tau=6.0, window=12), seed=7)
    h = hashlib.sha256(trace.timestamps.astype("datetime64[us]").astype(np.int64).tobytes())
    for key in trace.edge_keys:
        h.update("->".join(key).encode("utf-8"))
        for arrays in (trace.true_values, trace.dp_noise, trace.injected,
                       trace.noise_total, trace.delivered):
            h.update(np.ascontiguousarray(arrays[key], dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(trace.flags[key], dtype=np.bool_).tobytes())
    assert h.hexdigest() == TRACE_SHA256


def test_detection_rate_digest():
    topology, series = _attacked_tree()
    rates = detection_rate(topology, series, "hourly_mean", Detector(tau=6.0, window=12),
                           n_runs=1000, seed=11)
    assert _sha256_json(asdict(rates)) == DETECTION_SHA256


def test_qos_payload_digest(capsys):
    code = main(["qos", "--epsilon", "0.5", "--gamma", "0.5", "--sensitivity", "2.0",
                 "--days", "120", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["config_hash"]
    assert _sha256_json(payload) == QOS_SHA256


def test_synth_csv_digest(tmp_path):
    path = tmp_path / "pmu.csv"
    export_csv(synth_pmu(days=3, seed=5), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_CSV_SHA256


def test_trace_csv_digest(tmp_path):
    topology, series = _attacked_tree()
    trace = run_query(topology, series, "hourly_mean", Detector(tau=6.0, window=12), seed=7)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, metadata=_META)
    assert _sha256_file(path) == TRACE_CSV_SHA256


def test_sweep_csv_digest(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(impact_sweep([0.1, 0.5], [0.5, 2.0], [1.0, 2.0], theta=33.18), path,
                 metadata=_META)
    assert _sha256_file(path) == SWEEP_CSV_SHA256


def test_sweep_writer_digest_at_default_theta(tmp_path):
    """The sweep command's writer at the CLI's default theta, where deviation has mu_star's bits."""
    path = tmp_path / "sweep.csv"
    _write_sweep(path, [0.1, 0.5], [0.5, 2.0], [1.0, 2.0], 0.0, _META)
    assert _sha256_file(path) == SWEEP_ZERO_THETA_CSV_SHA256


def test_missing_readings_csv_digest(tmp_path):
    path = tmp_path / "pmu.csv"
    export_csv(synth_pmu(days=3, missing_fraction=0.2, seed=9), path, metadata=_META)
    assert _sha256_file(path) == MISSING_CSV_SHA256
