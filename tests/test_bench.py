import json

import numpy as np
import pytest

from dpgrid.adversary import AttackProfile
from dpgrid.bench import BenchResult, _decrypt, _encrypt, run_bench
from dpgrid.laplace import PrivacyParams

# The bench command's default attacker: gamma 2 at epsilon 0.1 and sensitivity 2.
ATTACKER = AttackProfile.solve(2.0, PrivacyParams(sensitivity=2.0, epsilon=0.1))


def test_encrypt_decrypt_round_trip():
    rng = np.random.default_rng(0)
    key = rng.bytes(32)
    iv = rng.bytes(16)
    values = rng.standard_normal(501)  # not a block multiple, exercises padding
    plaintext = values.astype("<f8").tobytes()
    ciphertext = _encrypt(key, iv, plaintext)
    assert ciphertext != plaintext
    assert len(ciphertext) % 16 == 0
    recovered = np.frombuffer(_decrypt(key, iv, ciphertext), dtype="<f8")
    assert np.array_equal(recovered, values)


def test_result_consistency_enforced():
    with pytest.raises(ValueError, match="speedup"):
        BenchResult(dp_seconds=1.0, aes_seconds=10.0, speedup=5.0, batch_size=10, reps=10)
    with pytest.raises(ValueError, match="positive"):
        BenchResult(dp_seconds=0.0, aes_seconds=1.0, speedup=1.0, batch_size=10, reps=10)


def test_run_bench_validation():
    with pytest.raises(ValueError, match="reps"):
        run_bench(np.ones(100), ATTACKER, reps=5)
    with pytest.raises(ValueError, match="empty"):
        run_bench(np.array([]), ATTACKER, reps=10)


def test_run_bench_smoke():
    result = run_bench(np.ones(2000), ATTACKER, reps=10, seed=1)
    assert result.batch_size == 2000
    assert result.reps == 10
    assert result.dp_seconds > 0.0
    assert result.aes_seconds > 0.0
    assert result.speedup == result.aes_seconds / result.dp_seconds
    # Decrypt + re-encrypt dominates a plain vector add at any size.
    assert result.speedup > 1.0


def test_run_bench_custom_attacker():
    attacker = AttackProfile.solve(0.5, PrivacyParams(1.0, 1.0))
    result = run_bench(np.ones(1000), attacker, reps=10, seed=3)
    assert result.speedup > 0.0


def test_to_dict_machine_metadata():
    result = run_bench(np.ones(1000), ATTACKER, reps=10, seed=0)
    full = result.to_dict()
    assert {"dp_seconds", "aes_seconds", "speedup", "batch_size", "reps", "machine"} <= set(full)
    assert "numpy" in full["machine"]


def test_to_json_with_metadata(tmp_path):
    result = run_bench(np.ones(1000), ATTACKER, reps=10, seed=0)
    path = tmp_path / "bench.json"
    result.to_json(path, metadata={"config_hash": "abcd"})
    payload = json.loads(path.read_text())
    assert payload["metadata"]["config_hash"] == "abcd"
    assert payload["speedup"] == result.speedup
