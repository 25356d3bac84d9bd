"""Cost of manipulating a telemetry batch in the clear vs under AES.

Both paths receive the same plaintext batch and apply the same
manipulation: draw one stealthy-attack noise value and add it to every
reading in the batch (shifting the batch aggregate by exactly that
draw).  The clear path just adds.  The encrypted path must first
decrypt the AES-256-CBC ciphertext, deserialize, add, then reserialize,
pad and re-encrypt under a fresh IV, which is what a man-in-the-middle
on an encrypted channel would have to do with a stolen key.

Timings are wall-clock per repetition, reported as the median after
dropping warm-up repetitions.  The loop is single-threaded; keep it
that way when extending (no BLAS-parallel ops inside the timed region).
"""

from __future__ import annotations

import platform
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .adversary import AttackProfile, sample_attack_noise
from .csvio import write_json
from .seeds import derive_rng

_WARMUP_REPS = 3
_KEY_BITS = 256
_BLOCK_BITS = 128


@dataclass(frozen=True)
class BenchResult:
    dp_seconds: float
    aes_seconds: float
    speedup: float
    batch_size: int
    reps: int

    def __post_init__(self) -> None:
        if self.dp_seconds <= 0.0 or self.aes_seconds <= 0.0:
            raise ValueError("timings must be positive")
        expected = self.aes_seconds / self.dp_seconds
        if abs(self.speedup - expected) > 1e-9 * expected:
            raise ValueError("speedup must equal aes_seconds / dp_seconds")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["machine"] = {
            "platform": platform.platform(),
            "processor": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        return out

    def to_json(self, path, metadata: dict | None = None) -> None:
        write_json(path, self.to_dict(), metadata)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# cryptography is imported where AES runs: importing this module for
# BenchResult or _cpu_model does not load it.
def _encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    from cryptography.hazmat.primitives import padding
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    padder = padding.PKCS7(_BLOCK_BITS).padder()
    padded = padder.update(plaintext) + padder.finalize()
    enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return enc.update(padded) + enc.finalize()


def _decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    from cryptography.hazmat.primitives import padding
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    dec = Cipher(algorithms.AES(key), modes.CBC(iv)).decryptor()
    padded = dec.update(ciphertext) + dec.finalize()
    unpadder = padding.PKCS7(_BLOCK_BITS).unpadder()
    return unpadder.update(padded) + unpadder.finalize()


def run_bench(batch, attacker: AttackProfile, reps: int = 30, seed: int = 0) -> BenchResult:
    """Time both manipulation paths on one batch.

    batch is a float array; attacker draws the noise both paths add.
    Runs reps repetitions of each path on identical plaintext; the
    first _WARMUP_REPS repetitions are excluded from the medians.
    """
    if reps < 10:
        raise ValueError(f"reps must be at least 10, got {reps}")
    values = np.asarray(batch, dtype=np.float64)
    if values.size == 0:
        raise ValueError("batch is empty")
    gen = derive_rng(seed, "bench")

    key = gen.bytes(_KEY_BITS // 8)
    iv0 = gen.bytes(16)
    plaintext = np.ascontiguousarray(values, dtype="<f8").tobytes()
    ciphertext = _encrypt(key, iv0, plaintext)

    dp_times = np.empty(reps)
    aes_times = np.empty(reps)
    for i in range(reps):
        t0 = time.perf_counter()
        eta = sample_attack_noise(attacker, gen)
        _ = values + eta
        dp_times[i] = time.perf_counter() - t0

        t0 = time.perf_counter()
        recovered = np.frombuffer(_decrypt(key, iv0, ciphertext), dtype="<f8")
        eta = sample_attack_noise(attacker, gen)
        tampered = recovered + eta
        iv = gen.bytes(16)
        _ = iv + _encrypt(key, iv, tampered.tobytes())
        aes_times[i] = time.perf_counter() - t0

    dp_med = float(np.median(dp_times[_WARMUP_REPS:]))
    aes_med = float(np.median(aes_times[_WARMUP_REPS:]))
    return BenchResult(
        dp_seconds=dp_med,
        aes_seconds=aes_med,
        speedup=aes_med / dp_med,
        batch_size=int(values.size),
        reps=reps,
    )
