"""Deterministic derivation of independent random streams.

Every stochastic routine in this package takes an explicit seed or an
already-constructed ``numpy.random.Generator``.  Sub-streams (one per
node, edge, or repetition) are derived by hashing string labels with
sha256, so the stream assigned to e.g. node "pmu3" does not depend on
how many siblings exist or in which order they are processed.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


def _label_entropy(label: object) -> int:
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *labels: object) -> np.random.Generator:
    """Return a Generator keyed by ``seed`` and a tuple of labels.

    The same (seed, labels) pair always yields the same stream; any
    change to either yields a statistically independent one.
    """
    import numpy as np

    entropy = [int(seed) & _MASK64] + [_label_entropy(lab) for lab in labels]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *labels: object) -> int:
    """Stable 64-bit sub-seed for handing to code that wants an int."""
    material = repr((int(seed) & _MASK64, labels)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "little")


def as_generator(rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a seed or a Generator and return a Generator."""
    import numpy as np

    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
