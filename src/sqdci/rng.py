"""Seeded, counter-based random streams.

Every stochastic step draws from a Philox generator keyed by an explicit
64-bit seed plus stream tags (strings by SHA-256, imported on first use),
so results are bitwise reproducible in any thread count or order.
"""

from __future__ import annotations

import numpy as np


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    # Imported here: fci, hci and ext-hci hash no tag, so they skip OpenSSL.
    import hashlib
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *tags) -> np.random.Generator:
    """Return a Philox generator for the stream (seed, *tags).

    Tags may be ints or strings; strings are hashed to stable 64-bit
    values. Distinct tag tuples give statistically independent streams.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_tag_to_int(t) for t in tags]
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))
