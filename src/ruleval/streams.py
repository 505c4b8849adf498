"""Deterministic derivation of independent random streams.

Every stochastic component in this package draws from a stream keyed by a
base seed plus a path of labels (purpose, replication index, experiment id,
...).  Two calls with the same key yield bit-identical streams, and any
subset of the work can be reproduced in isolation without replaying the
rest, which is what makes parallel and serial runs agree exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator keyed by ``(seed, *path)``.

    The key is hashed with BLAKE2b so string labels (e.g. experiment ids)
    participate deterministically across processes and platforms; Python's
    built-in ``hash`` is salted per process and must not be used here.
    ``seed`` must be an integer (a NumPy integer keys the same stream as
    its int); a bool, a float or anything else raises a ValueError.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    token = repr((int(seed),) + tuple(path)).encode("utf-8")
    digest = hashlib.blake2b(token, digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))
