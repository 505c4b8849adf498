"""Deterministic derivation of independent random streams.

Every stochastic component in this package draws from a stream keyed by a
base seed plus a path of labels (purpose, replication index, experiment id,
...).  Two calls with the same key yield bit-identical streams, and any
subset of the work can be reproduced in isolation without replaying the
rest, which is what makes parallel and serial runs agree exactly.

A label is keyed by its value: a ``str`` subclass (``np.str_``) keys as its
``str`` and a NumPy integer as its ``int``.  ``substreams`` seeds a batch of
keys at once and yields, key by key, generators with the PCG64 state and
draws ``substream`` gives; they cannot spawn or be pickled.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["substream", "substreams"]


def _check_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def _digest(seed: int, path: Iterable[int | str]) -> bytes:
    """BLAKE2b of the key's repr, with every label as its plain value."""
    key = (seed, *[str(x) if isinstance(x, str) else int(x) if isinstance(x, np.integer) else x
                   for x in path])
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).digest()


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator keyed by ``(seed, *path)``.

    The key is hashed with BLAKE2b so string labels (e.g. experiment ids)
    participate deterministically across processes and platforms; Python's
    built-in ``hash`` is salted per process and must not be used here.
    The four little-endian words of the digest seed NumPy's SeedSequence.
    ``seed`` must be an integer (a NumPy integer keys the same stream as
    its int); a bool, a float or anything else raises a ValueError.
    """
    digest = _digest(_check_seed(seed), path)
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


def substreams(seed: int, paths: Iterable[tuple[int | str, ...]]) -> Iterator[np.random.Generator]:
    """``substream(seed, *path)`` for each path in order, seeded together.

    The seed is checked and every key hashed at the call; each generator is
    built as it is taken.  SeedSequence's mixing runs for all keys at once
    (``_pcg64_seeds``) and NumPy seeds each PCG64 from its precomputed
    words, so each generator has ``substream``'s PCG64 state and draws.  Its
    seed sequence only answers PCG64's one request: it cannot spawn, and the
    generator cannot be pickled.
    """
    seed = _check_seed(seed)
    digests = b"".join([_digest(seed, path) for path in paths])
    words = np.frombuffer(digests, "<u4").reshape(-1, 4)
    seeded = _seeded()
    return (np.random.Generator(np.random.PCG64(seeded(s))) for s in _pcg64_seeds(words))


@functools.cache
def _seeded() -> type:
    """NumPy's seed interface over one key's precomputed answer to PCG64's
    one request, ``generate_state(4, np.uint64)``.  Built on first use:
    importing ``numpy.random`` adds about 6 MB and NumPy defers it."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state

    return Seeded


# SeedSequence's hash constants (numpy/random/bit_generator.pyx): the k-th
# hash step of ``mix_entropy`` uses _A[k] and _A[k + 1], that of
# ``generate_state`` _B[k] and _B[k + 1].  Pool size 4 and 4 entropy words
# take 4 + 12 steps, 4 uint64 words 8.
_A = np.array([0x43B0D7E5 * pow(0x931E8875, k, 2**32) % 2**32 for k in range(17)], np.uint32)
_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(9)], np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Hash steps over the last axis: step i xors consts[i], multiplies by
    consts[i + 1] and folds the high half in."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(w).generate_state(4, np.uint64)`` for each row w of a
    (keys, 4) uint32 array, in uint32 array arithmetic over all keys."""
    pool = _hashmix(words, _A[:5])
    for src in range(4):
        # Mix the other pool words, in order, with hashes of this one.
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[:, src, None], _A[4 + 3 * src : 8 + 3 * src])
        mixed = _MIX_L * pool[:, dst] - _MIX_R * hashed
        pool[:, dst] = mixed ^ (mixed >> 16)
    state = _hashmix(np.tile(pool, 2), _B)  # cycles the pool
    # NumPy pairs the words little-endian first, as here, on every host.
    return state.astype("<u4").view("<u8").astype(np.uint64)
