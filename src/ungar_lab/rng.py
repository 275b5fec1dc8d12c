"""Reproducible random-stream derivation.

All randomness in the package descends from a single integer seed through
``numpy.random.SeedSequence`` spawn keys, so that independent streams are
addressable by structured coordinates and replay bit-for-bit:

* replica streams:        ``SeedSequence(seed, spawn_key=(REPLICA_TAG, r))``
* named Bernoulli banks:  ``SeedSequence(seed, spawn_key=(STREAM_TAG, s, label))``

Replica streams feed either a ``numpy`` generator (vectorized paths) or a
``random.Random`` (scalar chain loops); the 128-bit state draw is the
documented hand-off point between the two worlds.
"""

from __future__ import annotations

import random

import numpy as np

_REPLICA_TAG = 1
_STREAM_TAG = 2

STREAM_NAMES = ("S", "B", "Bp", "C", "D", "Dp", "Ddag")
_STREAM_INDEX = {name: k for k, name in enumerate(STREAM_NAMES)}
_BLOCK = 512


def replica_seed_sequence(seed: int, replica: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(_REPLICA_TAG, replica))


def replica_generator(seed: int, replica: int = 0) -> np.random.Generator:
    """Vectorized stream for one replica."""
    return np.random.default_rng(replica_seed_sequence(seed, replica))


def replica_random(seed: int, replica: int = 0) -> random.Random:
    """Scalar stream for one replica (cheap per-call draws)."""
    state = replica_seed_sequence(seed, replica).generate_state(4)
    value = int.from_bytes(np.asarray(state, dtype=np.uint32).tobytes(), "little")
    return random.Random(value)


class StreamBank:
    """Lazily materialized named Bernoulli(p) streams.

    ``bernoulli(stream, label, t)`` exposes the i.i.d. variable indexed by
    ``(stream, label, t)`` with ``t >= 1``; distinct triples are
    independent and identical triples replay identically, both within and
    across runs with the same seed.  Bits are produced in blocks per
    ``(stream, label)`` pair and cached, so consultation order does not
    matter.
    """

    def __init__(self, seed: int, p: float):
        if not 0 < p <= 1:
            raise ValueError(f"p={p} outside (0, 1]")
        self.seed = int(seed)
        self.p = float(p)
        # (stream, label) -> its generator and the bits drawn so far, one byte each
        self._streams: dict[tuple[str, int], tuple[np.random.Generator, bytearray]] = {}

    def bernoulli(self, stream: str, label: int, t: int) -> bool:
        if t < 1:
            raise ValueError("stream time index starts at 1")
        entry = self._streams.get((stream, label))
        if entry is None:
            seq = np.random.SeedSequence(
                self.seed, spawn_key=(_STREAM_TAG, _STREAM_INDEX[stream], label)
            )
            entry = self._streams[stream, label] = (np.random.default_rng(seq), bytearray())
        gen, bits = entry
        if len(bits) < t:
            bits += (gen.random(max(_BLOCK, t - len(bits))) < self.p).tobytes()
        return bits[t - 1] == 1

    def first_success(self, stream: str, label: int) -> int:
        """Smallest ``t`` with a 1 bit; geometric(p) by construction."""
        t = 1
        while not self.bernoulli(stream, label, t):
            t += 1
        return t
