"""Reproducible random-stream derivation.

All randomness in the package descends from a single integer seed through
``numpy.random.SeedSequence`` spawn keys, so that independent streams are
addressable by structured coordinates and replay bit-for-bit:

* replica streams:        ``SeedSequence(seed, spawn_key=(REPLICA_TAG, r))``
* named Bernoulli banks:  ``SeedSequence(seed, spawn_key=(STREAM_TAG, s, label))``

Replica streams feed either a ``numpy`` generator (vectorized paths) or a
``random.Random`` (scalar chain loops); the 128-bit state draw is the
documented hand-off point between the two worlds.  That value is computed
here, in pure Python, by numpy's SeedSequence algorithm (its ``hashmix``
and ``mix`` hashes over a 4-word pool), because a ``SeedSequence`` object
costs more than a short chain run; the tests pin it against numpy.  The
pool after the seed's words and the replica tag depends only on the seed,
so it is cached per seed.
"""

from __future__ import annotations

import functools
import operator
import random

import numpy as np

_REPLICA_TAG = 1
_STREAM_TAG = 2

STREAM_NAMES = ("S", "B", "Bp", "C", "D", "Dp", "Ddag")
_STREAM_INDEX = {name: k for k, name in enumerate(STREAM_NAMES)}
_BLOCK = 512

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# The hash constants do not depend on the data: the j-th ``hashmix``
# xors its input with _HASH_A[j] and multiplies by _HASH_A[j + 1], and
# output word i of ``generate_state`` does the same with _HASH_B.
_HASH_A = [_INIT_A]
_HASH_B = [_INIT_B]
for _ in range(_POOL_SIZE):
    _HASH_B.append(_HASH_B[-1] * _MULT_B & _MASK32)


def _hash_a(count: int) -> list[int]:
    """``_HASH_A``, extended to at least ``count`` entries."""
    while len(_HASH_A) < count:
        _HASH_A.append(_HASH_A[-1] * _MULT_A & _MASK32)
    return _HASH_A


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of ``value``; 0 is one word, as in numpy."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: int, j: int) -> int:
    """The ``j``-th ``hashmix`` of a SeedSequence."""
    h = (value ^ _HASH_A[j]) * _HASH_A[j + 1] & _MASK32
    return h ^ h >> _XSHIFT


def _mix(x: int, y: int) -> int:
    m = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return m ^ m >> _XSHIFT


def _mix_in(pool: list[int], words: list[int], j: int) -> int:
    """Mix each word into every pool word, as SeedSequence mixes the entropy
    past the pool size, from hash ``j`` on; returns the next hash index."""
    hash_a = _hash_a(j + _POOL_SIZE * len(words) + 1)
    for w in words:
        for i in range(_POOL_SIZE):  # _mix(pool[i], _hashmix(w, j)), inlined
            h = (w ^ hash_a[j]) * hash_a[j + 1] & _MASK32
            m = (_MIX_MULT_L * pool[i] - _MIX_MULT_R * (h ^ h >> _XSHIFT)) & _MASK32
            pool[i] = m ^ m >> _XSHIFT
            j += 1
    return j


@functools.lru_cache(maxsize=64)
def _replica_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool of ``SeedSequence(seed, spawn_key=(1, r))`` once the seed's
    words (padded to the pool size, as with any spawn key) and the replica
    tag are mixed in, and the index of the next hash."""
    words = _uint32_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    _hash_a(_POOL_SIZE * _POOL_SIZE + 1)
    pool = [_hashmix(words[j], j) for j in range(_POOL_SIZE)]
    j = _POOL_SIZE
    for src in range(_POOL_SIZE):  # every pool word into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], j))
                j += 1
    j = _mix_in(pool, [*words[_POOL_SIZE:], _REPLICA_TAG], j)
    return tuple(pool), j


def replica_state(seed: int, replica: int) -> int:
    """``SeedSequence(seed, spawn_key=(1, replica)).generate_state(4)`` as one
    little-endian 128-bit integer."""
    pool, j = _replica_pool(operator.index(seed))
    pool = list(pool)
    _mix_in(pool, _uint32_words(replica), j)
    state = 0
    for i in range(_POOL_SIZE):
        x = (pool[i] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32
        state |= (x ^ x >> _XSHIFT) << 32 * i
    return state


def replica_generator(seed: int, replica: int = 0) -> np.random.Generator:
    """Vectorized stream for one replica."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_REPLICA_TAG, replica)))


def replica_random(seed: int, replica: int = 0) -> random.Random:
    """Scalar stream for one replica (cheap per-call draws)."""
    return random.Random(replica_state(seed, replica))


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
