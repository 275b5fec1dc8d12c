"""Reproducible random-stream derivation.

All randomness in the package descends from a single integer seed through
``numpy.random.SeedSequence`` spawn keys, so that independent streams are
addressable by structured coordinates and replay bit-for-bit:

* replica streams:        ``SeedSequence(seed, spawn_key=(REPLICA_TAG, r))``
* named Bernoulli banks:  ``SeedSequence(seed, spawn_key=(STREAM_TAG, s, label))``

Replica streams feed either a ``numpy`` generator (vectorized paths) or a
``random.Random`` (scalar chain loops) seeded with the 128-bit
``generate_state(4)``, the documented hand-off between the two.  That
state and a bank row's PCG64 start state come from one batched copy of
SeedSequence's hash (O'Neill's seed_seq_fe), run from numpy's own pool of
the seed and the leading tags over a range of replicas or labels at once;
replica states are made ``_REPLICA_BLOCK`` at a time and a few blocks are
cached.  The tests pin both against numpy.

A named bank's bits are those of ``default_rng(SeedSequence(seed,
spawn_key=(2, s, label))).random() < p``, drawn as raw 64-bit words on
one PCG64 per bank and compared with an integer threshold, which is the
float compare exactly; a row's saved state then moves on by the LCG's
affine jump over the words drawn, so it is never read back.

Every sampler flips its coins as ``random() < p``, so ``check_p`` here is
the one rule for which ``p`` can be sampled: ``(0, 1]`` and above 2^-53.
"""

from __future__ import annotations

import functools
import math
import operator
import random

import numpy as np

from .errors import DomainError

_REPLICA_TAG = 1
_STREAM_TAG = 2

STREAM_NAMES = ("S", "B", "Bp", "C", "D", "Dp", "Ddag")
_STREAM_INDEX = {name: k for k, name in enumerate(STREAM_NAMES)}
_BLOCK = 512
_DRAW_ROWS = 256  # rows of raw words held at once by StreamBank._draw
_REPLICA_BLOCK = 256  # replica states made at once; divides 2^32

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# The hash constants do not depend on the data: the j-th ``hashmix``
# xors its input with _INIT_A _MULT_A^j mod 2^32 and multiplies by the
# next such constant, and output word i of ``generate_state`` does the
# same with _HASH_B.
_HASH_B = np.array([_INIT_B * _MULT_B**i & _MASK32 for i in range(2 * _POOL_SIZE + 1)],
                   np.uint32)  # a PCG64 seed is 8 words

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def check_p(p: float) -> float:
    """``p`` as a float, if a coin ``random() < p`` can be flipped for it."""
    p = float(p)
    if not 0 < p <= 1:
        raise DomainError(f"p={p} outside (0, 1]; p=0 gives a non-absorbing chain")
    if p <= 2.0**-53:  # uniform draws are multiples of 2**-53: only 0.0 is below p
        raise DomainError(f"p={p} is at most 2**-53, which sampling cannot tell from 0")
    return p


def _pool(seed: int, *tags: int) -> tuple[tuple[int, ...], int]:
    """The pool of ``SeedSequence(seed, spawn_key=(*tags, ...))`` once the
    seed's words (padded to the pool size) and the one-word ``tags`` are
    mixed in, and the index of the next hash.  numpy mixes the entropy in
    word by word, so that is the pool of ``SeedSequence(seed, spawn_key=tags)``,
    and each word takes ``_POOL_SIZE`` hashes."""
    pool = np.random.SeedSequence(seed, spawn_key=tags).pool
    n_entropy = max(_POOL_SIZE, -(-seed.bit_length() // 32)) + len(tags)
    return tuple(pool.tolist()), _POOL_SIZE * n_entropy


def _generate(entry: tuple[tuple[int, ...], int], lo: int, hi: int, n_out: int
              ) -> list[list[int]]:
    """``generate_state(n_out)`` of the SeedSequence whose spawn key ends in
    ``v``, for every ``v`` of ``range(lo, hi)``, given the pool ``entry`` of
    the seed and the other tags: per ``v``, a row of 64-bit words, output
    word ``2i`` low and ``2i + 1`` high (joined arithmetically).

    The hashes are the same uint32 arithmetic for every ``v``, so they run
    over the range at once in ``uint32`` arrays, whose products wrap mod
    2^32 as the hashes need: ``v``'s words mix into an ``(N, 4)`` pool.  A
    longer ``v`` takes more hashes, so the range is cut where it grows.
    """
    if lo < 0:
        raise ValueError("expected non-negative integer")  # numpy's message
    rows = []
    pool0, j = entry
    while lo < hi:
        n_words = max(1, -(-lo.bit_length() // 32))  # numpy gives 0 one word
        stop = min(hi, 1 << 32 * n_words)
        values = np.arange(lo, stop, dtype=np.uint64 if stop <= 1 << 64 else object)
        end = j + _POOL_SIZE * n_words
        hash_a = np.array([_INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK32
                           for k in range(j, end + 1)], np.uint32)
        pool = np.array(pool0, np.uint32)  # broadcast to (N, 4) by the first mix
        for w in range(n_words):
            i = _POOL_SIZE * w
            # pool[:, c] = mix(pool[:, c], hashmix(word, j + i + c)) for each c
            word = (values >> 32 * w & _MASK32).astype(np.uint32)[:, None]
            h = (word ^ hash_a[i : i + _POOL_SIZE]) * hash_a[i + 1 : i + _POOL_SIZE + 1]
            m = _MIX_MULT_L * pool - _MIX_MULT_R * (h ^ h >> _XSHIFT)
            pool = m ^ m >> _XSHIFT
        x = np.concatenate((pool,) * (n_out // _POOL_SIZE), axis=1) ^ _HASH_B[:n_out]
        x *= _HASH_B[1 : n_out + 1]
        x ^= x >> _XSHIFT
        x = x.astype(np.uint64)
        rows += (x[:, 0::2] | x[:, 1::2] << 32).tolist()
        lo = stop
    return rows


@functools.lru_cache(maxsize=8)
def _replica_block(seed: int, block: int) -> list[int]:
    """``replica_state`` of replicas ``block * _REPLICA_BLOCK`` on, for one
    block; the range never crosses a word-count edge."""
    lo = block * _REPLICA_BLOCK
    rows = _generate(_pool(seed, _REPLICA_TAG), lo, lo + _REPLICA_BLOCK, _POOL_SIZE)
    return [a | b << 64 for a, b in rows]


def replica_state(seed: int, replica: int) -> int:
    """``SeedSequence(seed, spawn_key=(1, replica)).generate_state(4)`` as one
    little-endian 128-bit integer."""
    block, i = divmod(operator.index(replica), _REPLICA_BLOCK)
    return _replica_block(operator.index(seed), block)[i]


def _stream_states(entry: tuple[tuple[int, ...], int], lo: int, hi: int
                   ) -> tuple[list[int], list[int]]:
    """The lists ``states`` and ``incs`` of ``PCG64(SeedSequence(seed,
    spawn_key=(2, s, label)))`` for the labels of ``range(lo, hi)``, given
    the pool ``entry`` of the seed and the stream's tags.  PCG64 reads
    ``generate_state(8)`` as ``uint64`` words ``a, b, c, d`` and sets ``inc
    = 2 (c:d) + 1`` and ``state = (inc + (a:b)) M + inc``."""
    states, incs = [], []
    for a, b, c, d in _generate(entry, lo, hi, 2 * _POOL_SIZE):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        states.append(((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128)
        incs.append(inc)
    return states, incs


def _pcg_jump(k: int) -> tuple[int, int]:
    """``(A, C)`` with a PCG64 state ``s`` of increment ``inc`` at ``A s + C
    inc`` after ``k`` steps: ``A = M^k`` and ``C = 1 + M + ... + M^(k-1)``,
    by squaring (Brown, "Random number generation with arbitrary strides")."""
    mult, plus = 1, 0
    cur_mult, cur_plus = _PCG_MULT, 1
    while k:
        if k & 1:
            mult = mult * cur_mult & _MASK128
            plus = (plus * cur_mult + cur_plus) & _MASK128
        cur_plus = (cur_mult + 1) * cur_plus & _MASK128
        cur_mult = cur_mult * cur_mult & _MASK128
        k >>= 1
    return mult, plus


def replica_generator(seed: int, replica: int = 0) -> np.random.Generator:
    """Vectorized stream for one replica."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_REPLICA_TAG, replica)))


def replica_random(seed: int, replica: int = 0) -> random.Random:
    """Scalar stream for one replica (cheap per-call draws)."""
    return random.Random(replica_state(seed, replica))


class _Table:
    """One stream's bits drawn so far, label ``v`` in row ``v - 1`` and step
    ``t`` in column ``t - 1``, and each row's PCG64 ``states`` (after its
    last drawn column) and ``incs``.  ``bits`` is replaced, never written."""

    __slots__ = ("entry", "states", "incs", "bits")

    def __init__(self, entry: tuple[tuple[int, ...], int]):
        self.entry = entry
        self.states: list[int] = []
        self.incs: list[int] = []
        self.bits = np.empty((0, 0), dtype=np.uint8)


class StreamBank:
    """Lazily materialized named Bernoulli(p) streams.

    ``bernoulli(stream, label, t)`` is the i.i.d. variable indexed by
    ``(stream, label, t)``, labels and steps counted from 1, as a
    ``bool``; distinct triples are independent and identical triples
    replay identically, both within and across runs with the same seed.
    ``label`` may also be an ascending ``range`` of labels, and then the
    call returns those labels' bits at ``t`` as one read-only ``uint8``
    array.

    Each stream name holds one dense 2-D table, with a row for every label
    up to the largest read: a range read is a slice of one column and a
    scalar read one element.  New rows start from their PCG64 states,
    derived for all the added labels in one ``_stream_states`` call; the
    table grows by at least ``_BLOCK`` columns at a time, each row
    drawing on from its saved state, so consultation order does not matter.
    """

    def __init__(self, seed: int, p: float):
        self.p = check_p(p)
        self.seed = int(seed)
        # a raw word x gives the double (x >> 11) 2^-53, which is below p iff
        # x <= (ceil(p 2^53) << 11) - 1; at p = 1 that is every word
        self._threshold = np.uint64((math.ceil(self.p * 2.0**53) << 11) - 1)
        self._bitgen: np.random.PCG64 | None = None
        self._tables: dict[str, _Table] = {}

    def bernoulli(self, stream: str, label, t: int):
        if t < 1:
            raise ValueError("stream time index starts at 1")
        if type(label) is range:
            if label.start < 1 or label.step < 0:
                raise ValueError("a label range must ascend from label 1 or above")
            bits = self._bits(stream, label[-1] if label else 0, t)
            return bits[label.start - 1 : label.stop - 1 : label.step, t - 1]
        if label < 1:
            raise ValueError("stream labels start at 1")
        return self._bits(stream, label, t).item(label - 1, t - 1) == 1

    def first_success(self, stream: str, label):
        """The smallest ``t`` with ``bernoulli(stream, label, t)`` true,
        geometric(p) by construction; for a ``range`` of labels, those
        labels' first successes as one ``int64`` array.  Each is a row-wise
        ``argmax`` of the table, grown by ``_BLOCK`` columns until every
        row read holds a 1."""
        if type(label) is not range:
            if label < 1:
                raise ValueError("stream labels start at 1")
            return int(self.first_success(stream, range(label, label + 1))[0])
        if label.start < 1 or label.step < 0:
            raise ValueError("a label range must ascend from label 1 or above")
        nrows = label[-1] if label else 0
        rows = slice(label.start - 1, label.stop - 1, label.step)
        # as bool, argmax stops at a row's first 1
        bits = self._bits(stream, nrows, 1)[rows].view(bool)
        while not bits.any(axis=1).all():
            bits = self._bits(stream, nrows, bits.shape[1] + 1)[rows].view(bool)
        return bits.argmax(axis=1).astype(np.int64) + 1

    def _bits(self, stream: str, nrows: int, t: int) -> np.ndarray:
        """The table of ``stream``, replaced first by one with at least
        ``nrows`` rows and ``t`` columns if it is smaller."""
        table = self._tables.get(stream)
        if table is None:
            table = self._tables[stream] = _Table(
                _pool(self.seed, _STREAM_TAG, _STREAM_INDEX[stream]))
        old = table.bits
        rows, width = old.shape
        if nrows <= rows and t <= width:
            return old
        states, incs = _stream_states(table.entry, rows + 1, nrows + 1)
        table.states += states
        table.incs += incs
        if t > width:
            width += max(_BLOCK, t - width)
        bits = table.bits = np.empty((len(table.states), width), np.uint8)
        bits[:rows, : old.shape[1]] = old
        self._draw(table, range(rows), bits[:rows, old.shape[1] :])
        self._draw(table, range(rows, len(bits)), bits[rows:])
        bits.flags.writeable = False
        return bits

    def _draw(self, table: _Table, rows: range, out: np.ndarray) -> None:
        """Write the next ``out.shape[1]`` bits of each row in ``rows`` to
        the matching row of ``out``, advancing its state by the jump of that
        many words rather than reading it back from the PCG64."""
        k = out.shape[1]
        if not k or not rows:
            return
        if self._bitgen is None:
            self._bitgen = np.random.PCG64(0)
        bitgen = self._bitgen
        mult, plus = _pcg_jump(k)
        pcg = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        raw = np.empty((min(len(rows), _DRAW_ROWS), k), np.uint64)
        for lo in range(0, len(rows), _DRAW_ROWS):
            chunk = rows[lo : lo + _DRAW_ROWS]
            for i, r in enumerate(chunk):
                state = pcg["state"] = table.states[r]
                inc = pcg["inc"] = table.incs[r]
                bitgen.state = full
                raw[i] = bitgen.random_raw(k)
                table.states[r] = (mult * state + plus * inc) & _MASK128
            np.less_equal(raw[: len(chunk)], self._threshold, out=out[lo : lo + len(chunk)])
