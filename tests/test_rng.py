"""Stream derivation: the batched replica hand-off and bank start states
are numpy's, and so are the bank's bits."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ungar_lab import rng
from ungar_lab.errors import DomainError
from ungar_lab.rng import STREAM_NAMES, StreamBank, replica_random, replica_state


def _numpy_state(seed, replica):
    words = np.random.SeedSequence(seed, spawn_key=(1, replica)).generate_state(4)
    return int.from_bytes(words.astype("<u4").tobytes(), "little")


# one to five 32-bit words of seed, one to thirteen of replica
SEEDS = [0, 1, 2, 5, 2**31, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 5, 2**128 - 1, 2**128,
         2**130 + 3]
REPLICAS = [0, 1, 2, 99, rng._REPLICA_BLOCK - 1, rng._REPLICA_BLOCK, rng._REPLICA_BLOCK + 1,
            2**32 - 1, 2**32, 2**64 + 1, 2**70, 2**400 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_replica_random_state_is_numpys(seed):
    for replica in REPLICAS:
        expected = random.Random(_numpy_state(seed, replica))
        assert replica_random(seed, replica).getstate() == expected.getstate(), replica


# more seeds than the replica block cache holds, so blocks are evicted and rebuilt
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**140), st.integers(0, 2**80))
def test_replica_state_is_numpys_on_drawn_pairs(seed, replica):
    assert replica_state(seed, replica) == _numpy_state(seed, replica)


def test_replica_states_read_out_of_order_are_numpys():
    block = rng._REPLICA_BLOCK
    pairs = [(seed, r) for seed in (3, 2**40 + 1) for r in range(0, 3 * block, 7)]
    random.Random(0).shuffle(pairs)  # the two seeds' three blocks interleave
    rng._replica_block.cache_clear()
    for k, (seed, r) in enumerate(pairs):
        if k == len(pairs) // 2:
            rng._replica_block.cache_clear()
        assert replica_state(seed, r) == _numpy_state(seed, r), (seed, r)


def test_replica_block_cache_stays_small_over_many_replicas():
    replica_random(5, 0)  # numpy's lazy imports, outside the trace
    rng._replica_block.cache_clear()
    tracemalloc.start()
    try:
        for r in range(200_000):
            replica_random(5, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_replica_state_is_numpys_on_python_and_numpy_ints():
    assert replica_state(np.int64(3), np.uint32(4)) == _numpy_state(3, 4)
    assert replica_state(True, 0) == _numpy_state(1, 0)


@pytest.mark.parametrize("seed, replica", [(-1, 0), (0, -1), (-(2**40), 3), (3, -(2**40))])
def test_negative_seed_or_replica_raises_as_numpy_does(seed, replica):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(seed, spawn_key=(1, replica))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        replica_random(seed, replica)


def _bank_seq(seed, stream, label):
    return np.random.SeedSequence(seed, spawn_key=(2, STREAM_NAMES.index(stream), label))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130])
def test_stream_state_is_numpys_pcg64_state(seed):
    for stream in STREAM_NAMES:
        for label in (1, 7, 2**32 + 3):
            expected = np.random.PCG64(_bank_seq(seed, stream, label)).state["state"]
            entry = rng._pool(seed, 2, STREAM_NAMES.index(stream))
            states, incs = rng._stream_states(entry, label, label + 1)
            assert (*states, *incs) == (expected["state"], expected["inc"])


def _numpy_pcg_state(seed, stream, label, words=0):
    """numpy's PCG64 ``(state, inc)`` for a bank row after ``words`` raw words."""
    bitgen = np.random.PCG64(_bank_seq(seed, stream, label))
    bitgen.random_raw(words)
    state = bitgen.state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", [0, 2**32, 2**130])
def test_batched_stream_states_are_numpys_pcg64_states(seed):
    for stream in STREAM_NAMES:
        entry = rng._pool(seed, 2, STREAM_NAMES.index(stream))
        for labels in (range(1, 300), range(2**32 - 2, 2**32 + 2), range(2**64 - 1, 2**64 + 1)):
            states, incs = rng._stream_states(entry, labels.start, labels.stop)
            expected = [_numpy_pcg_state(seed, stream, v) for v in labels]
            assert list(zip(states, incs)) == expected, (stream, labels)
    assert rng._stream_states(entry, 5, 5) == ([], [])


def _numpy_bits(seed, stream, label, p, k):
    return np.random.default_rng(_bank_seq(seed, stream, label)).random(k) < p


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_bank_scalar_and_range_reads_are_numpys_bits(p):
    k = 3 * rng._BLOCK + 40  # past three blocks
    labels = range(5, 12)
    expected = {(s, v): _numpy_bits(9, s, v, p, k) for s in ("S", "B") for v in labels}
    steps = np.random.default_rng(0).permutation(np.arange(1, k + 1))
    bank = StreamBank(9, p)
    assert steps[:300].max() > 3 * rng._BLOCK
    for t in steps[:300]:  # out of order
        col = bank.bernoulli("S", labels, int(t))
        assert col.dtype == np.uint8
        assert col.tolist() == [int(expected["S", v][t - 1]) for v in labels]
    for t in steps[:300]:
        for v in (11, 5, 8):
            assert bank.bernoulli("S", v, int(t)) == expected["S", v][t - 1]
    # scalar reads first: they draw rows 1-9, and the range read adds rows 10 and 11
    other = StreamBank(9, p)
    for v in (9, 6):
        assert other.bernoulli("B", v, k) == expected["B", v][k - 1]
    for t in (1, 2, rng._BLOCK, rng._BLOCK + 1, k):
        col = other.bernoulli("B", labels, t)
        assert col.tolist() == [int(expected["B", v][t - 1]) for v in labels]
    assert other.first_success("B", 7) == int(np.argmax(expected["B", 7])) + 1


@pytest.mark.parametrize("p", [0.002, 0.3])
def test_bank_first_success_of_a_range_is_numpys_first_one(p):
    k = 10 * rng._BLOCK
    latest = 0
    for labels in (range(1, 13), range(4, 13), range(3, 13, 4)):
        bits = [_numpy_bits(5, "S", v, p, k) for v in labels]
        assert all(row.any() for row in bits)
        expected = [int(np.argmax(row)) + 1 for row in bits]
        first = StreamBank(5, p).first_success("S", labels)
        assert first.dtype == np.int64
        assert first.tolist() == expected
        assert [StreamBank(5, p).first_success("S", v) for v in labels] == expected
        latest = max(latest, *expected)
    if p < 0.01:
        assert latest > rng._BLOCK  # the table grew past its first block


@pytest.mark.parametrize("labels", [0, range(0, 3), range(5, 1, -1)])
def test_bank_first_success_rejects_labels_below_1_and_descending_ranges(labels):
    with pytest.raises(ValueError, match="label"):
        StreamBank(4, 0.5).first_success("S", labels)


def test_bank_wider_range_keeps_the_rows_already_drawn():
    bank = StreamBank(4, 0.5)
    first = bank.bernoulli("S", range(1, 4), 2).copy()
    wider = bank.bernoulli("S", range(1, 9), 2)
    assert wider[:3].tolist() == first.tolist()
    assert wider.tolist() == [int(_numpy_bits(4, "S", v, 0.5, 2)[1]) for v in range(1, 9)]
    with pytest.raises(ValueError, match="starts at 1"):
        bank.bernoulli("S", range(1, 4), 0)


def test_bank_table_grown_in_two_pieces_keeps_its_first_rows():
    bank = StreamBank(6, 0.3)
    first = bank.bernoulli("C", range(1, 40), 7).copy()
    bank.bernoulli("C", range(1, 300), 7)
    table = bank._tables["C"]
    whole = StreamBank(6, 0.3)
    whole.bernoulli("C", range(1, 300), 7)
    assert table.bits[:39, 6].tolist() == first.tolist()
    assert table.states == whole._tables["C"].states
    assert table.incs == whole._tables["C"].incs
    assert np.array_equal(table.bits, whole._tables["C"].bits)


def test_bank_saved_states_after_a_wide_growth_are_numpys():
    bank = StreamBank(11, 0.5)
    bank.bernoulli("D", range(1, 5), 2)  # one block
    table = bank._tables["D"]
    # a growth of 2 blocks and 40 columns to t, then one of a block past it
    for t, width in ((3 * rng._BLOCK + 40,) * 2, (3 * rng._BLOCK + 41, 4 * rng._BLOCK + 40)):
        bank.bernoulli("D", range(1, 9), t)
        assert table.bits.shape[1] == width
        for v in range(1, 9):
            assert (table.states[v - 1], table.incs[v - 1]) == _numpy_pcg_state(11, "D", v, width)
        assert table.bits[:, -1].tolist() == [
            int(_numpy_bits(11, "D", v, 0.5, width)[-1]) for v in range(1, 9)]


@pytest.mark.parametrize("label", [0, -1, range(0, 3)])
def test_bank_labels_start_at_1(label):
    bank = StreamBank(4, 0.5)
    with pytest.raises(ValueError, match="label"):
        bank.bernoulli("S", label, 1)


@pytest.mark.parametrize("p", [0.0, 2**-60, 2**-53, -0.5, 1.5])
def test_bank_rejects_p_sampling_cannot_flip(p):
    # at p = 2**-60 the threshold (ceil(p 2^53) << 11) - 1 is 2047, so
    # every bit would come up true with probability 2**-53, not p
    with pytest.raises(DomainError):
        StreamBank(1, p)


def test_bank_scalar_read_is_a_bool():
    bank = StreamBank(4, 0.5)
    bits = [bank.bernoulli("S", 2, t) for t in range(1, 40)]
    assert {type(b) for b in bits} == {bool}
    assert bits == _numpy_bits(4, "S", 2, 0.5, 39).tolist()


def test_bank_columns_are_read_only():
    bank = StreamBank(4, 0.5)
    col = bank.bernoulli("B", range(1, 6), 3)
    with pytest.raises(ValueError, match="read-only"):
        col[0] = 1 - col[0]
    with pytest.raises(ValueError, match="read-only"):
        col += 1
    expected = [int(_numpy_bits(4, "B", v, 0.5, 3)[2]) for v in range(1, 6)]
    assert bank.bernoulli("B", range(1, 6), 3).tolist() == expected
    assert [bank.bernoulli("B", v, 3) for v in range(1, 6)] == [bool(b) for b in expected]
