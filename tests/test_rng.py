"""Replica-stream derivation: the pure-Python 128-bit hand-off is numpy's."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ungar_lab.rng import replica_random, replica_state


def _numpy_state(seed, replica):
    words = np.random.SeedSequence(seed, spawn_key=(1, replica)).generate_state(4)
    return int.from_bytes(words.astype("<u4").tobytes(), "little")


# one to five 32-bit words of seed, one to thirteen of replica
SEEDS = [0, 1, 2, 5, 2**31, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 5, 2**128 - 1, 2**128,
         2**130 + 3]
REPLICAS = [0, 1, 2, 99, 2**32 - 1, 2**32, 2**64 + 1, 2**70, 2**400 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_replica_random_state_is_numpys(seed):
    for replica in REPLICAS:
        expected = random.Random(_numpy_state(seed, replica))
        assert replica_random(seed, replica).getstate() == expected.getstate(), replica


# more seeds than the per-seed pool cache holds, so entries are evicted and rebuilt
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**140), st.integers(0, 2**80))
def test_replica_state_is_numpys_on_drawn_pairs(seed, replica):
    assert replica_state(seed, replica) == _numpy_state(seed, replica)


def test_replica_state_is_numpys_on_python_and_numpy_ints():
    assert replica_state(np.int64(3), np.uint32(4)) == _numpy_state(3, 4)
    assert replica_state(True, 0) == _numpy_state(1, 0)


@pytest.mark.parametrize("seed, replica", [(-1, 0), (0, -1), (-(2**40), 3), (3, -(2**40))])
def test_negative_seed_or_replica_raises_as_numpy_does(seed, replica):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(seed, spawn_key=(1, replica))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        replica_random(seed, replica)
