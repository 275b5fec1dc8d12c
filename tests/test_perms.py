"""Descents, block reversal, the weak order, and the grid projection."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ungar_lab.errors import InvalidSelection, NotReached
from ungar_lab.perms import Permutation, project_pi_k, sorted_prefix_time, ungar_move
from ungar_lab.poset import grid_poset
from ungar_lab.tamari import project_down

from oracles import SizeMismatch, all_permutations, weak_leq, weak_meet


def brute_lower_bounds(perms):
    """Oracle: all sigma below every element of ``perms``, via weak_leq."""
    n = perms[0].n
    return [s for s in all_permutations(n) if all(weak_leq(s, t) for t in perms)]


def brute_meet(perms):
    lows = brute_lower_bounds(perms)
    tops = [s for s in lows if not any(s != t and weak_leq(s, t) for t in lows)]
    assert len(tops) == 1
    return tops[0]


def cover_reachable(n):
    """Oracle: reflexive-transitive closure of 'swap one descent'."""
    reach = {s: {s} for s in all_permutations(n)}
    changed = True
    while changed:
        changed = False
        for s in reach:
            for i in s.descents():
                t = s.swap(i)
                if not reach[s] >= reach[t]:
                    reach[s] |= reach[t]
                    changed = True
    return reach


def test_descents_examples():
    assert Permutation.identity(5).descents() == ()
    assert Permutation.decreasing(5).descents() == (1, 2, 3, 4)
    assert Permutation((4, 1, 6, 5, 2, 3)).descents() == (1, 3, 4)


def test_ungar_move_worked_examples():
    s = Permutation((4, 1, 6, 5, 2, 3))
    assert ungar_move(s, {1}) == (1, 4, 6, 5, 2, 3)
    assert ungar_move(s, {3, 4}) == (4, 1, 2, 5, 6, 3)
    assert ungar_move(s, set()) == s


def test_ungar_move_rejects_non_descents():
    with pytest.raises(InvalidSelection):
        ungar_move(Permutation((1, 2, 3)), {1})


def test_moves_validate_plain_words():
    for word in ([1, 1, 2], (1, 1, 2), (2, 3)):
        with pytest.raises(ValueError):
            ungar_move(word, ())
        with pytest.raises(ValueError):
            project_down(word)
    assert ungar_move((), ()) == () and project_down([]) == ()


@pytest.mark.parametrize("make", [Permutation, list, tuple])
def test_ungar_move_rejects_positions_outside_the_descents(make):
    word = make((3, 1, 2, 5, 4))  # descents {1, 4}
    for bad in ([0], [5], [-1], [2], [1, 2], [4, 4, 3]):
        with pytest.raises(InvalidSelection, match="not contained in descents"):
            ungar_move(word, bad)
    assert ungar_move(word, [4, 1, 4]) == (1, 3, 2, 4, 5)


def test_moves_agree_on_instances_and_plain_words_on_s6():
    for s in all_permutations(6):
        des = sorted(s.descents())
        for r in range(len(des) + 1):
            for sel in itertools.combinations(des, r):
                moved = ungar_move(s, sel)
                assert type(moved) is Permutation
                assert ungar_move(list(s), sel) == moved
                assert ungar_move(tuple(s), list(sel)) == moved
        down = project_down(s)
        assert type(down) is Permutation and project_down(list(s)) == down


def test_nontrivial_moves_strictly_decrease_inversions():
    for s in all_permutations(5):
        des = sorted(s.descents())
        for r in range(1, len(des) + 1):
            for sel in itertools.combinations(des, r):
                assert ungar_move(s, sel).inversions() < s.inversions()


@pytest.mark.parametrize("n", range(2, 7))
def test_maximal_moves_reach_identity_quickly(n):
    ident = Permutation.identity(n)
    for s in all_permutations(n):
        moves = 0
        while s != ident:
            s = ungar_move(s, s.descents())
            moves += 1
        assert moves <= n - 1


def test_weak_leq_examples():
    for s in all_permutations(4):
        assert weak_leq(Permutation.identity(4), s)
    assert weak_leq(Permutation((2, 3, 1)), Permutation((3, 2, 1)))
    assert not weak_leq(Permutation((2, 3, 1)), Permutation((3, 1, 2)))
    with pytest.raises(SizeMismatch):
        weak_leq(Permutation((1, 2)), Permutation((1, 2, 3)))


@pytest.mark.parametrize("n", range(2, 6))
def test_weak_leq_matches_cover_reachability(n):
    reach = cover_reachable(n)
    for s in all_permutations(n):
        for t in all_permutations(n):
            assert weak_leq(t, s) == (t in reach[s])


def test_weak_meet_examples():
    assert weak_meet([Permutation((2, 3, 1))]) == (2, 3, 1)
    assert weak_meet([Permutation((2, 3, 1)), Permutation((3, 1, 2))]) == (1, 2, 3)
    assert weak_meet([Permutation((3, 2, 1))] * 2) == (3, 2, 1)


@pytest.mark.parametrize("n", range(2, 5))
def test_weak_meet_matches_brute_force_pairs(n):
    for s, t in itertools.combinations(all_permutations(n), 2):
        assert weak_meet([s, t]) == brute_meet([s, t])


def test_weak_meet_matches_brute_force_triples_n4():
    perms = list(all_permutations(4))
    rng = random.Random(0)
    for _ in range(200):
        trio = rng.sample(perms, 3)
        assert weak_meet(trio) == brute_meet(trio)


@pytest.mark.parametrize("n", range(2, 6))
def test_ungar_move_is_meet_with_covers(n):
    for s in all_permutations(n):
        des = sorted(s.descents())
        for r in range(len(des) + 1):
            for sel in itertools.combinations(des, r):
                expected = weak_meet([s] + [s.swap(i) for i in sel])
                assert ungar_move(s, sel) == expected


def test_project_pi_k_worked_example():
    path, mask = project_pi_k(Permutation((1, 7, 2, 5, 3, 6, 4)), 4)
    assert path == "ENENENE"
    cells = {divmod(e, 3) for e in range(4 * 3) if mask >> e & 1}
    # derived by tracing the path: normalized cells, bottom-left minimal
    assert cells == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)}


def test_project_identity_and_decreasing():
    n, k = 6, 2
    path, mask = project_pi_k(Permutation.identity(n), k)
    assert path == "E" * k + "N" * (n - k)
    assert mask == 0
    path, mask = project_pi_k(Permutation.decreasing(n), k)
    assert path == "N" * (n - k) + "E" * k
    assert mask == (1 << k * (n - k)) - 1


def test_project_pi_1_of_21():
    path, _ = project_pi_k(Permutation((2, 1)), 1)
    assert path == "NE"


def test_projection_ideal_is_downward_closed_everywhere():
    for s in all_permutations(5):
        for k in range(1, 5):
            _, mask = project_pi_k(s, k)
            assert grid_poset(k, 5 - k).is_down_closed(mask)


def test_sorted_prefix_time():
    # maximal-move trajectory from 321: one move to identity
    states = [Permutation((3, 2, 1)), Permutation((1, 2, 3))]
    assert sorted_prefix_time(states, 1) == 1
    assert sorted_prefix_time(states, 2) == 1
    ident_run = [Permutation.identity(4)]
    for k in range(1, 4):
        assert sorted_prefix_time(ident_run, k) == 0
    with pytest.raises(NotReached):
        sorted_prefix_time([Permutation((3, 2, 1))], 1)


def test_prefix_time_is_ideal_emptying_time():
    # the prefix condition at k holds exactly when the projected ideal
    # is empty
    for s in all_permutations(5):
        for k in range(1, 5):
            _, mask = project_pi_k(s, k)
            holds = all(s[i] <= k for i in range(k))
            assert (mask == 0) == holds


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
def test_meet_is_lower_bound_property(n, rnd):
    words = [Permutation(rnd.sample(range(1, n + 1), n)) for _ in range(3)]
    m = weak_meet(words)
    for w in words:
        assert weak_leq(m, w)


def test_prefix_time_dominated_by_grid_passage_time():
    # survival of the prefix-sorting time never exceeds the survival of
    # the grid passage time, up to Monte Carlo tolerance
    import numpy as np

    from ungar_lab.engine import SnLattice, run_chain
    from ungar_lab.percolation import lpp_grid_samples
    from ungar_lab.rng import replica_random

    n, k, p, reps = 6, 3, 0.5, 4_000
    rnd = replica_random(33, 0)
    lattice = SnLattice(n)
    t_k = np.array(
        [
            sorted_prefix_time(
                run_chain(lattice, p, rnd, record=True), k
            )
            for _ in range(reps)
        ]
    )
    passage = lpp_grid_samples(k, n - k, p, reps, seed=34)
    for t in range(1, int(passage.max()) + 1):
        left = (t_k >= t).mean()
        right = (passage >= t).mean()
        tol = 3 * math.sqrt(
            left * (1 - left) / reps + right * (1 - right) / reps
        )
        assert left <= right + tol, (t, left, right)
