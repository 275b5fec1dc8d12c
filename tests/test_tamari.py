"""Forests, vertex operations, the projection, and the bijection pair."""

import itertools
import json
import math
import random

import pytest

from ungar_lab.errors import Not312Avoiding
from ungar_lab.perms import Permutation, ungar_move
from ungar_lab.rng import replica_random
from ungar_lab.tamari import (
    OrderedForest,
    SimForest,
    av_ungar_move,
    catalan,
    phi,
    phi_inverse,
    project_down,
)

from oracles import (
    all_permutations,
    av312_permutations,
    covers_av312,
    descendant_count,
    ordered_forests,
    restrict,
    weak_meet,
)


def random_order_project(sigma, rnd):
    """Oracle: apply allowable swaps in random order until fixpoint."""
    w = list(sigma)
    n = len(w)
    while True:
        sites = [
            i
            for i in range(n - 1)
            if w[i] > w[i + 1]
            and any(w[i + 1] < w[j] < w[i] for j in range(i + 2, n))
        ]
        if not sites:
            return Permutation(w)
        i = rnd.choice(sites)
        w[i], w[i + 1] = w[i + 1], w[i]


FIG_LEFT = OrderedForest([0, 1, 2, 3, 2, 2, 1, 7, 7])


def test_project_down_examples():
    assert project_down(Permutation((2, 3, 1))) == (2, 3, 1)
    assert project_down(Permutation((3, 1, 2))) == (1, 3, 2)
    for s in all_permutations(5):
        assert project_down(s).is_312_avoiding()


def test_project_down_order_independent():
    rnd = random.Random(1)
    for s in all_permutations(5):
        expected = project_down(s)
        for _ in range(3):
            assert random_order_project(s, rnd) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_cover_projection_formula(n):
    # swapping a descent of a 312-avoider projects to the cyclic shift
    # pulling sigma(i+1) back to the first position j with the whole
    # window [j, i] at least sigma(i)
    for s in av312_permutations(n):
        for i in sorted(s.descents()):
            j = i
            while j > 1 and s[j - 2] >= s[i - 1]:
                j -= 1
            expected = s[: j - 1] + (s[i],) + s[j - 1 : i] + s[i + 1 :]
            assert project_down(s.swap(i)) == expected


def test_forest_operate_figure_examples():
    middle = FIG_LEFT.operate(2)
    assert middle.parent == (0, 1, 2, 3, 2, 1, 1, 7, 7)
    right = FIG_LEFT.operate(1)
    assert right.parent == (0, 1, 2, 3, 2, 2, 0, 7, 7)
    middle.validate()
    right.validate()


def test_operate_on_leaf_is_identity():
    for leaf in (4, 5, 6, 8, 9):
        assert FIG_LEFT.operate(leaf) == FIG_LEFT


def test_operations_preserve_preorder_labels():
    for forest in ordered_forests(6):
        for v in range(1, 7):
            forest.operate(v).validate()


@pytest.mark.parametrize("n", range(1, 8))
def test_operate_result_equals_forest_rebuilt_from_parents(n):
    # operate edits the parent tuple in place of a copy; a validated
    # rebuild from that tuple is the oracle for everything a caller can see
    for forest in ordered_forests(n):
        for v in range(1, n + 1):
            after = forest.operate(v)
            rebuilt = OrderedForest(after.parent)
            assert after.parent == rebuilt.parent
            assert all(after.children(u) == rebuilt.children(u) for u in range(n + 1))
            assert after.roots == rebuilt.roots
            assert after == rebuilt and hash(after) == hash(rebuilt)


def test_forest_ungar_move_examples():
    path3 = OrderedForest.path(3)
    assert path3.ungar(set()) == path3
    # operating on 1 then 2 detaches everything: all singletons
    assert path3.ungar({1, 2}) == OrderedForest.antichain(3)


def test_descendant_sum_strictly_decreases():
    for forest in ordered_forests(5):
        total = sum(descendant_count(forest, v) for v in range(1, 6))
        for v in forest.non_leaves():
            after = forest.operate(v)
            after_total = sum(descendant_count(after, u) for u in range(1, 6))
            assert after_total < total
            # only the operated vertex loses descendants
            assert descendant_count(after, v) < descendant_count(forest, v)
            assert all(
                descendant_count(after, u) == descendant_count(forest, u)
                for u in range(1, 6)
                if u != v
            )


def test_phi_figure_example():
    forest = phi(Permutation((3, 4, 2, 6, 5, 1)))
    assert forest.parent == (0, 1, 2, 2, 1, 5)
    assert forest.children(1) == (2, 5)
    assert forest.children(2) == (3, 4)
    assert forest.children(5) == (6,)


def test_phi_identity_is_antichain():
    assert phi(Permutation.identity(6)) == OrderedForest.antichain(6)


def test_phi_rejects_312_patterns():
    with pytest.raises(Not312Avoiding):
        phi(Permutation((3, 1, 2)))


@pytest.mark.parametrize("n", range(1, 9))
def test_phi_follows_the_rectangle_rule(n):
    # the parent of plot point i is the first j > i with sigma(j) < sigma(i)
    # whose closed rectangle holds no other point, named sigma(j); on a
    # 312-avoider no later j qualifies as well
    for s in av312_permutations(n):
        parent = phi(s).parent
        for i in range(n):
            parents = [
                j for j in range(i + 1, n)
                if s[j] < s[i]
                and not any(s[j] < s[t] < s[i] for t in range(i + 1, j))
            ]
            assert len(parents) <= 1, (s, i)
            assert parent[s[i] - 1] == (s[parents[0]] if parents else 0), (s, i)


def test_phi_inverse_figure_example():
    assert phi_inverse(phi(Permutation((3, 4, 2, 6, 5, 1)))) == (3, 4, 2, 6, 5, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_roundtrips_both_ways(n):
    seen = set()
    for s in av312_permutations(n):
        f = phi(s)
        f.validate()
        assert phi_inverse(f) == s
        seen.add(f)
    assert len(seen) == catalan(n)
    for f in ordered_forests(n):
        assert phi(phi_inverse(f)) == f


@pytest.mark.parametrize("n", range(1, 8))
def test_catalan_counts(n):
    assert sum(1 for _ in av312_permutations(n)) == catalan(n)
    assert sum(1 for _ in ordered_forests(n)) == catalan(n)


def test_catalan_closed_form_at_large_n():
    # the recursive definition with a cache recursed past Python's limit here
    assert catalan(1500) == math.comb(3000, 1500) // 1501
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_top_and_bottom_forests():
    # decreasing word <-> the path; identity <-> the antichain
    n = 6
    assert phi(Permutation.decreasing(n)) == OrderedForest.path(n)
    assert phi_inverse(OrderedForest.antichain(n)) == Permutation.identity(n)


def test_covers_av312_examples():
    assert covers_av312(Permutation.identity(4)) == []
    got = covers_av312(Permutation((3, 2, 1)))
    assert sorted(got) == [(1, 3, 2), (2, 3, 1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_cover_count_equals_descent_count(n):
    for s in av312_permutations(n):
        cov = covers_av312(s)
        assert len(cov) == len(s.descents())
        assert len(set(cov)) == len(cov)


@pytest.mark.parametrize("n", range(2, 7))
def test_phi_is_cover_preserving(n):
    # operating on the vertex labeled sigma(i+1) matches the projected swap
    for s in av312_permutations(n):
        f = phi(s)
        for i in sorted(s.descents()):
            assert phi(project_down(s.swap(i))) == f.operate(s[i])


@pytest.mark.parametrize("n", range(2, 7))
def test_projection_commutes_with_meet(n):
    # meet then project = project each then meet, over small subsets
    perms = list(all_permutations(n))
    rnd = random.Random(7)
    pairs = (
        itertools.combinations(perms, 2) if n <= 4
        else (rnd.sample(perms, 2) for _ in range(300))
    )
    for group in pairs:
        lhs = project_down(weak_meet(group))
        rhs = weak_meet([project_down(s) for s in group])
        assert lhs == rhs


@pytest.mark.parametrize("n", range(2, 7))
def test_forest_moves_match_av_moves(n):
    # shared picks: descent i <-> vertex labeled sigma(i+1)
    for s in av312_permutations(n):
        des = sorted(s.descents())
        f = phi(s)
        for r in range(len(des) + 1):
            for sel in itertools.combinations(des, r):
                picks = {s[i] for i in sel}
                assert phi(av_ungar_move(s, sel)) == f.ungar(picks)


def test_av_move_is_projected_weak_meet():
    for s in av312_permutations(5):
        des = sorted(s.descents())
        for r in range(1, len(des) + 1):
            for sel in itertools.combinations(des, r):
                expected = project_down(weak_meet([s] + [s.swap(i) for i in sel]))
                assert av_ungar_move(s, sel) == expected


def test_restrict_examples():
    path = OrderedForest.path(3)
    assert restrict(path, 1) == path
    assert restrict(path, 2) == OrderedForest.path(2)
    assert restrict(FIG_LEFT, 7) == OrderedForest([0, 1, 1])


def test_restrict_ignores_operations_below_window():
    for forest in ordered_forests(6):
        for m in (3, 4):
            window = restrict(forest, m)
            for v in range(1, m):
                assert restrict(forest.operate(v), m) == window


def test_first_operation_child_event():
    # whenever h_k > h_l and h_l >= h_i for every i strictly between,
    # vertex l is a child of k right after the h_l-th move
    rnd = replica_random(17, 0)
    n = 8
    checked = 0
    for _ in range(60):
        sim = SimForest.path(n)
        first_op = {}
        t = 0
        while not sim.absorbed():
            t += 1
            chosen = [v for v in range(1, n + 1) if rnd.random() < 0.4]
            for v in chosen:
                first_op.setdefault(v, t)
                sim.operate(v)
            for l in chosen:
                if first_op[l] != t:
                    continue
                for k in range(1, l):
                    if k not in first_op and all(
                        i in first_op for i in range(k + 1, l)
                    ):
                        assert sim.parent[l] == k
                        checked += 1
    assert checked > 50  # the pattern must actually occur


def test_sim_forest_matches_immutable_forest():
    rnd = random.Random(5)
    for _ in range(100):
        forest = OrderedForest.path(7)
        sim = SimForest.path(7)
        for _ in range(12):
            v = rnd.randrange(1, 8)
            forest = forest.operate(v)
            sim.operate(v)
            assert OrderedForest(sim.parent[1:], validate=False) == forest
            assert sim.non_leaves() == list(forest.non_leaves())


def _sim_fields(sim):
    return sim.parent, sim.size[1:], sim.last_child, sim.prev_sib, sim.non_leaves()


def test_sim_forest_operate_matches_fresh_build_field_by_field():
    # non_leaves() is compared in order: the coins are flipped in that order
    for n in range(1, 7):
        for forest in ordered_forests(n):
            for v in range(1, n + 1):
                sim = SimForest(forest)
                kids = forest.children(v)
                assert sim.operate(v) == (kids[-1] if kids else 0)
                after = forest.operate(v)
                assert _sim_fields(sim) == _sim_fields(SimForest(after))
                assert sim.non_leaves() == list(after.non_leaves())


def test_sim_forest_copy_operates_like_a_fresh_build_and_leaves_the_template():
    for n in range(0, 7):
        for forest in ordered_forests(n):
            template = SimForest(forest)
            for v in range(1, n + 1):
                sim = template.copy()
                sim.operate(v)
                assert _sim_fields(sim) == _sim_fields(SimForest(forest.operate(v)))
            assert _sim_fields(template) == _sim_fields(SimForest(forest))


def test_forest_json_roundtrip_and_dot():
    f = FIG_LEFT
    again = OrderedForest.from_json(f.to_json())
    assert again == f
    assert "7 -> 8" in f.to_dot()


@pytest.mark.parametrize("n", range(0, 7))
def test_constructor_accepts_exactly_the_canonical_parent_arrays(n):
    # every array with 0 <= parent[v] < v: the canonical ones are the
    # ordered forests, and every other one is rejected
    canonical = {f.parent for f in ordered_forests(n)}
    rejected = 0
    for parent in itertools.product(*(range(v) for v in range(1, n + 1))):
        if parent in canonical:
            assert OrderedForest(parent).parent == parent
        else:
            with pytest.raises(ValueError):
                OrderedForest(parent)
            rejected += 1
    assert rejected == math.factorial(n) - catalan(n)


def test_constructor_rejects_parents_out_of_range():
    for parent in ([1], [0, 2], [0, 3, 1], [-1], [0, 1, -1]):
        with pytest.raises(ValueError):
            OrderedForest(parent)


def test_from_json_rejects_children_that_disagree_with_parents():
    record = json.loads(FIG_LEFT.to_json())
    for children in (
        [[], *record["children"][1:]],  # 1 loses its children
        [[7, 2], *record["children"][1:]],  # out of planar order
        record["children"][:-1],  # one vertex short
    ):
        with pytest.raises(ValueError):
            OrderedForest.from_json(json.dumps({**record, "children": children}))
    bad_parent = {**record, "parent": [0, 1, 2, 3, 2, 2, 1, 7, 6]}  # 6 is off the path
    with pytest.raises(ValueError):
        OrderedForest.from_json(json.dumps(bad_parent))


@pytest.mark.parametrize("n", (9, 10))
def test_phi_image_is_catalan_at_larger_n(n):
    forests = set()
    for s in av312_permutations(n):
        forests.add(phi(s))
    assert len(forests) == catalan(n)
