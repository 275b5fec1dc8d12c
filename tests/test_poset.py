"""Posets, ideals, J(P), maximal chains, meets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ungar_lab.errors import CycleDetected, RedundantCover, StateExplosion
from ungar_lab.poset import FinitePoset, build_poset, grid_poset

from oracles import ChainExplosion, NotALattice, maximal_chains, meet, order_ideals


def brute_ideals(poset):
    """Oracle: enumerate all downward-closed subsets by brute force."""
    out = []
    for mask in range(1 << poset.n):
        ok = True
        for x in range(poset.n):
            if mask >> x & 1:
                for c in poset.covers[x]:
                    if not mask >> c & 1:
                        ok = False
        if ok:
            out.append(mask)
    return sorted(out)


def brute_maximal_chains(poset):
    """Oracle: maximal chains by exhaustive DFS over cover-paths."""
    chains = []

    def walk(chain):
        ups = sorted(poset.parents[chain[-1]])
        if not ups:
            chains.append(tuple(chain))
        for y in ups:
            walk(chain + [y])

    for x in sorted(poset.minimal_elements()):
        walk([x])
    return sorted(chains)


def test_antichain_of_one():
    poset = build_poset([], n=1)
    assert poset.n == 1
    assert maximal_chains(poset) == [(0,)]


def test_three_chain():
    poset = build_poset([(0, 1), (1, 2)])
    chains = maximal_chains(poset)
    assert chains == [(0, 1, 2)]
    assert len(chains[0]) - 1 == 2  # length 2


def test_two_antichain_has_two_singleton_chains():
    poset = build_poset([], n=2)
    assert maximal_chains(poset) == [(0,), (1,)]


def test_grid_2x2_chains_and_count():
    grid = grid_poset(2, 2)
    assert grid.n == 4
    chains = maximal_chains(grid)
    assert sorted(chains) == brute_maximal_chains(grid)
    assert len(chains) == 2
    assert all(len(c) == 3 for c in chains)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 1), (3, 4)])
def test_grid_poset_is_row_major_product_of_chains(rows, cols):
    # build_poset validates: the covers are acyclic and irredundant
    pairs = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    pairs += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    grid = grid_poset(rows, cols)
    assert type(grid) is FinitePoset
    assert grid == build_poset(pairs, n=rows * cols)
    assert grid.maximal_of_mask(grid.full_mask()) == (rows * cols - 1,)
    for rows_, cols_ in ((0, 2), (2, 0), (-1, 3)):
        with pytest.raises(ValueError):
            grid_poset(rows_, cols_)


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset([(0, 1), (1, 0)])


def test_redundant_cover_rejected():
    # 0 < 1 < 2 plus the implied edge 0 < 2
    with pytest.raises(RedundantCover):
        build_poset([(0, 1), (1, 2), (0, 2)])


def test_order_ideal_counts():
    assert order_ideals(build_poset([], n=1)).n == 2
    assert order_ideals(build_poset([], n=2)).n == 4  # Boolean lattice B_2
    grid = grid_poset(2, 2)
    lattice = order_ideals(grid)
    assert lattice.n == 6
    assert sorted(lattice.ideal_masks) == brute_ideals(grid)


def test_jp_covers_are_maximal_element_removals():
    grid = grid_poset(2, 3)
    lattice = order_ideals(grid)
    for k, mask in enumerate(lattice.ideal_masks):
        maxima = grid.maximal_of_mask(mask)
        covered = {lattice.ideal_masks[j] for j in lattice.covers[k]}
        assert covered == {mask & ~(1 << x) for x in maxima}
        assert len(lattice.covers[k]) == len(maxima)


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_meet_is_glb_exhaustively(rows, cols):
    lattice = order_ideals(grid_poset(rows, cols))
    for x in range(lattice.n):
        for y in range(lattice.n):
            z = meet(lattice, x, y)
            assert lattice.leq(z, x) and lattice.leq(z, y)
            for w in range(lattice.n):
                if lattice.leq(w, x) and lattice.leq(w, y):
                    assert lattice.leq(w, z)


def test_meet_idempotent_and_bottom_absorbs():
    lattice = order_ideals(grid_poset(2, 2))
    bottom = lattice.ideal_masks.index(0)
    for x in range(lattice.n):
        assert meet(lattice, x, x) == x
        assert meet(lattice, bottom, x) == bottom


def test_meet_in_jp_is_intersection():
    grid = grid_poset(2, 3)
    lattice = order_ideals(grid)
    for x, y in itertools.combinations(range(lattice.n), 2):
        z = meet(lattice, x, y)
        assert lattice.ideal_masks[z] == lattice.ideal_masks[x] & lattice.ideal_masks[y]


def test_rank2_staircases_meet_in_j_r22():
    lattice = order_ideals(grid_poset(2, 2))
    rank2 = [k for k, m in enumerate(lattice.ideal_masks) if m.bit_count() == 2]
    assert len(rank2) == 2
    z = meet(lattice, rank2[0], rank2[1])
    assert lattice.ideal_masks[z] == (
        lattice.ideal_masks[rank2[0]] & lattice.ideal_masks[rank2[1]]
    )


def test_not_a_lattice_detected():
    # bowtie: two minimal elements both covered by two maximal elements
    bowtie = build_poset([(0, 2), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(NotALattice):
        meet(bowtie, 2, 3)


def test_ideal_restricted_chains_extend():
    # every maximal chain of an ideal-restricted subposet extends to one of P
    grid = grid_poset(2, 3)
    full_chains = {frozenset(c) for c in maximal_chains(grid)}
    for mask in order_ideals(grid).ideal_masks:
        members = [x for x in range(grid.n) if mask >> x & 1]
        if not members:
            continue
        sub_index = {x: i for i, x in enumerate(members)}
        sub = build_poset(
            [
                (sub_index[c], sub_index[x])
                for x in members
                for c in grid.covers[x]
                if c in sub_index
            ],
            n=len(members),
        )
        for chain in maximal_chains(sub):
            lifted = frozenset(members[i] for i in chain)
            assert any(lifted <= full for full in full_chains)


def test_state_and_chain_caps():
    with pytest.raises(StateExplosion):
        order_ideals(build_poset([], n=8), cap=10)
    with pytest.raises(ChainExplosion):
        maximal_chains(grid_poset(4, 4), cap=3)


def test_json_roundtrip_and_dot():
    grid = grid_poset(2, 3)
    again = FinitePoset.from_json(grid.to_json())
    assert again.cover_pairs() == grid.cover_pairs()
    dot = grid.to_dot()
    assert "rankdir=BT" in dot and "->" in dot


@st.composite
def random_posets(draw):
    """Two-dimensional random posets: intersections of two linear orders."""
    n = draw(st.integers(min_value=1, max_value=7))
    perm = draw(st.permutations(range(n)))
    below = [
        [y for y in range(n) if y < x and perm.index(y) < perm.index(x)]
        for x in range(n)
    ]
    pairs = []
    for x in range(n):
        for y in below[x]:
            # keep only cover pairs: no z strictly between
            if not any(z in below[x] and y in below[z] for z in below[x]):
                pairs.append((y, x))
    return build_poset(pairs, n=n)


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_random_poset_invariants(poset):
    # transitive closure is a partial order consistent with covers
    for x in range(poset.n):
        assert poset.leq(x, x)
        for c in poset.covers[x]:
            assert poset.leq(c, x) and not poset.leq(x, c)
    # J(P) is a lattice whose meet is intersection
    lattice = order_ideals(poset)
    masks = lattice.ideal_masks
    for x in range(min(lattice.n, 12)):
        for y in range(min(lattice.n, 12)):
            z = meet(lattice, x, y)
            assert masks[z] == masks[x] & masks[y]
    # every ideal is downward closed and removal of maxima stays closed
    for mask in masks:
        assert poset.is_down_closed(mask)
        for x in poset.maximal_of_mask(mask):
            assert poset.is_down_closed(mask & ~(1 << x))


def _relabelled(poset, perm):
    """``poset`` with element ``x`` renamed ``perm[x]``."""
    return build_poset([(perm[c], perm[x]) for c, x in poset.cover_pairs()], n=poset.n)


def _scan_cases():
    """Small posets whose cover offsets ``parent - child`` take both signs,
    beside a chain, an antichain and the empty poset."""
    rnd = random.Random(15)
    cases = [build_poset([], n=0), build_poset([], n=5),
             build_poset([(i, i + 1) for i in range(6)])]
    for base in (grid_poset(2, 3), grid_poset(3, 3), build_poset([(0, 2), (1, 2), (0, 3), (1, 3)]),
                 build_poset([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 4)])):
        for _ in range(3):
            perm = list(range(base.n))
            rnd.shuffle(perm)
            cases.append(_relabelled(base, perm))
    return cases


@pytest.mark.parametrize("poset", _scan_cases(), ids=repr)
def test_mask_scans_equal_their_definitions_on_every_subset(poset):
    """``maximal_of_mask`` and ``is_down_closed`` against the member-by-member
    definitions, on every subset, not only on ideals."""
    for mask in range(1 << poset.n):
        members = [x for x in range(poset.n) if mask >> x & 1]
        maxima = tuple(x for x in members if not any(mask >> y & 1 for y in poset.parents[x]))
        closed = all(mask >> c & 1 for x in members for c in poset.covers[x])
        assert poset.maximal_of_mask(mask) == maxima  # ascending, as members are
        assert poset.is_down_closed(mask) is closed


def test_scan_cases_have_cover_offsets_of_both_signs():
    signs = {x > c for poset in _scan_cases() for c, x in poset.cover_pairs()}
    assert signs == {True, False}


@pytest.mark.parametrize("poset", _scan_cases(), ids=repr)
def test_extremal_elements_are_built_once(poset):
    assert poset.maximal_elements() == tuple(x for x in range(poset.n) if not poset.parents[x])
    assert poset.minimal_elements() == tuple(x for x in range(poset.n) if not poset.covers[x])
    assert poset.maximal_elements() is poset.maximal_elements()
    assert poset.minimal_elements() is poset.minimal_elements()
