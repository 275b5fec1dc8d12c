"""Chain engine: exact solves, Monte Carlo, couplings, probability utilities."""

import gc
import hashlib
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ungar_lab import (
    ChainLattice,
    DomainError,
    FinitePoset,
    IdealLattice,
    NotReached,
    Permutation,
    SingularSystem,
    SnLattice,
    TamariAvLattice,
    TamariForestLattice,
    build_poset,
    exact_expected_absorption,
    expected_absorption_time,
    first_passage_counts,
    geometric_tail_bound,
    grid_poset,
    monte_carlo_expectation,
    phi,
    run_chain,
    sn_absorption_samples,
    ungar_move,
)
from ungar_lab import engine
from ungar_lab.rng import replica_generator, replica_random
from ungar_lab.tamari import av_ungar_move

from oracles import (
    all_permutations,
    dict_back_substitution,
    per_subset_transitions,
    walk_hitting_time,
)

POSET_FIXTURE = Path(__file__).parent / "data" / "shuffled_graded_poset.json"


def step(lattice, state, p, rnd):
    """One random move: select each site independently, then transition."""
    sites = lattice.pick_sites(state)
    return lattice.apply(state, [s for s in sites if rnd.random() < p])


def exact_sn3_by_hand(p):
    """Oracle: the six-state absorbing solve done with rational arithmetic."""
    p = Fraction(p)
    e132 = 1 / p
    e213 = 1 / p
    e231 = 1 / p + e213
    e312 = 1 / p + e132
    # from 321 both descents are selected independently
    stay = (1 - p) ** 2
    e321 = (1 + p * (1 - p) * (e231 + e312)) / (1 - stay)
    return e321


def test_exact_chain_lattice():
    for length in (1, 3, 10):
        for p in (0.25, 0.5, 1.0):
            assert expected_absorption_time(ChainLattice(length), p) == pytest.approx(
                length / p, abs=1e-10
            )


def test_exact_sn3_formula_and_oracle():
    for p in [k / 10 for k in range(1, 10)]:
        val = expected_absorption_time(SnLattice(3), p)
        assert val == pytest.approx((5 - 4 * p) / (p * (2 - p)), abs=1e-10)
        assert val == pytest.approx(float(exact_sn3_by_hand(Fraction(p))), abs=1e-9)


def test_exact_tam3():
    assert expected_absorption_time(TamariAvLattice(3), 0.5) == pytest.approx(
        10 / 3, abs=1e-10
    )
    assert expected_absorption_time(TamariForestLattice(3), 0.5) == pytest.approx(
        10 / 3, abs=1e-10
    )


def test_exact_ideal_grid_backends_agree_with_av():
    # Tamari backends agree with each other at several p
    for n in (2, 3, 4, 5):
        for p in (0.3, 0.8):
            a = expected_absorption_time(TamariAvLattice(n), p)
            b = expected_absorption_time(TamariForestLattice(n), p)
            assert a == pytest.approx(b, rel=1e-12)


def test_exact_per_element_map():
    lattice = SnLattice(3)
    table = exact_expected_absorption(lattice, 0.5)
    assert table[Permutation.identity(3)] == 0.0
    assert table[Permutation((1, 3, 2))] == pytest.approx(2.0)
    assert table[Permutation((2, 3, 1))] == pytest.approx(4.0)
    assert len(table) == 6


def test_step_examples():
    rnd = replica_random(0, 0)
    lattice = SnLattice(3)
    assert step(lattice, Permutation.identity(3), 0.5, rnd) == (1, 2, 3)
    # p = 1 is the maximal move
    assert step(lattice, Permutation((3, 2, 1)), 1.0, rnd) == (1, 2, 3)
    assert step(lattice, Permutation((4, 1, 6, 5, 2, 3)), 1.0, rnd) == (
        1, 4, 2, 5, 6, 3,
    )


def test_step_distribution_chi_square():
    # from 321 at p=1/2 the four selections are equally likely
    rnd = replica_random(11, 0)
    lattice = SnLattice(3)
    counts = {}
    reps = 100_000
    for _ in range(reps):
        nxt = step(lattice, Permutation((3, 2, 1)), 0.5, rnd)
        counts[nxt] = counts.get(nxt, 0) + 1
    assert set(counts) == {(3, 2, 1), (2, 3, 1), (3, 1, 2), (1, 2, 3)}
    _, pvalue = stats.chisquare(list(counts.values()))
    assert pvalue > 0.001


@pytest.mark.parametrize(
    "make,p",
    [
        (lambda: TamariForestLattice(4), 0.5),
        (lambda: TamariAvLattice(4), 0.5),
        (lambda: IdealLattice(grid_poset(2, 2)), 0.4),
    ],
)
def test_step_distribution_matches_subset_aggregation(make, p):
    # empirical next-state distribution vs p^|T| (1-p)^(s-|T|) aggregation
    lattice = make()
    state = lattice.top()
    sites = lattice.pick_sites(state)
    expected = {}
    s = len(sites)
    for bits in range(1 << s):
        sel = [sites[i] for i in range(s) if bits >> i & 1]
        y = lattice.apply(state, sel)
        w = p ** len(sel) * (1 - p) ** (s - len(sel))
        expected[y] = expected.get(y, 0.0) + w
    rnd = replica_random(23, 0)
    reps = 50_000
    counts = {}
    for _ in range(reps):
        y = step(lattice, state, p, rnd)
        counts[y] = counts.get(y, 0) + 1
    keys = sorted(expected, key=repr)
    _, pvalue = stats.chisquare(
        [counts.get(k, 0) for k in keys], [expected[k] * reps for k in keys]
    )
    assert pvalue > 0.001


def test_run_chain_records():
    rnd = replica_random(1, 0)
    run = run_chain(SnLattice(4), 0.6, rnd, record=True)
    assert run.states[0] == Permutation.decreasing(4)
    assert run.states[-1] == Permutation.identity(4)
    assert len(run.picks) == run.absorption


def test_run_chain_builds_the_top_once():
    class CountingSn(SnLattice):
        tops = 0

        def top(self):
            CountingSn.tops += 1
            return super().top()

    run = run_chain(CountingSn(5), 0.5, replica_random(3, 0), record=True)
    assert CountingSn.tops == 1 and run.states[0] == Permutation.decreasing(5)


@pytest.mark.parametrize("cls", [SnLattice, TamariAvLattice])
def test_word_lattice_ends_are_built_once_and_survive_runs(cls):
    lattice = cls(6)
    top, bottom = lattice.top(), lattice.bottom()
    for r in range(100):
        run = run_chain(lattice, 0.5, replica_random(7, r), record=True)
        assert run.states[0] is top and run.absorption > 0
    assert lattice.top() is top and lattice.bottom() is bottom
    assert top == Permutation.decreasing(6) and bottom == Permutation.identity(6)


def test_forest_sampler_replicas_leave_the_start_forest():
    lattice = TamariForestLattice(7)
    first = monte_carlo_expectation(lattice, 0.3, reps=200, seed=5).samples
    again = monte_carlo_expectation(lattice, 0.3, reps=200, seed=5).samples
    fresh = monte_carlo_expectation(TamariForestLattice(7), 0.3, reps=200, seed=5).samples
    assert (first == again).all() and (first == fresh).all()


def test_run_chain_memory_is_flat_in_replicas():
    import tracemalloc

    lattice = SnLattice(40)
    run_chain(lattice, 0.5, replica_random(11, 300))  # first-call imports
    tracemalloc.start()
    try:
        for r in range(300):
            run_chain(lattice, 0.5, replica_random(11, r))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 0.5 * 2**20


@pytest.mark.parametrize("lattice", [SnLattice(7), TamariAvLattice(7)])
def test_word_sites_are_the_ascending_descents_on_s7(lattice):
    for s in all_permutations(7):
        assert lattice.pick_sites(s) == tuple(sorted(s.descents()))


def test_exact_sn8_pinned():
    assert expected_absorption_time(SnLattice(8), 0.5) == 19.098133289369038


def test_p_zero_rejected():
    with pytest.raises(DomainError):
        run_chain(SnLattice(3), 0.0, replica_random(0, 0))
    with pytest.raises(DomainError):
        expected_absorption_time(SnLattice(3), 0.0)


@pytest.mark.parametrize(
    "lattice,p",
    [
        (ChainLattice(10), 0.3),
        (SnLattice(4), 0.5),
        (TamariForestLattice(5), 0.4),
        (IdealLattice(grid_poset(2, 3)), 0.6),
    ],
)
def test_monte_carlo_matches_exact(lattice, p):
    exact = expected_absorption_time(lattice, p)
    res = monte_carlo_expectation(lattice, p, reps=12_000, seed=5)
    assert abs(res.mean - exact) <= 3 * res.stderr


def test_monte_carlo_reproducible():
    a = monte_carlo_expectation(SnLattice(4), 0.5, reps=500, seed=9)
    b = monte_carlo_expectation(SnLattice(4), 0.5, reps=500, seed=9)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = monte_carlo_expectation(SnLattice(4), 0.5, reps=500, seed=10)
    assert c.mean != a.mean  # different stream


@pytest.mark.parametrize("samples", [
    np.random.default_rng(3).geometric(0.2, size=500) - 1,
    np.array([4]),
    np.full(7, 2),
])
def test_empirical_survival_is_the_tail_mean_at_every_t(samples):
    ts, surv = engine.empirical_survival(samples)
    assert ts.tolist() == list(range(samples.max() + 2))
    assert surv.tolist() == [(samples >= t).mean() for t in ts]
    assert surv[0] == 1.0 and surv[-1] == 0.0


@st.composite
def layered_posets(draw, max_elements=20):
    """Random graded posets of at most ``max_elements`` elements whose
    covers join consecutive layers only, so no cover is implied by the
    others.  Layers past ``max_elements`` are cut off."""
    widths, room = [], max_elements
    for width in draw(st.lists(st.integers(1, 4), max_size=5)):
        if room == 0:
            break
        widths.append(min(width, room))
        room -= widths[-1]
    covers, start = [], 0
    for k, width in enumerate(widths):
        below = (st.sets(st.sampled_from(range(start - widths[k - 1], start)))
                 if k else st.just(set()))
        covers += [draw(below) for _ in range(width)]
        start += width
    return FinitePoset(covers)


IDEAL_EDGE_CASES = [
    FinitePoset([]),
    FinitePoset([set()]),
    FinitePoset([set(), set(), set(), set()]),
    FinitePoset([set(), {0}, {1}, {2}]),
    pytest.param(grid_poset(1, 1), id="grid_poset(1, 1)"),
]


def _assert_fast_ideal_matches_run_chain(poset, p, seed):
    lattice = IdealLattice(poset)
    for r in range(3):
        fast = lattice.fast_absorption_sample(p, replica_random(seed, r))
        generic = run_chain(lattice, p, replica_random(seed, r)).absorption
        assert fast == generic, (poset.cover_pairs(), p, seed, r)


@settings(max_examples=150, deadline=None)
@given(layered_posets(), st.sampled_from([0.3, 0.5, 1.0]), st.integers(0, 10**6))
def test_ideal_fast_sample_matches_run_chain(poset, p, seed):
    _assert_fast_ideal_matches_run_chain(poset, p, seed)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("poset", IDEAL_EDGE_CASES, ids=repr)
def test_ideal_fast_sample_matches_run_chain_edge_cases(poset, p):
    _assert_fast_ideal_matches_run_chain(poset, p, seed=11)


def _assert_subset_dp_matches_oracle(lattice, p):
    q = 1.0 - p
    for x in engine.enumerate_states(lattice):
        sites = lattice.pick_sites(x)
        assert list(engine._transitions(lattice, x, sites, p, q)) == list(
            per_subset_transitions(lattice, x, sites, p, q)
        ), (lattice.name, x)
    expect = exact_expected_absorption(lattice, p)
    assert list(expect.items()) == list(dict_back_substitution(lattice, p).items())


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize(
    "lattice",
    [TamariForestLattice(n) for n in range(8)]
    + [IdealLattice(grid_poset(3, 4)), ChainLattice(4)]
    + [SnLattice(n) for n in range(7)]
    + [TamariAvLattice(n) for n in range(8)],
    ids=lambda lattice: lattice.name,
)
def test_subset_dp_matches_per_subset_rows(lattice, p):
    _assert_subset_dp_matches_oracle(lattice, p)


# at most 10 elements: the states of a poset of n elements have at most
# 3^n selections in all (each element is outside the ideal, inside and
# kept, or selected), and every selection is walked several times
@settings(max_examples=60, deadline=None)
@given(layered_posets(max_elements=10), st.sampled_from([0.3, 0.5, 1.0]))
def test_subset_dp_matches_per_subset_rows_on_posets(poset, p):
    _assert_subset_dp_matches_oracle(IdealLattice(poset), p)


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 9)), st.sampled_from([0.3, 0.5]))
def test_run_dp_matches_per_subset_rows_on_s8(word, p):
    lattice, x = SnLattice(8), Permutation(word)
    sites = lattice.pick_sites(x)
    assert list(engine._transitions(lattice, x, sites, p, 1.0 - p)) == list(
        per_subset_transitions(lattice, x, sites, p, 1.0 - p)
    )


@pytest.mark.parametrize("lattice", [SnLattice(3), TamariAvLattice(3)],
                         ids=lambda lattice: lattice.name)
def test_block_reversal_moves_do_not_compose_site_by_site(lattice):
    # why the DP applies each run of adjacent selected descents whole: the
    # run is reversed as one block; runs that are not adjacent compose
    x = Permutation((3, 2, 1))
    assert lattice.pick_sites(x) == (1, 2)
    assert lattice.apply(x, [1, 2]) == (1, 2, 3)
    assert lattice.apply(lattice.apply(x, [1]), [2]) == (2, 1, 3)
    x = Permutation((4, 3, 2, 1))
    assert lattice.apply(x, [1, 3]) == lattice.apply(lattice.apply(x, [1]), [3])


def _moved_site_by_site(lattice, x, chosen):
    for t in chosen:
        x = lattice.apply(x, (t,))
    return x


def _assert_moves_compose_site_by_site(lattice):
    # what a sitewise backend's solve relies on: every selection moves as
    # its sites one at a time, in increasing order
    assert lattice.sitewise
    for x in engine.enumerate_states(lattice):
        sites = lattice.pick_sites(x)
        for bitsel in range(1, 1 << len(sites)):
            chosen = [t for k, t in enumerate(sites) if bitsel >> k & 1]
            assert lattice.apply(x, chosen) == _moved_site_by_site(lattice, x, chosen), (
                lattice.name, x, chosen)


@pytest.mark.parametrize(
    "lattice",
    [TamariForestLattice(n) for n in range(8)]
    + [IdealLattice(grid_poset(3, 3)),
       IdealLattice(FinitePoset.from_json(POSET_FIXTURE.read_text()), "shuffled-graded")],
    ids=lambda lattice: lattice.name,
)
def test_sitewise_moves_compose_site_by_site(lattice):
    _assert_moves_compose_site_by_site(lattice)


@settings(max_examples=60, deadline=None)
@given(layered_posets(max_elements=10))
def test_sitewise_moves_compose_site_by_site_on_posets(poset):
    _assert_moves_compose_site_by_site(IdealLattice(poset))


@pytest.mark.parametrize("lattice, x, run", [
    (SnLattice(4), Permutation((4, 3, 2, 1)), (2, 3)),
    (TamariAvLattice(5), Permutation((5, 4, 3, 2, 1)), (2, 3)),
], ids=["sn-4", "tamari-av-5"])
def test_block_moves_keep_their_runs_whole(lattice, x, run):
    # why these backends' solves apply each run of adjacent sites whole
    assert not lattice.sitewise
    assert lattice.apply(x, run) != _moved_site_by_site(lattice, x, run)


def test_residual_audit_catches_a_wrong_table_entry_at_the_top(monkeypatch):
    lattice = SnLattice(5)
    states = engine.enumerate_states(lattice)
    assert len(states) == 120 and lattice.top() not in states[:64]  # not among the lowest
    audited = engine._audited(states)
    assert len(audited) == 64 and audited[0] == states[0] and audited[-1] == lattice.top()
    assert len(set(audited)) == 64
    assert states[0] == lattice.bottom()

    # the top is listed last, so its move at its last descent alone is the
    # last table entry; send it to the bottom.  No larger selection starts
    # from that successor and every other entry is right, so only the
    # top's value goes wrong
    enumerate_states = engine.enumerate_states

    def enumerate_then_corrupt(lat, **kw):
        found = enumerate_states(lat, **kw)
        number, at_site, moved, ends = kw["table"]
        assert at_site[-1] == 4
        moved[-1] = 0
        return found

    monkeypatch.setattr(engine, "enumerate_states", enumerate_then_corrupt)
    with pytest.raises(SingularSystem, match="residual"):
        exact_expected_absorption(lattice, 0.5)


class _LaterMove(SnLattice):
    """``SnLattice(4)`` whose move of 3214 by ``selected``, once armed,
    lands on the top, which the post-order lists last."""

    def __init__(self, selected):
        super().__init__(4)
        self.fault = (Permutation((3, 2, 1, 4)), tuple(selected))
        self.armed = False

    def apply(self, state, selected):
        if self.armed and (state, tuple(selected)) == self.fault:
            return self.top()
        return super().apply(state, selected)


@pytest.mark.parametrize("selected", [(1,), (2,), (1, 2)], ids=["site-1", "site-2", "run-1-2"])
def test_a_move_to_a_later_state_raises(monkeypatch, selected):
    # one-site moves are checked where the enumeration applies them, into
    # a state still on its stack; runs where the solve applies them.  A
    # successor not yet solved must not read as 0
    lattice = _LaterMove(selected)
    assert lattice.pick_sites(lattice.fault[0]) == (1, 2)
    if len(selected) == 1:
        lattice.armed = True
        with pytest.raises(SingularSystem, match="not listed before"):
            engine.enumerate_states(lattice)
    else:
        # armed once the solver has enumerated its states, so that the
        # fault acts on the solve alone
        enumerate_states = engine.enumerate_states

        def enumerate_then_arm(lat, **kw):
            found = enumerate_states(lat, **kw)
            lat.armed = True
            return found

        monkeypatch.setattr(engine, "enumerate_states", enumerate_then_arm)
    with pytest.raises(SingularSystem, match="not listed before"):
        exact_expected_absorption(lattice, 0.5)


class _LoggedMoves:
    """Mixin that logs a backend's moves."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def apply(self, state, selected):
        self.log.append((state, tuple(selected)))
        return super().apply(state, selected)


class _LoggedIdeals(_LoggedMoves, IdealLattice):
    pass


class _LoggedForests(_LoggedMoves, TamariForestLattice):
    pass


def _one_site_moves(lattice, states):
    return {(x, (t,)) for x in states for t in lattice.pick_sites(x)}


def test_a_one_site_move_missing_from_the_table_is_applied(monkeypatch):
    # 3 < 0 and 1 < 2.  Removing 0 from the full ideal exposes 3, above
    # the site 2, so counting back from the end of {1, 2, 3}'s sites (2, 3)
    # does not reach 2, and the move of {1, 2, 3} at 2 is applied again.
    # Likewise {0, 1, 3} has sites (0, 1), and removing 0 leaves {1, 3},
    # whose sites (1, 3) end in 3, not 1
    lattice = _LoggedIdeals(build_poset([(3, 0), (1, 2)]))
    assert lattice.pick_sites(0b1111) == (0, 2) and lattice.pick_sites(0b1110) == (2, 3)
    assert lattice.pick_sites(0b1011) == (0, 1) and lattice.pick_sites(0b1010) == (1, 3)
    monkeypatch.setattr(engine, "_audited", lambda states: [])
    expect = exact_expected_absorption(lattice, 0.5)
    # the enumeration applies every one-site move once, the solve only the
    # two that the table misses
    again = [(0b1110, (2,)), (0b1010, (1,))]
    assert sorted(lattice.log) == sorted([*_one_site_moves(lattice, expect), *again])
    monkeypatch.undo()
    assert list(expect.items()) == list(dict_back_substitution(lattice, 0.5).items())


def test_forest_solve_applies_each_one_site_move_once(monkeypatch):
    # a forest's lower operations leave its higher non-leaves in place, so
    # every selection's highest site is found, counting back, among the
    # sites of the rest's successor: no move is applied again, and no run
    # at all
    lattice = _LoggedForests(8)
    monkeypatch.setattr(engine, "_audited", lambda states: [])
    expect = exact_expected_absorption(lattice, 0.5)
    assert len(expect) == 1430
    moves = _one_site_moves(lattice, expect)
    assert len(lattice.log) == len(moves) == sum(len(lattice.pick_sites(x)) for x in expect)
    assert set(lattice.log) == moves
    monkeypatch.undo()
    assert expect == exact_expected_absorption(TamariForestLattice(8), 0.5)


# traced peaks of the solver on state objects that the numbered solve
# replaced, measured the same way (Python 3.11.7)
@pytest.mark.parametrize(
    "make, parent_peak",
    [(lambda: TamariForestLattice(8), 575_088),
     (lambda: IdealLattice(grid_poset(2, 100)), 1_340_544)],
    ids=["tamari-8", "grid-2x100"],
)
def test_exact_solve_memory_stays_lean(make, parent_peak):
    # the numbering dict, the value list and the successor tables must not
    # add half of it; on the grid a table with a slot for every element of
    # the poset at every state would hold 5,151 x 200 slots
    exact_expected_absorption(make(), 0.5)
    lattice = make()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        exact_expected_absorption(lattice, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * parent_peak


def _assert_targets_come_first(lattice, p=0.5):
    states = engine.enumerate_states(lattice)
    position = {x: i for i, x in enumerate(states)}
    assert len(position) == len(states) and states[-1] == lattice.top()
    for x in states:
        for _, y in engine._transitions(lattice, x, lattice.pick_sites(x), p, 1 - p):
            assert position[y] < position[x], (lattice.name, x, y)


@pytest.mark.parametrize("lattice", [
    SnLattice(5), TamariAvLattice(6), TamariForestLattice(6),
    IdealLattice(grid_poset(3, 3)), ChainLattice(5), SnLattice(0),
], ids=lambda lattice: lattice.name)
def test_enumeration_lists_every_target_before_its_state(lattice):
    _assert_targets_come_first(lattice)


@settings(max_examples=60, deadline=None)
@given(layered_posets())
def test_enumeration_lists_every_target_before_its_state_on_posets(poset):
    _assert_targets_come_first(IdealLattice(poset))


def test_ideal_monte_carlo_does_not_scan_masks(monkeypatch):
    def refuse(self, mask):
        raise AssertionError("maximal_of_mask called")

    monkeypatch.setattr(FinitePoset, "maximal_of_mask", refuse)
    lattice = IdealLattice(grid_poset(6, 6))
    res = monte_carlo_expectation(lattice, 0.5, reps=200, seed=13)
    assert res.reps == 200 and res.minimum >= 11
    assert lattice._maximal == {}


def test_vectorized_sn_matches_exact_and_bound():
    exact = expected_absorption_time(SnLattice(5), 0.5)
    samples = sn_absorption_samples(5, 0.5, 20_000, 3)
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - exact) <= 3 * stderr
    # p = 1 from the decreasing word: deterministic, at most n-1 moves
    samples = sn_absorption_samples(6, 1.0, 50, 4)
    assert (samples <= 5).all()
    assert (samples == samples[0]).all()


def test_sort_runs_is_the_ungar_move_on_all_of_s6():
    # every sigma in S_6 with every subset of its descents, as one batch
    words, sels, moves = [], [], []
    for sigma in all_permutations(6):
        sites = sorted(sigma.descents())
        for bits in range(1 << len(sites)):
            chosen = [i for k, i in enumerate(sites) if bits >> k & 1]
            sel = np.zeros(5, dtype=bool)
            sel[[i - 1 for i in chosen]] = True
            words.append(sigma)
            sels.append(sel)
            moves.append(list(ungar_move(sigma, chosen)))
    got = engine._sort_runs(np.array(words, dtype=np.int64), np.array(sels))
    assert got.tolist() == moves


# SHA-256 of the int64 samples, recorded before the sampler sorted its runs:
# criterion 2's and criterion 11's cases, the seeds above and below, and the
# perfbench sn-40 check's size at five seeds
SN_SAMPLES_SHA256 = {
    (3, 0.3, 100_000, 1000): "d9a71825fe8c264c19f52d902b9b9738c2ad2d269f2b6b5bbe80becb237cb9c2",
    (3, 0.7, 100_000, 1001): "b10c279a3d3ee575f8bdbc4d4fd25e8aff8816140e09b778c29cf3df32b37e17",
    (4, 0.3, 100_000, 1002): "5f6cce8e151673b7be1af4b8de6d82a130d87ef11fc90d9a05c1257535bbaf87",
    (4, 0.7, 100_000, 1003): "5aa71f1985c88831a19dc4ed483514e5c7b5afd900d1b1f04c1a03a8df2c1d2b",
    (5, 0.3, 100_000, 1004): "5737cce4a87677b7e0405a0c9427fb3152466e72d5c4b43724b8ed43dc7f33c9",
    (5, 0.7, 100_000, 1005): "a0a5a9651234d7ef950787a8fe083950ff1175594095faf4105db1069bcc5fa6",
    (20, 0.5, 400, 111): "7b91f7099a0ff3741ddc0f65e54b6638d2ea3a61db7b50b04acfc9407cbdc0a0",
    (40, 0.5, 400, 112): "daabde8d9d816679ed9d9264e7696266f33a4398b54ed701eb39e3a25fbe7b41",
    (80, 0.5, 400, 113): "0451af87aade52454e011d2845de1a1a43a2ca51608bbb25d0fbd717cf606cc1",
    (5, 0.5, 20_000, 3): "c4b9b76f095f65004c4fec7d08825c74f401cf66a2740d2446543440abc00771",
    (6, 1.0, 50, 4): "f33daf5fc5cddc53a4edc108cc7617823eba7f63958f7e79379335d6a0f6eae7",
    (5, 0.3, 4_000, 17): "0272e6870d374c2685ec2e59587a7a6eae9bcc9bd7ef1f219d12ff1ce7ec8a01",
    (40, 0.5, 2_000, 2): "224a7d51c6b2bb973d546549dabba5bc90c5bf65eee161c5c2330f83d6613308",
    (40, 0.5, 2_000, 3): "589259945ea4d0cbc9e4aac33834b26d1784c5a64b406e48940ad6915d425e49",
    (40, 0.5, 2_000, 4): "dd55e7a1cba4d8999e34447f7d1658dfe2a2aba575bffd7f510a21a296ae8b1c",
    (40, 0.5, 2_000, 5): "8abda1cc549a2a5e19d2e28d7336f7111a0b6d0c6ff803beab106f430036e1c7",
    (40, 0.5, 2_000, 6): "a37d7c2d46dce0d13c85249baad2b3473e418e24bb0ce0556d23334d0d41e26a",
}


def test_vectorized_sn_golden_digests():
    for case, digest in SN_SAMPLES_SHA256.items():
        samples = sn_absorption_samples(*case)
        assert hashlib.sha256(samples.astype("<i8").tobytes()).hexdigest() == digest, case


def test_vectorized_sn_below_three():
    # S_0 and S_1 start absorbed; on S_2 the one move is a geometric(p) wait
    assert sn_absorption_samples(0, 0.5, 3, 1).tolist() == [0, 0, 0]
    assert sn_absorption_samples(1, 0.5, 3, 1).tolist() == [0, 0, 0]
    assert sn_absorption_samples(2, 1.0, 4, 1).tolist() == [1, 1, 1, 1]
    samples = sn_absorption_samples(2, 0.5, 4_000, 1)
    assert samples.min() >= 1
    assert abs(samples.mean() - 2) <= 5 * samples.std(ddof=1) / math.sqrt(len(samples))


def test_backend_equivalence_coupled_runs():
    # identical pick streams drive the Av312 and forest backends through
    # the isomorphism: descent i corresponds to the vertex labeled s(i+1)
    n, p = 6, 0.5
    for seed in range(30):
        rnd = replica_random(seed, 0)
        sigma = Permutation.decreasing(n)
        from ungar_lab import OrderedForest

        forest = OrderedForest.path(n)
        steps_av = steps_forest = 0
        while sigma != Permutation.identity(n):
            bits = [rnd.random() < p for _ in range(n + 1)]
            sel = [i for i in sorted(sigma.descents()) if bits[sigma[i]]]
            sigma = av_ungar_move(sigma, sel)
            picks = [v for v in forest.non_leaves() if bits[v]]
            forest = forest.ungar(picks)
            steps_av += 1
            steps_forest += 1
            assert phi(sigma) == forest
        assert forest == OrderedForest.antichain(n)


def test_geometric_tail_bound_values():
    # upper bound tends to 1 as t -> 0+
    assert geometric_tail_bound(10, 0.5, 1e-12) == pytest.approx(1.0, abs=1e-9)
    val = geometric_tail_bound(100, 0.5, 1.0)
    assert val == pytest.approx(math.exp(-1 / (1 + 2 * math.sqrt(1 / 200))), rel=1e-12)
    with pytest.raises(DomainError):
        geometric_tail_bound(1, 0.5, 3.0, side="lower")
    with pytest.raises(DomainError):
        geometric_tail_bound(10, 0.5, -1.0)


@pytest.mark.parametrize("k,p,t", [(20, 0.5, 1.0), (50, 0.3, 2.0), (100, 0.7, 1.5)])
def test_geometric_tail_bound_dominates_empirical(k, p, t):
    rng = replica_generator(8, 0)
    reps = 40_000
    sums = rng.geometric(p, size=(reps, k)).sum(axis=1)
    threshold = k / p + t * math.sqrt(k / p**3)
    emp = (sums > threshold).mean()
    stderr = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
    assert emp <= geometric_tail_bound(k, p, t, "upper") + 3 * stderr
    low = (sums < k / p - t * math.sqrt(k / p**3)).mean()
    stderr = math.sqrt(max(low * (1 - low), 1e-12) / reps)
    assert low <= geometric_tail_bound(k, p, t, "lower") + 3 * stderr


def test_walk_hitting_time_small_probabilities():
    counts = first_passage_counts(1, 5, 400_000, seed=12)
    total = counts.sum()
    assert total == 400_000
    for t, prob in [(1, 0.5), (3, 0.125), (5, 0.0625)]:
        emp = counts[t] / total
        stderr = math.sqrt(prob * (1 - prob) / total)
        assert abs(emp - prob) <= 3.5 * stderr
    assert counts[2] == counts[4] == 0  # parity


def test_walk_scalar_sampler_and_errors():
    rnd = replica_random(3, 0)
    draws = []
    for _ in range(2_000):
        try:
            draws.append(walk_hitting_time(1, rnd, max_steps=10_000))
        except NotReached:
            pass  # the hitting time has infinite mean; censoring is expected
    assert len(draws) > 1_900
    assert all(d % 2 == 1 for d in draws)
    assert abs(sum(1 for d in draws if d == 1) / 2_000 - 0.5) < 0.04
    with pytest.raises(DomainError):
        walk_hitting_time(0, rnd)
    with pytest.raises(DomainError):
        walk_hitting_time(1, rnd, q=0.7)
    with pytest.raises(NotReached):
        walk_hitting_time(10**9, rnd, max_steps=10)


def test_lazy_walk_parity_free_and_hits():
    rnd = replica_random(4, 0)
    draws = [walk_hitting_time(2, rnd, q=0.3, max_steps=10**6) for _ in range(500)]
    assert min(draws) >= 2
    assert any(d % 2 == 1 for d in draws)  # laziness breaks parity


def test_tau_m_is_sum_of_tau_1_copies():
    # KS at desk scale with identical censoring on both sides
    horizon = 10_000
    reps = 4_000
    direct = []
    summed = []
    rnd_a = replica_random(21, 0)
    rnd_b = replica_random(22, 0)
    for _ in range(reps):
        try:
            direct.append(walk_hitting_time(2, rnd_a, max_steps=horizon))
        except NotReached:
            direct.append(horizon + 1)
        try:
            first = walk_hitting_time(1, rnd_b, max_steps=horizon)
            second = walk_hitting_time(1, rnd_b, max_steps=horizon - first)
            summed.append(first + second)
        except NotReached:
            summed.append(horizon + 1)
    _, pvalue = stats.ks_2samp(direct, summed)
    assert pvalue > 0.001


def test_absorption_upper_bound_via_chain_length():
    # every trajectory is at most a sum of C(n,2) geometric lower bounds:
    # just sanity-check the tail is geometric-ish, no sample is enormous
    samples = sn_absorption_samples(5, 0.3, 4_000, 17)
    assert samples.max() < 400


def exact_by_fractions(lattice, p):
    """Oracle: the same absorbing solve in exact rational arithmetic."""
    from fractions import Fraction as F

    from ungar_lab.engine import enumerate_states

    p = F(p)
    q = 1 - p
    states = enumerate_states(lattice)
    bottom = lattice.bottom()
    expect = {}
    for x in states:
        if x == bottom:
            expect[x] = F(0)
            continue
        sites = lattice.pick_sites(x)
        s = len(sites)
        acc = F(1)
        for bits in range(1, 1 << s):
            sel = [sites[i] for i in range(s) if bits >> i & 1]
            acc += p ** len(sel) * q ** (s - len(sel)) * expect[
                lattice.apply(x, sel)
            ]
        expect[x] = acc / (1 - q**s)
    return expect


@pytest.mark.parametrize(
    "make,p",
    [
        (lambda: SnLattice(4), "3/10"),
        (lambda: TamariAvLattice(4), "1/2"),
        (lambda: IdealLattice(grid_poset(2, 3)), "7/10"),
    ],
)
def test_float_solver_matches_rational_solver(make, p):
    from fractions import Fraction

    lattice = make()
    rational = exact_by_fractions(lattice, Fraction(p))
    floats = exact_expected_absorption(lattice, float(Fraction(p)))
    assert set(rational) == set(floats)
    for state, value in rational.items():
        assert floats[state] == pytest.approx(float(value), rel=1e-12)


def test_enumerate_states_counts():
    from ungar_lab.engine import enumerate_states

    assert len(enumerate_states(SnLattice(5))) == 120
    assert len(enumerate_states(TamariAvLattice(6))) == 132  # Catalan C_6
    assert len(enumerate_states(TamariForestLattice(6))) == 132
    assert len(enumerate_states(IdealLattice(grid_poset(3, 3)))) == 20


def test_test_only_oracles_are_not_in_the_library():
    import importlib
    import pkgutil

    import ungar_lab

    moved = {"all_permutations", "descents", "maximal_ungar_move", "weak_leq",
             "weak_meet", "IdealLatticePoset", "order_ideals", "maximal_chains",
             "meet", "restrict", "ideal_complement_rows", "enumerate_ideal_masks",
             "ChainExplosion", "NotALattice", "SizeMismatch",
             "per_subset_transitions", "dict_back_substitution"}
    modules = [ungar_lab] + [importlib.import_module(f"ungar_lab.{info.name}")
                             for info in pkgutil.iter_modules(ungar_lab.__path__)]
    assert len(modules) >= 10
    for module in modules:
        assert not moved & set(vars(module)), module.__name__
    assert not hasattr(ungar_lab.OrderedForest, "descendant_count")
    # a lattice state is its canonical encoding: no wrapper classes, no
    # child tables beside the forest's parent tuple
    for module in modules:
        assert not {"OrderIdeal", "GridPoset"} & set(vars(module)), module.__name__
    assert ungar_lab.OrderedForest.__slots__ == ("n", "parent")
    assert not hasattr(ungar_lab.OrderedForest.path(3), "_children")
