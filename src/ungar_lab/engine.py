"""Generic absorbing-chain engine over lattice backends.

A backend exposes the minimal surface the chain needs: the top and bottom
elements, the currently available move sites of a state (descents,
non-leaf vertices, maximal ideal elements), and the transition that
applies a selected subset of sites (the meet of the state with its picked
covers).  Each step selects every site independently with probability
``p``; the probability of staying put is ``(1-p)^{#sites}`` because every
non-empty selection moves strictly down.

The exact solver uses that surface, plus one class attribute.  A
depth-first post-order over single-site moves lists every state after
each state it can move to, so the linear system
``E(x) = 1 + sum_y P(x->y) E(y)`` is triangular and solves by
back-substitution; no general solver is needed.  The solve works on state
numbers.  The enumeration applies each one-site move once per (state,
site) and keeps its successor's number in a table.  A selection's
successor is one move from the successor of the rest: of its highest
site, read from the table, where the backend's ``sitewise`` says that its
moves act one site at a time in increasing order (forests, ideals), and
otherwise of its highest run of adjacent sites, applied unless the run is
one site.  The residual audit applies its moves afresh.

Also here: the two-sided tail bound for sums of geometrics, and the
histogram of simple random-walk hitting times.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SingularSystem, StateExplosion
from .perms import Permutation, ungar_move
from .poset import DEFAULT_STATE_CAP, FinitePoset
from .rng import replica_generator, replica_random
from .tamari import OrderedForest, SimForest, av_ungar_move

_SUBSET_ENUM_CAP = 22  # 2^22 transition terms per state is already generous


def _check_p(p: float) -> float:
    p = float(p)
    if not 0 < p <= 1:
        raise DomainError(f"p={p} outside (0, 1]; p=0 gives a non-absorbing chain")
    if p <= 2.0**-53:  # uniform draws are multiples of 2**-53: only 0.0 is below p
        raise DomainError(f"p={p} is at most 2**-53, which sampling cannot tell from 0")
    return p


# -- backends -----------------------------------------------------------------


class SnLattice:
    """Weak order on S_n; sites are descent positions."""

    sitewise = False  # a run of adjacent descents reverses as one block

    def __init__(self, n: int):
        self.n = n
        self.name = f"sn-{n}"
        self._top = Permutation.decreasing(n)  # immutable, so every run shares them
        self._bottom = Permutation.identity(n)

    def top(self) -> Permutation:
        return self._top

    def bottom(self) -> Permutation:
        return self._bottom

    def pick_sites(self, state: Permutation) -> tuple[int, ...]:
        return state.descents()

    def apply(self, state: Permutation, selected: Sequence[int]) -> Permutation:
        return ungar_move(state, selected)


class TamariAvLattice:
    """Tamari lattice as 312-avoiding permutations under the weak order."""

    sitewise = False  # a block reversal, then the projection

    def __init__(self, n: int):
        self.n = n
        self.name = f"tamari-av-{n}"
        self._top = Permutation.decreasing(n)  # immutable, so every run shares them
        self._bottom = Permutation.identity(n)

    def top(self) -> Permutation:
        return self._top

    def bottom(self) -> Permutation:
        return self._bottom

    def pick_sites(self, state: Permutation) -> tuple[int, ...]:
        return state.descents()

    def apply(self, state: Permutation, selected: Sequence[int]) -> Permutation:
        return av_ungar_move(state, selected)


class TamariForestLattice:
    """Tamari lattice as ordered forests; sites are non-leaf vertices."""

    sitewise = True  # ``ungar`` operates its vertices one at a time, ascending

    def __init__(self, n: int):
        self.n = n
        self.name = f"tamari-{n}"
        self._start = SimForest.path(n)

    def top(self) -> OrderedForest:
        return OrderedForest.path(self.n)

    def bottom(self) -> OrderedForest:
        return OrderedForest.antichain(self.n)

    def pick_sites(self, state: OrderedForest) -> tuple[int, ...]:
        return state.non_leaves()

    def apply(self, state: OrderedForest, selected: Sequence[int]) -> OrderedForest:
        return state.ungar(selected)

    def fast_absorption_sample(self, p: float, rnd) -> int:
        """Scalar-loop sampler on the mutable forest.

        Each replica starts from a copy of one path forest built with the
        lattice (list slices, no rebuild).  Each operation is O(1) pointer
        work, plus a bisect and a list deletion the at most ``n`` times a
        vertex becomes a leaf; each step also copies the non-leaf list.
        """
        sim = self._start.copy()
        t = 0
        while not sim.absorbed():
            t += 1
            selected = [v for v in sim.non_leaves() if rnd.random() < p]
            for v in selected:
                sim.operate(v)
        return t


class IdealLattice:
    """J(P) for an explicit poset; states are ideal bitmasks.

    The step deletes a randomly selected subset of the maximal elements of
    the ideal.  ``pick_sites`` caches the maximal-element tuple of every
    mask it is asked about; the paths that step through masks use it:
    ``enumerate_states`` and the exact solver, ``run_chain`` (hence
    ``simulate --trace`` and ``coupled_ideal_run``).  Monte Carlo uses
    ``fast_absorption_sample`` instead, which keys nothing by mask, so the
    cache does not grow with the number of replicas.

    The bit-parallel ``maximal_of_mask`` costs about a microsecond, so the
    cache now saves little.  The exact solve asks about each mask once, in
    the enumeration, which keeps the sites in its table; only the residual
    audit asks again, for its 64 states.  The cache stays because
    ``coupled_ideal_run`` reads every state's sites again to count its
    weights, and because the benchmark's tracer reads its hit ratio on the
    ``grid`` workload.  Once that path runs on Kahn counters, the cache
    can go.
    """

    sitewise = True  # ``apply`` deletes its elements one at a time

    def __init__(self, poset: FinitePoset, name: str | None = None):
        self.poset = poset
        self.n = poset.n
        self.name = name or f"ideal-{poset.n}"
        self._maximal: dict[int, tuple[int, ...]] = {}
        self._below = tuple(tuple(c) for c in poset.covers)
        self._parent_counts = [len(s) for s in poset.parents]
        self._top_sites = list(poset.maximal_elements())

    def top(self) -> int:
        return self.poset.full_mask()

    def bottom(self) -> int:
        return 0

    def pick_sites(self, state: int) -> tuple[int, ...]:
        sites = self._maximal.get(state)
        if sites is None:
            sites = self.poset.maximal_of_mask(state)
            self._maximal[state] = sites
        return sites

    def apply(self, state: int, selected: Sequence[int]) -> int:
        for x in selected:
            state &= ~(1 << x)
        return state

    def fast_absorption_sample(self, p: float, rnd) -> int:
        """Steps from the full ideal to the empty one, without masks.

        Kahn counters: ``live[x]`` counts the cover-parents of ``x`` still
        in the ideal, and the frontier (the maximal elements) is the
        ascending list of members with ``live[x] == 0``.  Coins are
        flipped over the frontier in ascending order, as ``run_chain``
        flips them over ``pick_sites``, so both give the same sample from
        the same stream.  Removing ``x`` decrements its covers' counters;
        those that reach 0 join the frontier for the next step, which is
        then sorted again.  A step costs its coins plus the covers of the
        removed elements, and memory is O(|P|).
        """
        below = self._below
        live = self._parent_counts[:]
        frontier = self._top_sites
        left = self.n
        t = 0
        while left:
            t += 1
            kept = []
            exposed = False
            for x in frontier:
                if rnd.random() < p:
                    left -= 1
                    for c in below[x]:
                        live[c] -= 1
                        if not live[c]:
                            kept.append(c)
                            exposed = True
                else:
                    kept.append(x)
            if exposed:
                kept.sort()
            frontier = kept
        return t


class ChainLattice:
    """A chain 0 < 1 < ... < length; absorption is a sum of geometrics."""

    sitewise = True  # at most one site

    def __init__(self, length: int):
        self.length = length
        self.name = f"chain-{length}"

    def top(self) -> int:
        return self.length

    def bottom(self) -> int:
        return 0

    def pick_sites(self, state: int) -> tuple[int, ...]:
        return (state - 1,) if state > 0 else ()

    def apply(self, state: int, selected: Sequence[int]) -> int:
        return state - 1 if selected else state


# -- trajectories --------------------------------------------------------------


@dataclass
class ChainRun:
    """One seeded trajectory.  With ``record``, ``states`` holds the top and
    the state after every step, and ``picks`` the sites each step selected."""

    absorption: int
    states: tuple | None = None
    picks: tuple | None = None


def run_chain(lattice, p: float, rnd, *, record: bool = False) -> ChainRun:
    """Run one trajectory from ``lattice.top()`` to absorption, recording
    its states and picks if ``record``."""
    p = _check_p(p)
    state = lattice.top()
    bottom = lattice.bottom()
    states = [state]
    picks = []
    t = 0
    while state != bottom:
        sites = lattice.pick_sites(state)
        selected = [s for s in sites if rnd.random() < p]
        state = lattice.apply(state, selected)
        t += 1
        if record:
            states.append(state)
            picks.append(tuple(selected))
    if not record:
        return ChainRun(absorption=t)
    return ChainRun(absorption=t, states=tuple(states), picks=tuple(picks))


# -- exact expectations ---------------------------------------------------------


def enumerate_states(lattice, *, cap: int = DEFAULT_STATE_CAP, table=None) -> list:
    """All states reachable downward from the top, each after its targets.

    Iterative depth-first post-order over single-site moves: a state is
    listed once every state one move below it is.  A move of any size
    ends below its state, and a chain of single-site moves reaches every
    state below, so every state comes after each state it can move to,
    and the top comes last.

    Each (state, site) move is applied once.  ``table`` is ``(number,
    at_site, moved, ends)``, an empty dict and three ``array('i')``, the
    last holding ``[0]`` (made here if not given), filled as states are
    listed: ``number`` maps each state to its place in the list, in that
    order; state ``b``'s sites are ``at_site[ends[b] : ends[b + 1]]``, and
    the numbers of its one-site successors are at the same places in
    ``moved``, 8 bytes per site of each state and 4 per state.  A move
    into a state still on the search stack, not yet listed, raises
    :class:`SingularSystem`.
    """
    number, at_site, moved, ends = table or ({}, array("i"), array("i"), array("i", [0]))
    pick, apply = lattice.pick_sites, lattice.apply
    listed = number.get
    top = lattice.top()
    on_stack = {top}  # found, not yet listed
    order = []
    sites = pick(top)
    stack = [(top, sites, iter(sites), array("i"))]
    while stack:
        x, sites, left, succ = stack[-1]
        for s in left:
            y = apply(x, (s,))
            j = listed(y)
            if j is not None:
                succ.append(j)
                continue
            if y in on_stack:
                raise SingularSystem(
                    f"move from state {x!r} reaches {y!r}, not listed before it"
                )
            if len(number) + len(on_stack) >= cap:
                raise StateExplosion(f"state count of {lattice.name} exceeds cap {cap}")
            on_stack.add(y)
            below = pick(y)
            stack.append((y, below, iter(below), array("i")))
            break
        else:
            stack.pop()
            on_stack.discard(x)
            i = number[x] = len(order)
            order.append(x)
            at_site.extend(sites)
            moved.extend(succ)
            ends.append(len(at_site))
            if stack:
                stack[-1][3].append(i)
    return order


def _selections(sites, p: float, q: float,
                sitewise: bool = False) -> list[tuple[int, int, int, float]]:
    """``(rest, lo, hi, weight)`` for every nonempty selection of ``sites``.

    Selections come in increasing bitmask order (bit ``i`` selects
    ``sites[i]``).  Selection ``bitsel`` is the run ``sites[lo : hi + 1]``
    added to the smaller selection ``rest``; ``weight`` is
    ``p^|bitsel| q^(s - |bitsel|)``.  The run is the selection's highest
    run of adjacent sites (``sites[k] == sites[k-1] + 1``), or, with
    ``sitewise``, its highest site alone.  The list depends on ``sites``
    only through its length and, without ``sitewise``, its adjacent pairs.
    """
    s = len(sites)
    weight = [p ** k * q ** (s - k) for k in range(s + 1)]
    plan = []
    for bitsel in range(1, 1 << s):
        hi = lo = bitsel.bit_length() - 1
        while (not sitewise and lo and bitsel >> (lo - 1) & 1
               and sites[lo] == sites[lo - 1] + 1):
            lo -= 1
        plan.append((bitsel & ((1 << lo) - 1), lo, hi, weight[bitsel.bit_count()]))
    return plan


def _transitions(lattice, x, sites, p: float, q: float):
    """``(weight, successor)`` for every nonempty selection of ``sites``,
    in the order of :func:`_selections`.

    The successor of a selection is one ``apply`` of its highest run on the
    successor of the rest.  A block reversal touches only its run's
    positions, so the lower runs' entries and the run's descents survive;
    the other backends act one site at a time in increasing order.  Every
    move is applied afresh, one ``apply`` per selection and runs whole on
    every backend, so the residual audit reads nothing of the solver's
    table.
    """
    succ = [x]
    for rest, lo, hi, w in _selections(sites, p, q):
        y = lattice.apply(succ[rest], sites[lo : hi + 1])
        succ.append(y)
        yield w, y


def _audited(states: list) -> list:
    """64 states spread evenly over ``states``, the first and the last
    (the top) included; all of them when there are at most 64."""
    n = len(states)
    if n <= 64:
        return states
    return [states[k * (n - 1) // 63] for k in range(64)]


def exact_expected_absorption(
    lattice, p: float, *, cap_states: int = DEFAULT_STATE_CAP
) -> dict:
    """Expected steps to the bottom, for every state, by back-substitution.

    ``E(x) (1 - (1-p)^s) = 1 + sum over nonempty selections T of
    p^|T| (1-p)^(s-|T|) E(apply(x, T))``, processed in the order of
    :func:`enumerate_states`, so every right-hand side is already known.

    The enumeration numbers the states in that order, in one dict that is
    returned as the ``{state: E}`` map once the values, held in a list,
    are solved, and fills the table of every state's sites and one-site
    successor numbers; the solve only reads it.  A selection's successor
    number is that of its run, from :func:`_selections`, moved from the
    successor of the rest.  A backend whose ``sitewise`` is true (forests,
    ideals) moves a run as its sites one at a time in increasing order, so
    its runs are single sites; otherwise a longer run is applied each
    time, since block reversals do not compose site by site.  Where the
    run is one site ``t``, the rest's successor is an earlier state whose
    sites above ``t`` are those of ``x``, since lower moves leave them in
    place (a forest's always; an ideal's unless a removal exposes a higher
    element), so ``t`` is found by counting back from the end of that
    state's sites; should it not be there, the move is applied.  An
    applied move's successor must come earlier in the order, or
    :class:`SingularSystem` is raised; table entries do by construction.
    The selections are kept for the call per pattern of adjacent sites, or
    per number of sites where ``sitewise``.  Weights and summation order
    are those of :func:`_transitions`, so the values are the same floats.
    A residual check at 1e-10, on 64 states spread over the order with the
    top among them, re-applies every move of its states.
    """
    p = _check_p(p)
    q = 1.0 - p
    table = number, at_site, moved, ends = {}, array("i"), array("i"), array("i", [0])
    states = enumerate_states(lattice, cap=cap_states, table=table)
    apply = lattice.apply
    sitewise = lattice.sitewise
    bottom = lattice.bottom()
    values = [0.0] * len(states)
    plans: dict = {}  # by the adjacent pairs of the sites, or their count

    def earlier(y, base: int) -> int:
        j = number[y]
        if j >= base:
            raise SingularSystem(
                f"move from state {states[base]!r} reaches {y!r}, not listed before it"
            )
        return j

    for i, x in enumerate(states):
        if x == bottom:
            continue
        sites = at_site[ends[i] : ends[i + 1]]
        s = len(sites)
        if s == 0:
            raise SingularSystem(f"non-bottom state {x!r} has no covers")
        if s > _SUBSET_ENUM_CAP:
            raise StateExplosion(f"state has {s} covers; subset enumeration refused")
        stay = q**s
        if stay >= 1.0:
            raise SingularSystem("staying probability reached 1; p too small")
        key = s if sitewise else tuple([b - a == 1 for a, b in zip(sites, sites[1:])])
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _selections(sites, p, q, sitewise)
        acc = 1.0
        succ = [i]
        for rest, lo, hi, w in plan:
            base = succ[rest]
            if lo == hi:
                k = ends[base + 1] - s + hi
                if k >= ends[base] and at_site[k] == sites[hi]:
                    j = moved[k]
                else:
                    j = earlier(apply(states[base], (sites[hi],)), base)
            else:
                j = earlier(apply(states[base], sites[lo : hi + 1]), base)
            succ.append(j)
            acc += w * values[j]
        values[i] = acc / (1.0 - stay)
    expect = number  # the numbering dict becomes the map, in the same order
    for x, e in zip(states, values):
        expect[x] = e
    # residual audit on the defining equations
    pick = lattice.pick_sites
    for x in _audited(states):
        if x == bottom:
            continue
        sites = pick(x)
        rhs = 1.0 + (q ** len(sites)) * expect[x]
        for w, y in _transitions(lattice, x, sites, p, q):
            rhs += w * expect[y]
        if abs(expect[x] - rhs) > 1e-10 * max(1.0, abs(expect[x])):
            raise SingularSystem(f"residual {abs(expect[x] - rhs)} at state {x!r}")
    return expect


def expected_absorption_time(lattice, p: float, **kw) -> float:
    """Expected steps from the top to the bottom."""
    return exact_expected_absorption(lattice, p, **kw)[lattice.top()]


# -- Monte Carlo ----------------------------------------------------------------


def sample_sd(samples: np.ndarray) -> float:
    """Sample standard deviation (``ddof=1``); ``inf`` below two samples."""
    return float(samples.std(ddof=1)) if len(samples) > 1 else math.inf


@dataclass
class McResult:
    mean: float
    stderr: float
    reps: int
    minimum: int
    maximum: int
    samples: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McResult":
        """Mean, standard error, min and max; ``stderr`` is ``inf`` for one
        sample."""
        reps = len(samples)
        return cls(
            mean=float(samples.mean()),
            stderr=sample_sd(samples) / math.sqrt(reps),
            reps=reps,
            minimum=int(samples.min()),
            maximum=int(samples.max()),
            samples=samples,
        )


def monte_carlo_expectation(lattice, p: float, *, reps: int, seed: int) -> McResult:
    """Absorption-time mean over independent seeded replicas, each from the top.

    Replica ``r`` draws from the stream derived with spawn key
    ``(replica, r)``, so results are reproducible given ``(seed, reps)``
    and invariant to execution order.  A backend's
    ``fast_absorption_sample`` replaces the generic ``run_chain`` loop:
    ``TamariForestLattice`` steps a mutable forest, ``IdealLattice`` keeps
    Kahn counters over the poset.  Either gives the sample ``run_chain``
    would give from the same stream.
    """
    p = _check_p(p)
    if reps < 1:
        raise DomainError("reps must be >= 1")
    fast = getattr(lattice, "fast_absorption_sample", None)
    samples = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        rnd = replica_random(seed, r)
        if fast is not None:
            samples[r] = fast(p, rnd)
        else:
            samples[r] = run_chain(lattice, p, rnd).absorption
    return McResult.from_samples(samples)


def empirical_survival(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(t, P(sample >= t))`` for non-negative integer samples, up to
    one past the largest; the tail counts are exact, so each value is
    ``(samples >= t).mean()``."""
    samples = np.asarray(samples)
    ts = np.arange(0, samples.max() + 2)
    tails = np.bincount(samples, minlength=len(ts))[::-1].cumsum()[::-1]
    return ts, tails / len(samples)


def _sort_runs(word: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """One Ungarian step on every row: each run of selected descents is a
    decreasing factor, and the meet reverses it, which sorts it.

    Column ``j`` lies in block ``#unselected pairs left of j``, so a block is
    one selected run or one unselected column; sorting each row by
    ``(block, value)`` sorts every run and leaves every other entry in place.
    """
    n = word.shape[1]
    block = np.zeros(word.shape, dtype=np.int64)
    np.cumsum(~sel, axis=1, out=block[:, 1:])
    return np.sort(block * (n + 1) + word, axis=1) % (n + 1)


def sn_absorption_samples(n: int, p: float, reps: int, seed: int) -> np.ndarray:
    """Vectorized S_n sampler (all replicas stepped in lockstep).

    Every step draws one ``(reps, n - 1)`` uniform array, selects each
    descent below ``p`` and sorts each selected run (``_sort_runs``).  Same
    chain as the scalar path, used where 1e5 x n is uncomfortable in pure
    Python.
    """
    p = _check_p(p)
    rng = replica_generator(seed, 0)
    word = np.tile(np.arange(n, 0, -1, dtype=np.int64), (reps, 1))
    identity = np.arange(1, n + 1, dtype=np.int64)
    absorbed = np.zeros(reps, dtype=np.int64)
    done = (word == identity).all(axis=1)
    t = 0
    while not done.all():
        t += 1
        desc = word[:, :-1] > word[:, 1:]
        word = _sort_runs(word, desc & (rng.random((reps, n - 1)) < p))
        now_done = (word == identity).all(axis=1)
        absorbed[~done & now_done] = t
        done |= now_done
    return absorbed


# -- geometric variables ---------------------------------------------------------


def geometric_tail_bound(k: int, p: float, t: float, side: str = "upper") -> float:
    """Tail bounds for a sum of ``k`` independent geometric(p) variables.

    Upper:  P(sum > k/p + t sqrt(k/p^3)) <= exp(-t^2 / (2p + 2t sqrt(p/k)))
    Lower:  P(sum < k/p - t sqrt(k/p^3)) <= exp(-t^2 / (2p - t sqrt(p/k)))

    The lower-tail form requires ``t sqrt(p/k) < 2p``.
    """
    p = _check_p(p)
    if k < 1:
        raise DomainError("k must be >= 1")
    if t <= 0:
        raise DomainError("t must be positive")
    drift = t * math.sqrt(p / k)
    if side == "upper":
        return math.exp(-t * t / (2 * p + 2 * drift))
    if side == "lower":
        denom = 2 * p - drift
        if denom <= 0:
            raise DomainError(f"lower tail needs t*sqrt(p/k) < 2p, got drift {drift}")
        return math.exp(-t * t / denom)
    raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")


# -- random-walk hitting times ----------------------------------------------------


def first_passage_counts(m: int, horizon: int, reps: int, seed: int) -> np.ndarray:
    """Vectorized histogram: ``out[t]`` counts simple walks with hitting time t.

    ``out`` has length ``horizon + 1``; index 0 counts walks that had not
    hit ``m`` by the horizon (censored).
    """
    rng = replica_generator(seed, 0)
    out = np.zeros(horizon + 1, dtype=np.int64)
    chunk = max(1, min(reps, 2_000_000 // max(1, horizon)))
    left = reps
    while left > 0:
        b = min(chunk, left)
        left -= b
        steps = np.where(rng.random((b, horizon)) < 0.5, 1, -1).astype(np.int32)
        walk = steps.cumsum(axis=1)
        hit = walk == m
        any_hit = hit.any(axis=1)
        first = hit.argmax(axis=1) + 1
        np.add.at(out, np.where(any_hit, first, 0), 1)
    return out
