"""Skyline arrays, the damped linear lower-bound function, and the
multi-stream forest-chain simulator.

The instrumentation works off the first-operation times ``g_i`` (i.i.d.
geometric(p) however the chain is simulated).  The *skyline* walks the
suffix maxima of ``g_2..g_n``: its label row records where the running
maximum over shrinking prefixes ``[2, a_{i-1}-1]`` last occurs, ending at
label 2.  An array is *childlike* when ``g_1`` beats the whole skyline
(then the skyline labels all become children of vertex 1 before vertex 1
first fires); the *summary* subsamples the label row by factors of
``log n``; a childlike array is *good* when its summary starts at least
at ``n / log n`` and ends at most at ``(log n)^3``.  Goodness pins the
summary length between ``log n/log log n - 3`` and
``2 log n/log log n + 2``.

``algorithm1_run`` simulates the forest chain from the maximal element
using seven named Bernoulli(p) streams.  Every vertex consults exactly
one fresh ``(stream, label, step)`` triple per step (full mode checks
this on every step), so each vertex is operated on with independent
probability ``p`` and the run is a faithful simulation of the chain; the
stream *names* encode which geometry the proof wants to read off.  On a
childlike run the diagnostic ``t`` (``Algorithm1Result.t_disconnect``)
lists, for each skyline label ``a_2, ..., a_l``, the step at which that
label left vertex 1's tree, minus ``g_1 - 1``.  The landmark indices
``2*ceil(201 loglog n)`` and ``2*ceil(201 (loglog n)^3)`` as written only
exist for astronomically large ``n``; when the summary is too short the
run falls back to the plain S-stream rule and is flagged ``degenerate``.
The landmark constant and a conditional pin of the ``g`` values are
exposed as keyword hooks so the deep branches are exercisable in tests at
feasible sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import _check_p
from .errors import BoundViolation, DomainError, InvariantViolation, NotReached
from .rng import StreamBank, replica_generator
from .tamari import SimForest

__all__ = [
    "TwoRowedArray",
    "skyline",
    "is_childlike",
    "summarize",
    "summary_columns",
    "is_good",
    "summary_length_bounds",
    "good_array_length_bounds",
    "lower_bound_f",
    "event_interval",
    "event_array",
    "event_interval_probability",
    "sample_g",
    "sample_g_conditional",
    "good_frequency",
    "Algorithm1Result",
    "algorithm1_run",
]


@dataclass(frozen=True)
class TwoRowedArray:
    """Top row of labels, bottom row of first-operation times."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise ValueError("rows must have equal length")

    def __len__(self) -> int:
        return len(self.top)

    def as_lists(self) -> list[list[int]]:
        return [list(self.top), list(self.bottom)]


def skyline(values: Sequence[int]) -> TwoRowedArray:
    """Suffix-maxima skyline of ``[1..m ; c_1..c_m]``.

    Column 1 is ``(1, c_1)``.  The next label is the largest position in
    ``[2, m]`` achieving the maximum there; thereafter the window shrinks
    to ``[2, previous label - 1]``, and the walk stops once label 2 is
    emitted.  Bottom entries are the values at the chosen labels, weakly
    decreasing from column 2 on by construction.
    """
    c = tuple(int(v) for v in values)
    m = len(c)
    if m < 2:
        raise ValueError("skyline needs at least two values")
    # last argmax of c[2..j] for every prefix end j
    last_argmax = [0] * (m + 1)
    best = None
    besti = 0
    for j in range(2, m + 1):
        if best is None or c[j - 1] >= best:
            best = c[j - 1]
            besti = j
        last_argmax[j] = besti
    top = [1]
    cur = m
    while True:
        a = last_argmax[cur]
        top.append(a)
        if a == 2:
            break
        cur = a - 1
    return TwoRowedArray(tuple(top), tuple(c[a - 1] for a in top))


def is_childlike(arr: TwoRowedArray, n: int) -> bool:
    """All entries in ``[n]``; labels ``1, a_2 > ... > a_l = 2``;
    times ``b_1 > b_2 >= b_3 >= ...``."""
    top, bot = arr.top, arr.bottom
    if len(top) < 2 or top[0] != 1 or top[-1] != 2:
        return False
    if any(not 1 <= v <= n for v in top) or any(not 1 <= v <= n for v in bot):
        return False
    if any(top[i] <= top[i + 1] for i in range(1, len(top) - 1)):
        return False
    if not bot[0] > bot[1]:
        return False
    return all(bot[i] >= bot[i + 1] for i in range(1, len(bot) - 1))


def _summary_selection(seq: Sequence[int], n: int) -> list[int]:
    """Positions (0-based) of the summary of a decreasing sequence.

    Start at the first element; repeatedly pick the smallest value at
    least ``previous / log n`` among elements strictly after the previous
    pick (earliest position on ties), stopping when none qualifies.
    """
    if not seq:
        return []
    k = math.log(n)
    sel = [0]
    while True:
        threshold = seq[sel[-1]] / k
        best = None
        for pos in range(sel[-1] + 1, len(seq)):
            if seq[pos] >= threshold and (best is None or seq[pos] < seq[best]):
                best = pos
        if best is None:
            return sel
        sel.append(best)


def summary_columns(arr: TwoRowedArray, n: int) -> tuple[int, ...]:
    """Skyline column indices ``i_1, ..., i_l'`` selected by the summary.

    Indices are 1-based into the skyline columns, so ``i_1 = 2``.
    """
    return tuple(2 + pos for pos in _summary_selection(arr.top[1:], n))


def summarize(arr: TwoRowedArray, n: int) -> TwoRowedArray:
    """The summary sub-array: column 1, then the selected columns."""
    cols = (1,) + summary_columns(arr, n)
    return TwoRowedArray(
        tuple(arr.top[k - 1] for k in cols),
        tuple(arr.bottom[k - 1] for k in cols),
    )


def is_good(arr: TwoRowedArray, n: int) -> bool:
    """Childlike with summary endpoints ``a_{i_1} >= n/log n`` and
    ``a_{i_l'} <= (log n)^3``."""
    if not is_childlike(arr, n):
        return False
    cols = summary_columns(arr, n)
    k = math.log(n)
    return arr.top[cols[0] - 1] >= n / k and arr.top[cols[-1] - 1] <= k**3


def summary_length_bounds(n: float) -> tuple[float, float]:
    """Bounds on the summary length of a good array.

    ``log n / log log n - 3 <= l' <= 2 log n / log log n + 2``; pure
    algebra from the geometric decay of the summary, valid whenever
    ``log log n > 0``.
    """
    if n <= 3 or math.log(math.log(n)) <= 0:
        raise DomainError(f"length bounds need log log n > 0, got n={n}")
    ratio = math.log(n) / math.log(math.log(n))
    return ratio - 3, 2 * ratio + 2


def good_array_length_bounds(summary: TwoRowedArray, n: int) -> tuple[float, float]:
    """Check a good array's summary length against both bounds.

    ``summary`` includes the prepended first column, so the summary
    length is ``len(summary) - 1``.  Raises :class:`BoundViolation` if
    either bound fails (that means the array was not actually good, or
    there is a bug upstream).
    """
    lo, hi = summary_length_bounds(n)
    lprime = len(summary) - 1
    if not lo <= lprime <= hi:
        raise BoundViolation(
            f"summary length {lprime} outside [{lo:.3f}, {hi:.3f}] at n={n}"
        )
    return lo, hi


def lower_bound_f(x: float, p: float, c1: float = 10.0) -> float:
    """Superpolylog-damped linear lower-bound function.

    ``f(x) = max(1, x exp(-p^8 exp(c1/p^2) (log log x)^4))`` for
    ``x >= 16`` and 1 below.  Continuity at 16, ``f(x)/x`` nonincreasing,
    and subadditivity are guaranteed once the constant is large enough
    that the formula branch stays at most 1 at ``x = 16`` (any ``c1 >=
    10`` works for every ``p``); smaller constants are accepted but then
    carry no such guarantees.  The damping factor is compared in log
    space so small ``p`` cannot overflow.
    """
    x = float(x)
    if x < 1:
        raise DomainError(f"f needs x >= 1, got {x}")
    p = _check_p(p)
    if x < 16:
        return 1.0
    logx = math.log(x)
    log_damp = 8 * math.log(p) + c1 / p**2 + 4 * math.log(math.log(logx))
    if log_damp >= math.log(logx):
        return 1.0
    return max(1.0, math.exp(logx - math.exp(log_damp)))


# -- events over the first-operation times -------------------------------------


def event_interval(g: Sequence[int], i: int, j: int, m: int) -> bool:
    """True iff ``g_i = m`` and ``g_l < m`` for all ``l`` in ``[i+1, j]``."""
    g = tuple(g)
    if not 1 <= i <= j <= len(g):
        raise ValueError(f"interval [{i}, {j}] out of range for n={len(g)}")
    return g[i - 1] == m and all(g[l - 1] < m for l in range(i + 1, j + 1))


def event_array(g: Sequence[int], arr: TwoRowedArray) -> bool:
    """True iff the skyline of ``g`` equals ``arr``."""
    return skyline(g) == arr


def event_interval_probability(n: int, m: int, p: float, i: int = 1, j: int | None = None) -> float:
    """Closed form ``q^{m-1} p (1 - q^{m-1})^{j-i}`` by independence."""
    p = _check_p(p)
    if j is None:
        j = n
    q = 1 - p
    return q ** (m - 1) * p * (1 - q ** (m - 1)) ** (j - i)


def sample_g(n: int, p: float, rng) -> np.ndarray:
    """Unconditioned first-operation times: n i.i.d. geometric(p)."""
    return rng.geometric(p, size=n).astype(np.int64)


def sample_g_conditional(n: int, p: float, m: int, rng) -> np.ndarray:
    """First-operation times conditioned on ``g_1 = m`` and ``g_l < m``.

    The conditioned coordinates are geometric(p) truncated to
    ``[1, m-1]``, sampled by inverse CDF.
    """
    p = _check_p(p)
    if m < 2:
        raise DomainError("conditioning needs m >= 2 so that g_l < m is possible")
    if p == 1.0:
        raise DomainError("p = 1 forces every g to 1; the event has probability 0")
    q = 1 - p
    u = rng.random(n - 1)
    cap = 1 - q ** (m - 1)
    g_rest = np.ceil(np.log1p(-u * cap) / math.log(q)).astype(np.int64)
    g_rest = np.clip(g_rest, 1, m - 1)
    return np.concatenate([[m], g_rest])


def good_frequency(
    n: int, p: float, m: int, reps: int, seed: int
) -> tuple[float, float]:
    """Empirical goodness probability given the vertex-1 extremal event.

    Samples ``g`` conditioned on ``g_1 = m > g_l`` directly (no chain
    needed: the skyline depends only on ``g``) and reports the frequency
    of good skylines with its standard error.
    """
    rng = replica_generator(seed, 0)
    hits = 0
    for _ in range(reps):
        g = sample_g_conditional(n, p, m, rng)
        if is_good(skyline(g), n):
            hits += 1
    freq = hits / reps
    return freq, math.sqrt(freq * (1 - freq) / reps)


# -- the multi-stream simulator ---------------------------------------------------


@dataclass
class Algorithm1Result:
    """Diagnostics of one multi-stream run."""

    n: int
    p: float
    seed: int
    g: tuple[int, ...]
    skyline: TwoRowedArray
    childlike: bool
    summary: TwoRowedArray | None
    good: bool
    degenerate: bool
    mode: str
    t_disconnect: tuple[int, ...] | None
    absorption: int
    op_counts: np.ndarray
    steps: int

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "p": self.p,
            "g": list(self.g),
            "skyline": self.skyline.as_lists(),
            "summary": self.summary.as_lists() if self.summary else None,
            "good": self.good,
            "degenerate": self.degenerate,
            "t": list(self.t_disconnect) if self.t_disconnect else None,
            "absorption": self.absorption,
        }


class _Phase2:
    """The skyline of ``g`` and, in full mode, the routing tables.

    Built once, when every vertex has fired (or at absorption).
    ``column`` gives the bits of a full-mode step; ``left1[v]`` is the step
    at which label ``v`` left vertex 1's tree, 0 while it is still there.
    """

    def __init__(self, g: list[int], n: int, landmark_constant: float):
        self.skyline = skl = skyline(g[1:])
        self.childlike = is_childlike(skl, n)
        self.summary = summarize(skl, n) if self.childlike else None
        self.good = self.childlike and is_good(skl, n)
        loglog = math.log(math.log(n)) if n > 2 else float("-inf")
        K1 = 2 * math.ceil(landmark_constant * loglog) if loglog > 0 else 0
        K2 = 2 * math.ceil(landmark_constant * loglog**3) if loglog > 0 else 0
        sumsel = summary_columns(skl, n) if self.childlike else ()
        full = self.good and K1 >= 2 and K2 >= K1 + 2 and len(sumsel) >= K2
        self.degenerate = bool(self.good and not full)
        self.mode = "full" if full else "plain"
        if not full:
            return
        a = skl.top
        iK1, iK2 = sumsel[K1 - 1], sumsel[K2 - 1]
        evens = range(K1 + 2, K2 + 1, 2)
        # vertex 1's pair, indexed by its smallest skyline column i still in
        # its tree minus 2 (the last entry: no column is); D' is keyed by the
        # even landmark window [i_{j-2} + 1, i_j] holding i
        self.first = [
            ("D", i) if i <= iK1
            else ("Dp", next(j for j in evens if i <= sumsel[j - 1])) if i <= iK2
            else ("Ddag", 1)
            for i in range(2, len(a) + 2)
        ]
        # landmark windows [a_{i_j}, a_{i_{j-2}} - 1] of the summary, even j
        self.windows = [(j, a[sumsel[j - 1] - 1], a[sumsel[j - 3] - 1] - 1) for j in evens]
        # skyline label a_j, 3 <= j <= i_{K1}, reads B' once a_{j-1} leaves
        self.b_prime_after = [0] * (n + 1)
        for j in range(3, iK1 + 1):
            self.b_prime_after[a[j - 1]] = a[j - 2]

    def column(self, sim: SimForest, left1: list[int], draw, t: int) -> np.ndarray:
        """The full-mode bits of step ``t``, vertex ``v`` at index ``v - 1``,
        as a fresh array; raises :class:`InvariantViolation` unless the
        step's ``n`` triples are distinct."""
        labels = range(1, sim.n + 1)
        on_bp = [left1[u] > 0 for u in self.b_prime_after[1:]]
        col = np.where(on_bp, draw("Bp", labels, t), draw("B", labels, t))
        skl = self.skyline.top[1:]
        k = next((k for k, v in enumerate(skl) if not left1[v]), len(skl))
        keys = {1: self.first[k]}
        # each landmark window routes its largest rooted non-leaf to C
        for j, lo, hi in self.windows:
            for v in range(hi - 1, lo - 1, -1):
                if sim.last_child[v] and sim.parent[v] < lo:
                    keys[v] = ("C", j)
                    break
        for v, (stream, key) in keys.items():
            col[v - 1] = draw(stream, key, t)
        triples = {keys.get(v) or ("Bp" if on_bp[v - 1] else "B", v) for v in labels}
        if len(triples) != sim.n:
            raise InvariantViolation(
                f"step {t} consulted {len(triples)} distinct triples for {sim.n} vertices")
        return col


def algorithm1_run(
    n: int,
    p: float,
    seed: int,
    *,
    landmark_constant: float = 201.0,
    force_g: Mapping[int, int] | None = None,
) -> Algorithm1Result:
    """Simulate the forest chain from the path using named streams.

    Phase 1 (some vertex has not fired): a vertex consults its S stream
    until its first success at step ``g_i`` and its B stream afterwards.
    Once every vertex has fired, the skyline of ``g`` is computed; if it
    is not good (or the landmark summary indices do not exist, the
    ``degenerate`` case) every vertex consults its S stream.  Otherwise
    vertex 1 consults D keyed by the smallest skyline index still in its
    tree (D' keyed by the even landmark window past the first block, and
    a single fallback stream beyond), each landmark window of summary
    labels routes its largest rooted non-leaf to the window's C stream,
    and each skyline label ``a_j`` switches from B to B' once vertex 1
    loses ``a_{j-1}``; all remaining labels stay on B.

    Each step builds one column of bits, one per vertex, and operates in
    label order on each vertex it selects that is a non-leaf (a leaf's
    operation is a no-op, and leaves stay leaves).  Phase 1 and plain mode
    read one ``range`` of labels per stream, so their triples are distinct
    by construction.  Full mode starts from the B column, takes B' where
    it applies, writes in the scalar D/D'/D† and C bits, and raises
    :class:`InvariantViolation` unless the step's ``n`` triples are distinct.

    ``g_i`` is the first success of ``S_i``, also for a vertex that has
    not fired when the chain is absorbed.

    ``force_g`` pins ``S_{i,t}`` to ``t == force_g[i]`` for ``t <=
    force_g[i]`` (the standard conditional replay of the extremal event);
    ``landmark_constant`` rescales the written constant 201 so the deep
    branches can be reached at test sizes.  Both default to the verbatim
    behavior.  A run still unabsorbed after 10^9 steps raises
    :class:`NotReached`.
    """
    p = _check_p(p)
    if n < 2:
        raise DomainError("need n >= 2")
    bank = StreamBank(seed, p)
    draw = bank.bernoulli
    labels = range(1, n + 1)
    pinned = np.array([force_g.get(v, 0) for v in labels]) if force_g else None
    sim = SimForest.path(n)
    g = [0] * (n + 1)
    unfired = n
    fired = np.zeros(n, dtype=np.uint8)
    left1 = [0] * (n + 1)
    op_counts = np.zeros(n + 1, dtype=np.int64)
    phase2 = None
    t = 0
    while not sim.absorbed():
        t += 1
        if t > 10**9:
            raise NotReached("no absorption within 10**9 steps")
        if phase2 is None and not unfired:
            phase2 = _Phase2(g, n, landmark_constant)
        if phase2 is None:
            if pinned is not None:
                # a pinned vertex fires at its pin, so S is read only if some vertex is free
                col = pinned == t
                if not pinned.all():
                    col = np.where(t <= pinned, col, draw("S", labels, t))
            else:
                col = draw("S", labels, t)
            newly = np.flatnonzero(col > fired)
            if unfired < n:
                col = np.where(fired, draw("B", labels, t), col)
            fired[newly] = 1
            unfired -= newly.size
            for i in newly.tolist():
                g[i + 1] = t
        elif phase2.mode == "plain":
            col = draw("S", labels, t)
        else:
            col = phase2.column(sim, left1, draw, t)
        op_counts[1:] += col
        selected = col.tobytes()
        for v in sim.non_leaves():
            if selected[v - 1]:
                c = sim.operate(v)
                if v == 1 and c:
                    # trees only split: labels [c, c + size) leave for good
                    left1[c : c + sim.size[c]] = [t] * sim.size[c]

    if phase2 is None:
        # absorbed before every vertex fired: g_v of the rest is still the
        # first success of S_v, as if the chain had run on
        for v in labels:
            if not g[v]:
                g[v] = (force_g or {}).get(v) or bank.first_success("S", v)
        phase2 = _Phase2(g, n, landmark_constant)
    t_disc = None
    if phase2.childlike:
        t_disc = tuple(left1[v] - (g[1] - 1) for v in phase2.skyline.top[1:])
    return Algorithm1Result(
        n=n,
        p=p,
        seed=seed,
        g=tuple(g[1:]),
        skyline=phase2.skyline,
        childlike=phase2.childlike,
        summary=phase2.summary,
        good=phase2.good,
        degenerate=phase2.degenerate,
        mode=phase2.mode,
        t_disconnect=t_disc,
        absorption=t,
        op_counts=op_counts,
        steps=t,
    )
