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
one fresh ``(stream, label, step)`` triple per step, so each vertex is
operated on with independent probability ``p`` and the run is a faithful
simulation of the chain; the stream *names* encode which geometry the
proof wants to read off.  The landmark indices ``2*ceil(201 loglog n)``
and ``2*ceil(201 (loglog n)^3)`` as written only exist for astronomically
large ``n``; when the summary is too short the run falls back to the
plain S-stream rule and is flagged ``degenerate``.  The landmark constant
and a conditional pin of the ``g`` values are exposed as keyword hooks so
the deep branches are exercisable in tests at feasible sizes.
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

    def column(self, k: int) -> tuple[int, int]:
        """1-based column access."""
        return self.top[k - 1], self.bottom[k - 1]

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
    if top[1] > n:
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
    return freq, math.sqrt(max(freq * (1 - freq), 1e-300) / reps)


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
    audit_ok: bool | None

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


def algorithm1_run(
    n: int,
    p: float,
    seed: int,
    *,
    landmark_constant: float = 201.0,
    force_g: Mapping[int, int] | None = None,
    audit: bool = False,
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
    forced = dict(force_g) if force_g else {}

    def s_bit(i: int, t: int) -> bool:
        gi = forced.get(i)
        if gi is not None and t <= gi:
            return t == gi
        return bank.bernoulli("S", i, t)

    sim = SimForest.path(n)
    g = [0] * (n + 1)
    unfired = n
    op_counts = np.zeros(n + 1, dtype=np.int64)
    detach_events: list[tuple[int, int, int]] = []  # (step, lo_label, hi_label)
    t = 0
    phase2 = None
    audit_ok = True if audit else None

    # -- phase-2 branch tables, built once all g are known --------------------
    def setup_phase2() -> dict:
        skl = skyline(g[1:])
        childlike = is_childlike(skl, n)
        summ = summarize(skl, n) if childlike else None
        good = childlike and is_good(skl, n)
        loglog = math.log(math.log(n)) if n > 2 else float("-inf")
        K1 = 2 * math.ceil(landmark_constant * loglog) if loglog > 0 else 0
        K2 = 2 * math.ceil(landmark_constant * loglog**3) if loglog > 0 else 0
        sumsel = summary_columns(skl, n) if childlike else ()
        lprime = len(sumsel)
        full_ok = good and K1 >= 2 and K2 >= K1 + 2 and lprime >= K2
        info = {
            "skl": skl,
            "childlike": childlike,
            "summary": summ,
            "good": good,
            "degenerate": bool(good and not full_ok),
            "mode": "full" if full_ok else "plain",
            "l": len(skl),
            # per-skyline-column connectivity of vertex 1 (cols 2..l)
            "connected": [True] * (len(skl) + 1),
            "disc_step": [0] * (len(skl) + 1),
            "ptr": 2,
            "peak_labels": skl.top[1:],
        }
        if info["mode"] == "full":
            a = skl.top
            iK1, iK2 = sumsel[K1 - 1], sumsel[K2 - 1]
            lbl_K1, lbl_K2 = a[iK1 - 1], a[iK2 - 1]
            # landmark windows [a_{i_j}, a_{i_{j-2}} - 1] for even j
            wmap_sum = {}
            sum_windows = []
            for j in range(K1 + 2, K2 + 1, 2):
                lo = a[sumsel[j - 1] - 1]
                hi = a[sumsel[j - 3] - 1] - 1
                sum_windows.append((j, lo, hi))
                for v in range(lo, hi + 1):
                    wmap_sum[v] = j
            # skyline windows [a_j, a_{j-1} - 1], j in [2, iK1]; j=2 gets [a_2, n]
            wmap_sky = {}
            for j in range(2, iK1 + 1):
                lo = a[j - 1]
                hi = n if j == 2 else a[j - 2] - 1
                for v in range(lo, hi + 1):
                    wmap_sky[v] = j
            info.update(
                iK1=iK1,
                iK2=iK2,
                lbl_K1=lbl_K1,
                lbl_K2=lbl_K2,
                sumsel=sumsel,
                dp_windows=tuple(range(K1 + 2, K2 + 1, 2)),
                wmap_sum=wmap_sum,
                sum_windows=sum_windows,
                wmap_sky=wmap_sky,
            )
        # replay detachments that happened before the skyline existed
        for step, lo, hi in detach_events:
            _mark_disconnect(info, step, lo, hi)
        return info

    def _mark_disconnect(info: dict, step: int, lo: int, hi: int) -> None:
        labels = info["peak_labels"]
        for col in range(2, info["l"] + 1):
            v = labels[col - 2]
            if lo <= v <= hi and info["connected"][col]:
                info["connected"][col] = False
                info["disc_step"][col] = step

    # -- main loop --------------------------------------------------------------
    while not sim.absorbed():
        t += 1
        if t > 10**9:
            raise NotReached("no absorption within 10**9 steps")
        consults: list[tuple[str, int]] = []
        selected: list[int] = []
        if unfired > 0:
            for i in range(1, n + 1):
                if g[i] == 0:
                    bit = s_bit(i, t)
                    if audit:
                        consults.append(("S", i))
                    if bit:
                        g[i] = t
                        unfired -= 1
                else:
                    bit = bank.bernoulli("B", i, t)
                    if audit:
                        consults.append(("B", i))
                if bit:
                    selected.append(i)
        else:
            if phase2 is None:
                phase2 = setup_phase2()
            if phase2["mode"] == "plain":
                for i in range(1, n + 1):
                    bit = s_bit(i, t)
                    if audit:
                        consults.append(("S", i))
                    if bit:
                        selected.append(i)
            else:
                info = phase2
                # vertex 1: keyed by the smallest connected skyline index
                while info["ptr"] <= info["l"] and not info["connected"][info["ptr"]]:
                    info["ptr"] += 1
                i = info["ptr"] if info["ptr"] <= info["l"] else None
                if i is not None and i <= info["iK1"]:
                    stream, key = "D", i
                elif i is not None and i <= info["iK2"]:
                    # smallest even landmark window [i_{j-2}+1, i_j] holding i
                    stream, key = "Dp", None
                    for j in info["dp_windows"]:
                        if i <= info["sumsel"][j - 1]:
                            key = j
                            break
                    if key is None:
                        raise InvariantViolation("landmark windows failed to cover")
                else:
                    stream, key = "Ddag", 1
                bit = bank.bernoulli(stream, key, t)
                if audit:
                    consults.append((stream, key))
                if bit:
                    selected.append(1)
                # per-window C vertices, recomputed each step
                c_vertex = {}
                for j, lo, hi in info["sum_windows"]:
                    for v in range(hi - 1, lo - 1, -1):
                        if sim.first_child[v] and sim.parent[v] < lo:
                            c_vertex[j] = v
                            break
                for v in range(2, n + 1):
                    if v < info["lbl_K2"]:
                        stream, key = "B", v
                    elif v < info["lbl_K1"]:
                        j = info["wmap_sum"][v]
                        if c_vertex.get(j) == v:
                            stream, key = "C", j
                        else:
                            stream, key = "B", v
                    else:
                        j = info["wmap_sky"][v]
                        if v != info["skl"].top[j - 1]:
                            stream, key = "B", v
                        elif j == 2 or info["connected"][j - 1]:
                            stream, key = "B", v
                        else:
                            stream, key = "Bp", v
                    bit = bank.bernoulli(stream, key, t)
                    if audit:
                        consults.append((stream, key))
                    if bit:
                        selected.append(v)
        if audit:
            if len(consults) != n or len(set(consults)) != n:
                audit_ok = False
                raise InvariantViolation(
                    f"step {t} consulted {len(set(consults))} distinct triples "
                    f"for {n} vertices"
                )
        for v in selected:
            op_counts[v] += 1
            if v == 1 and sim.first_child[1]:
                c = sim.last_child[1]
                hi = c + sim.size[c] - 1
                sim.operate(1)
                if phase2 is not None:
                    _mark_disconnect(phase2, t, c, hi)
                else:
                    detach_events.append((t, c, hi))
            else:
                sim.operate(v)

    if phase2 is None:
        phase2 = setup_phase2()
    t_disc = None
    if phase2["childlike"]:
        g1 = g[1]
        t_disc = tuple(
            phase2["disc_step"][col] - (g1 - 1) for col in range(2, phase2["l"] + 1)
        )
    return Algorithm1Result(
        n=n,
        p=p,
        seed=seed,
        g=tuple(g[1:]),
        skyline=phase2["skl"],
        childlike=phase2["childlike"],
        summary=phase2["summary"],
        good=phase2["good"],
        degenerate=phase2["degenerate"],
        mode=phase2["mode"],
        t_disconnect=t_disc,
        absorption=t,
        op_counts=op_counts,
        steps=t,
        audit_ok=audit_ok,
    )
