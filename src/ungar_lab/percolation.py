"""Last-passage percolation with geometric weights, and its chain coupling.

Running the ideal chain on ``J(P)`` from the full ideal and counting, for
each element ``x``, the number of steps during which ``x`` was maximal
yields independent geometric(p) weights ``G_x``, and the absorption time
equals ``max over maximal chains C of sum_{x in C} G_x`` on every single
run, not merely in distribution.  :func:`coupled_ideal_run` performs the
run, extracts the weights, and asserts that identity; a failure raises
:class:`CouplingViolation` and means the engine is broken.

For one run the passage value is one dynamic-programming sweep in
topological order (chain enumeration would be exponential); the explicit
maximal-chain oracle lives in the tests.  The samplers sweep a block of
replicas at once, level by level (a poset's elements by depth, a grid's
anti-diagonals): each element's row, one entry per replica, gains the
largest row among its covers.

On the grid ``R_{n,m}`` the same chain is the multicorner growth TASEP
seen through complements: the complement of the ideal, rows reversed, is
a Young diagram, and deleting maximal ideal elements is adding external
corners.  :func:`tasep_absorption_samples` grows the diagram directly,
clipped to the ``n x m`` window; growth outside the window never
influences the clipped process.  The scalar reference that grows one
diagram a coin at a time lives in the tests, which check that property by
replaying coupled randomness with a larger window.

Fluctuation constants for the rescaled limit and the upper-tail
asymptotic of the limiting distribution are provided as plain formulas;
the full limiting CDF is out of scope.

The chance that the maximum of ``n`` geometric(p) variables is unique
does not converge as ``n`` grows: it approaches the bilateral series
:func:`upsilon` at ``x = n``, which oscillates.  The series is periodic
in ``log x`` and is summed as its Fourier series, whose coefficients are
values of Gamma on the line ``Re z = 1`` (the harmonic-sum Mellin
analysis of Flajolet, Gourdon and Dumas, TCS 144, 1995).  Its limsup,
which sets the Tamari slope, is the maximum of that trigonometric
polynomial.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import IdealLattice, run_chain
from .errors import CouplingViolation, DomainError, InvariantViolation, SeriesTruncationError
from .poset import FinitePoset
from .rng import check_p, replica_generator

# the most weights or uniforms one vectorized draw materializes
_DRAW_BLOCK = 2_000_000
# Generator.geometric searches partial sums at p >= this (numpy's own
# constant, the double nearest 1/3) and inverts an exponential below it
_SEARCH_MIN_P = 0.333333333333333333333333
# uniforms mapped per pass of _geometric_array: 128 KB per float buffer
_FILL_CHUNK = 16_384
# zeta_exact sums its series this many terms at a time, up to _ZETA_MAX_TERMS
_ZETA_BLOCK = 10**6
_ZETA_MAX_TERMS = 10**8

# -- last-passage percolation ---------------------------------------------------


@dataclass
class LppSample:
    """A block of replicas: their ``(reps, n)`` weights and ``(reps,)``
    passage times."""

    weights: np.ndarray
    total: np.ndarray


def max_chain_weight(poset: FinitePoset, weights: Sequence[int]) -> int:
    """``max over maximal chains C of sum_{x in C} weights[x]`` for one
    run, by one DP sweep in topological order; 0 on the empty poset."""
    passage = [0] * poset.n
    for x in poset.topo_order():
        best = 0
        for c in poset.covers[x]:
            if passage[c] > best:
                best = passage[c]
        passage[x] = weights[x] + best
    return max((passage[x] for x in poset.maximal_elements()), default=0)


def lpp_sample(poset: FinitePoset, p: float, rng, reps: int) -> LppSample:
    """Draw ``reps`` replicas of i.i.d. geometric(p) weights and their
    passage times.

    ``rng`` is a numpy ``Generator``; the weights are what
    ``rng.geometric(p, size=(reps, poset.n))`` returns, drawn by
    :func:`_geometric_array` as the grid's are, so successive calls read
    the stream one draw of all their replicas reads.
    """
    p = check_p(p)
    weights = _geometric_array(rng, p, (reps, poset.n))
    block = np.empty((poset.n + 1, reps), dtype=np.int64)
    block[:-1] = weights.T
    block[-1] = 0
    return LppSample(weights=weights, total=_passage(*_poset_plan(poset), block))


def lpp_poset_samples(poset: FinitePoset, p: float, reps: int, seed: int) -> np.ndarray:
    """Passage times of ``reps`` replicas on ``poset``, from replica stream
    ``(1, 0)``: :func:`lpp_sample` once per block of at most ``_DRAW_BLOCK``
    weights (one replica if the poset is larger), so memory does not grow
    with ``reps``; the draws are those of one call on every replica."""
    rng = replica_generator(seed, 0)
    block = max(1, _DRAW_BLOCK // max(1, poset.n))
    out = np.empty(reps, dtype=np.int64)
    for start in range(0, reps, block):
        b = min(block, reps - start)
        out[start : start + b] = lpp_sample(poset, p, rng, b).total
    return out


@dataclass
class CoupledIdealRun:
    """An ideal-chain run with its coupled per-element maximal-step counts."""

    absorption: int
    weights: tuple[int, ...]


def coupled_ideal_run(poset: FinitePoset, p: float, rnd) -> CoupledIdealRun:
    """Run the ideal chain from the full ideal, extracting coupled weights.

    ``weights[x]`` counts the steps on which ``x`` was a maximal element
    of the current ideal; the absorption time must equal the max-chain
    sum of these counts on this very run.
    """
    lattice = IdealLattice(poset)
    run = run_chain(lattice, p, rnd, record=True)
    counts = [0] * poset.n
    for mask in run.states[:-1]:
        for x in lattice.pick_sites(mask):
            counts[x] += 1
    t = run.absorption
    total = max_chain_weight(poset, counts)
    if total != t:
        raise CouplingViolation(
            f"absorption {t} != max-chain weight {total}; engine bug"
        )
    return CoupledIdealRun(absorption=t, weights=tuple(counts))


# -- multicorner growth ------------------------------------------------------------


def tasep_absorption_samples(
    n: int, m: int, p: float, reps: int, seed: int
) -> np.ndarray:
    """Vectorized window-fill times across replicas.

    Each step draws one ``(reps, n)`` block of uniforms into the same
    buffer; row ``i`` grows where its coin lands and ``prev > lam``, with
    ``prev`` the row above (``m`` above row 0).  ``prev <= m`` always, so
    ``prev > lam`` already implies ``lam < m``.
    """
    p = check_p(p)
    if n < 1 or m < 1:
        raise DomainError(f"grid sides must be at least 1, got {n} x {m}")
    rng = replica_generator(seed, 0)
    lam = np.zeros((reps, n), dtype=np.int32)
    prev = np.full((reps, n), m, dtype=np.int32)
    u = np.empty((reps, n))
    coin = np.empty((reps, n), dtype=bool)
    grow = np.empty((reps, n), dtype=bool)
    absorbed = np.zeros(reps, dtype=np.int64)
    done = np.zeros(reps, dtype=bool)
    t = 0
    while not done.all():
        t += 1
        prev[:, 1:] = lam[:, :-1]
        np.greater(prev, lam, out=grow)
        np.less(rng.random(out=u), p, out=coin)
        grow &= coin
        lam += grow
        now_done = lam[:, -1] >= m
        absorbed[~done & now_done] = t
        done |= now_done
    return absorbed


def lpp_grid_samples(n: int, m: int, p: float, reps: int, seed: int) -> np.ndarray:
    """Passage times on the grid, vectorized across replicas.

    The recurrence ``L[i,j] = G[i,j] + max(L[i-1,j], L[i,j-1])`` is swept
    by :func:`_passage` one anti-diagonal at a time with all replicas in
    lockstep; it equals the ideal-chain absorption time on ``R_{n,m}`` in
    distribution (and per run under the coupling, which
    :func:`coupled_ideal_run` asserts).  Replicas go a block at a time, at
    most ``_DRAW_BLOCK`` weights (one replica if its grid is larger), so
    memory does not grow with ``reps``; the draws are those of one
    ``geometric(size=(reps, n, m))`` call.  They come from
    :func:`_geometric_array`, which reads numpy's search-branch weights
    (``1/3 <= p < 1``) off its table of partial sums, one ``rng.random``
    uniform each, and leaves ``p < 1/3`` and ``p = 1`` to ``rng.geometric``.
    """
    p = check_p(p)
    if n < 1 or m < 1:
        raise DomainError(f"grid sides must be at least 1, got {n} x {m}")
    rng = replica_generator(seed, 0)
    block = max(1, _DRAW_BLOCK // (n * m))
    levels, tops = _grid_plan(n, m)
    # one buffer serves every block; its last row stays the zero sentinel
    buffer = np.zeros((n * m + 1, min(block, reps)), dtype=np.int64)
    out = np.empty(reps, dtype=np.int64)
    for start in range(0, reps, block):
        b = min(block, reps - start)
        weights = buffer[:, :b]
        _draw_replica_last(rng, p, weights[:-1])
        out[start : start + b] = _passage(levels, tops, weights)
    return out


def _passage(levels, tops, block: np.ndarray) -> np.ndarray:
    """Max-plus passage of a replica-last weight block, swept in place.

    ``block`` is ``(elements + 1, b)`` int64: row ``x`` holds element
    ``x``'s weight in each of ``b`` replicas, and the last row is a zero
    sentinel.  ``levels`` lists ``(elements, cover_rows)`` in order of
    depth, the elements of a level covering only rows of earlier levels:
    ``cover_rows[k]`` holds the ``k``-th cover of the first
    ``len(cover_rows[k])`` elements (the sentinel where an element has
    none to add).  Each level adds to its rows the maximum over their
    covers, one ``np.maximum`` per cover column, so every row ends as its
    element's passage time.  Returns the maximum over the rows ``tops``.
    """
    for elements, cover_rows in levels:
        acc = block[cover_rows[0]]
        for rows in cover_rows[1:]:
            head = acc[: len(rows)]
            np.maximum(head, block[rows], out=head)
        block[elements] += acc
    return block[tops].max(axis=0)


def _poset_plan(poset: FinitePoset) -> tuple[list, list[int]]:
    """:func:`_passage`'s levels and tops for ``poset``.

    An element's depth is one more than its deepest cover's (0 for the
    minimal elements, which add nothing and are left out).  Each level is
    ordered by falling cover count, so its ``k``-th cover column is a
    prefix of it and no row is padded.  The empty poset's top is the
    sentinel, so its passage is 0.
    """
    depth = [0] * poset.n
    by_depth: dict[int, list[int]] = {}
    for x in poset.topo_order():
        if poset.covers[x]:
            depth[x] = 1 + max(depth[c] for c in poset.covers[x])
            by_depth.setdefault(depth[x], []).append(x)
    levels = []
    for d in sorted(by_depth):
        elements = sorted(by_depth[d], key=lambda x: len(poset.covers[x]), reverse=True)
        covers = [sorted(poset.covers[x]) for x in elements]
        levels.append((np.array(elements), [np.array([c[k] for c in covers if len(c) > k])
                                            for k in range(len(covers[0]))]))
    return levels, list(poset.maximal_elements()) or [poset.n]


def _grid_plan(n: int, m: int) -> tuple[list, list[int]]:
    """:func:`_passage`'s levels and tops for the ``n x m`` grid, cells
    numbered row-major: the anti-diagonals ``i + j = d`` for ``d >= 1``,
    each cell's covers the cells above and to its left (the sentinel
    ``n m`` off the grid)."""
    cells = n * m
    levels = []
    for d in range(1, n + m - 1):
        i = np.arange(max(0, d - m + 1), min(d, n - 1) + 1)
        j = d - i
        e = i * m + j
        levels.append((e, (np.where(i > 0, e - m, cells), np.where(j > 0, e - 1, cells))))
    return levels, [cells - 1]


def _draw_replica_last(rng, p: float, out: np.ndarray) -> None:
    """Fill ``out``, ``(cells, b)``, with the weights of
    ``_geometric_array(rng, p, (b, cells))`` transposed.

    They are drawn a few whole replicas at a time, so no second array of
    the block's size is made: 1 MB of weights (``8 * _FILL_CHUNK``), but
    at least 8 replicas where those are at most a quarter of the block,
    since each replica drawn writes one number to every row of ``out``,
    and fewer than 8 (64 bytes) write part of a cache line.
    """
    cells, b = out.shape
    chunk = max(1, 8 * _FILL_CHUNK // cells, min(8, b // 4))
    for start in range(0, b, chunk):
        k = min(chunk, b - start)
        out[:, start : start + k] = _geometric_array(rng, p, (k, cells)).T


def _geometric_array(rng, p: float, shape: tuple[int, ...]) -> np.ndarray:
    """What ``rng.geometric(p, size=shape)`` returns, drawn as it draws.

    At ``p >= _SEARCH_MIN_P`` numpy draws each weight by its search loop:
    one uniform ``u`` from ``next_double``, the function ``rng.random``
    reads, and the least ``X`` with ``u <= cum[X - 1]``
    (:func:`_search_table`).  Here the uniforms come from ``rng.random``,
    ``_FILL_CHUNK`` at a time, and each is looked up in the bucket table:
    ``X = base + (u > limit)`` at the bucket of ``u``.  Where numpy's sums
    stop below the largest uniform ``1 - 2^-53`` (``p = 0.35`` and
    ``p = 0.7``, for two), its loop never ends on a uniform above the last
    sum; such a uniform gives ``len(cum) + 1`` here.  ``rng.geometric``
    draws the weights itself below ``_SEARCH_MIN_P``, where numpy inverts
    an exponential, and at ``p = 1``, where its loop never iterates and
    costs only the uniforms, the least the table can cost.
    """
    if p < _SEARCH_MIN_P or p == 1.0:
        return rng.geometric(p, size=shape)
    shift, base, limit = _search_table(p)
    out = np.empty(shape, dtype=np.int64)
    flat = out.reshape(-1)
    u = np.empty(_FILL_CHUNK)
    v = np.empty(_FILL_CHUNK)
    bucket = np.empty(_FILL_CHUNK, dtype=np.int64)
    above = np.empty(_FILL_CHUNK, dtype=bool)
    for start in range(0, flat.size, _FILL_CHUNK):
        k = min(_FILL_CHUNK, flat.size - start)
        weights, uk, vk, bk, ak = flat[start : start + k], u[:k], v[:k], bucket[:k], above[:k]
        rng.random(out=uk)
        np.subtract(1.0, uk, out=vk)
        np.right_shift(vk.view(np.int64), shift, out=bk)
        # every bucket is in range: "clip" only skips take's bounds check
        np.take(limit, bk, out=vk, mode="clip")
        np.greater(uk, vk, out=ak)
        np.take(base, bk, out=weights, mode="clip")
        weights += ak
    return out


@functools.lru_cache(maxsize=8)
def _search_table(p: float) -> tuple[int, np.ndarray, np.ndarray]:
    """numpy's partial sums at ``p`` as a bucket table ``(shift, base, limit)``.

    ``cum[k] = p + p q + ... + p q^k`` (``q = 1 - p``), summed in the order
    numpy's search loop sums, up to the last sum that changes; ``2.0`` ends
    it.  A uniform from ``next_double`` is ``j / 2^53``, so ``v = 1 - u`` is
    exact, and the bits of ``v`` shifted right by ``shift`` (its exponent
    and leading mantissa bits) give its bucket.  The fewest mantissa bits
    are kept for which the uniforms of every bucket take at most two
    weights, ``base`` and ``base + 1``, the second where
    ``u > limit = cum[base - 1]``.  Consecutive ``1 - cum[k]`` differ by
    the factor ``1/q >= 1.5`` and a bucket of one mantissa bit spans at
    most 1.5, so at every ``p >= 1/3`` one bit suffices up to rounding;
    a sweep of ``p`` found two at most, and four not sufficing is a
    defect.  Tables are cached, so a poset's per-replica draws build one,
    and their arrays are read-only.
    """
    q = 1.0 - p
    prod = total = p
    sums = [total]
    while total + prod * q != total:
        prod *= q
        total += prod
        sums.append(total)
    cum = np.array(sums + [2.0])
    top = 2.0**53
    for bits in range(5):
        shift = 52 - bits
        first = int(np.float64(1 / top).view(np.int64)) >> shift
        last = int(np.float64(1.0).view(np.int64)) >> shift
        edges = (np.arange(first, last + 2, dtype=np.int64) << shift).view(np.float64)
        # the j = 2^53 (1 - u) of each bucket run from j_lo to j_hi
        j_lo = np.maximum(np.ceil(edges[:-1] * top), 1.0)
        j_hi = np.minimum(np.ceil(edges[1:] * top) - 1.0, top)
        lowest = np.searchsorted(cum, (top - j_hi) / top) + 1
        highest = np.searchsorted(cum, (top - j_lo) / top) + 1
        if np.all((highest - lowest <= 1) | (j_lo > j_hi)):
            base = np.zeros(last + 1, dtype=np.int64)
            base[first:] = lowest
            limit = cum[base - 1]
            base.flags.writeable = limit.flags.writeable = False
            return shift, base, limit
    raise InvariantViolation(f"no bucket width up to 4 bits separates the sums at p={p}")


# -- fluctuation constants -----------------------------------------------------------


def check_open_p(p: float) -> float:
    """``check_p`` for the formulas that also need ``p < 1``."""
    p = float(p)
    if not 0 < p < 1:
        raise DomainError(f"p={p} outside (0, 1)")
    return check_p(p)


def rescaling_constants(p: float, x: float, y: float) -> tuple[float, float]:
    """Centering and scale for the rescaled grid passage time.

    ``Phi_p(x,y) = (x + y + 2 sqrt((1-p) x y)) / p`` and
    ``eta_p(x,y) = ((1-p)^(1/6) / p) (xy)^(-1/6)
    (sqrt(x) + sqrt((1-p) y))^(2/3) (sqrt(y) + sqrt((1-p) x))^(2/3)``.
    """
    p = check_open_p(p)
    if x <= 0 or y <= 0:
        raise DomainError("x and y must be positive")
    qroot = math.sqrt(1 - p)
    phi = (x + y + 2 * qroot * math.sqrt(x * y)) / p
    eta = (
        (1 - p) ** (1 / 6)
        / p
        * (x * y) ** (-1 / 6)
        * (math.sqrt(x) + qroot * math.sqrt(y)) ** (2 / 3)
        * (math.sqrt(y) + qroot * math.sqrt(x)) ** (2 / 3)
    )
    return phi, eta


def tracy_widom_tail(t: float) -> float:
    """Upper-tail asymptotic ``(32 pi t^{3/2})^{-1} exp(-4 t^{3/2} / 3)``.

    This approximates one minus the limiting CDF for large positive ``t``;
    it is an asymptotic, not a distribution function, and is intended for
    tail diagnostics only.  ``t^{3/2}`` is ``t * sqrt(t)``, which is
    ``inf`` where ``t**1.5`` would raise, so a huge ``t`` gives ``0.0``.
    Below about ``t = 1e-207`` the value exceeds the float range, and such
    a ``t`` raises :class:`DomainError` as ``t <= 0`` does.
    """
    if t <= 0:
        raise DomainError(f"tail asymptotic needs t > 0, got {t}")
    t32 = t * math.sqrt(t)
    scale = 32.0 * math.pi * t32
    value = math.exp(-4.0 * t32 / 3.0) / scale if scale else math.inf
    if value == math.inf:
        raise DomainError(f"tail asymptotic at t={t} exceeds the float range")
    return value


# -- uniqueness of the geometric maximum ------------------------------------------------


def upsilon(p: float, x: float) -> float:
    """Bilateral series ``p x sum_k (1-p)^k exp(-(1-p)^k x)`` (0 at p=1).

    Summed as its Fourier series in ``log x``, which has period
    ``L = -log(1-p)``: by Poisson summation the series equals
    ``(p/L) [1 + 2 sum_{m>=1} Re(Gamma(1 - i w_m) x^{i w_m})]`` with
    ``w_m = 2 pi m / L``.  The terms kept are those of
    :func:`_fourier_coefficients`, so the terms dropped add at most
    ``1e-17`` at every positive finite ``x``.
    """
    p = float(p)
    if not 0 < p <= 1:
        raise DomainError(f"p={p} outside (0, 1]")
    if not 0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x}")
    if p == 1.0:
        return 0.0
    period, coeffs = _fourier_coefficients(p)
    return _trig_sum(coeffs, 2 * math.pi * (math.log(x) / period % 1.0))


# Stirling's series for log Gamma(z): the coefficients B_2k / (2k (2k-1)) of
# z^{1-2k}, k = 1..8; at Re z >= 12 the first term left out is below 1e-19
# in modulus
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def _gamma(z: complex) -> complex:
    """Gamma at ``z`` with ``Re z > 0``: shifted to ``Re z >= 12`` by
    ``Gamma(z) = Gamma(z + 1) / z``, then Stirling's series."""
    shift = 1
    while z.real < 12:
        shift *= z
        z += 1
    series = sum(c * z ** -(2 * k + 1) for k, c in enumerate(_STIRLING))
    log_gamma = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series
    return cmath.exp(log_gamma) / shift


def _fourier_coefficients(p: float) -> tuple[float, list[complex]]:
    """The period ``L`` of :func:`upsilon` in ``log x`` and its coefficients.

    ``coeffs[0] = p/L`` and ``coeffs[m] = 2 (p/L) Gamma(1 - i w_m)``, so
    ``upsilon = sum_m Re(coeffs[m] e^{i m theta})`` at ``theta = w_1 log x``.
    ``a_m = |Gamma(1 - i w_m)| = sqrt(pi w_m / sinh(pi w_m))`` is
    log-concave in ``m`` (``a_0 = 1``), so the ratio ``r = a_m / a_{m-1}``
    bounds every later ratio and ``2 (p/L) a_m / (1 - r)`` bounds the terms
    from ``m`` on; they are dropped once that is at most ``1e-17``.
    """
    period = -math.log1p(-p)
    mean = p / period
    coeffs: list[complex] = [mean]
    log_prev = 0.0
    while True:
        w = 2 * math.pi * len(coeffs) / period
        # log a_m, with sinh(y) = e^y (1 - e^{-2y}) / 2 kept finite at large y
        y = math.pi * w
        log_a = 0.5 * (math.log(2 * y) - y - math.log1p(-math.exp(-2 * y)))
        if 2 * mean * math.exp(log_a) / (1 - math.exp(log_a - log_prev)) <= 1e-17:
            return period, coeffs
        coeffs.append(2 * mean * _gamma(complex(1, -w)))
        log_prev = log_a


def _trig_sum(coeffs: Sequence[complex], theta: float) -> float:
    """``sum_m Re(coeffs[m] e^{i m theta})``."""
    return sum((c * cmath.exp(1j * m * theta)).real for m, c in enumerate(coeffs))


def zeta_exact(p: float, n: int) -> float:
    """Probability that the max of ``n`` i.i.d. geometric(p) variables is unique.

    ``zeta_n = sum_{k>=1} n p q^{k-1} (1 - q^{k-1})^{n-1}`` with ``q = 1-p``:
    term ``k`` is the chance that one variable equals ``k`` and the other
    ``n-1`` lie below it; for ``n >= 2`` term 1 is 0.  Each term is at
    most ``n p q^{k-1}``, so the tail after term ``K`` is at most
    ``n q^K``; the sum stops at the first ``K`` where that is below
    ``tol = 1e-15``.  Terms are summed ``_ZETA_BLOCK`` at a time, so
    memory is flat in ``K``; past ``_ZETA_MAX_TERMS`` terms (``p`` below
    about ``4e-7``) it raises :class:`SeriesTruncationError`.
    """
    tol = 1e-15
    p = check_p(p)
    if n < 1:
        raise DomainError("n must be >= 1")
    if n == 1:
        return 1.0
    if p == 1.0:
        return 0.0  # every variable equals 1
    q = 1.0 - p
    terms = math.ceil(math.log(tol / n) / math.log(q))
    if terms > _ZETA_MAX_TERMS:
        raise SeriesTruncationError(f"zeta_n needs {terms} terms at p={p}")
    total = 0.0
    for start in range(1, terms, _ZETA_BLOCK):
        qk = q ** np.arange(start, min(start + _ZETA_BLOCK, terms), dtype=float)  # q^{k-1}
        # for n near the largest float, (n - 1) log1p(-q^{k-1}) overflows to
        # -inf where the term is below the smallest float, and exp gives its 0
        with np.errstate(over="ignore"):
            total += float(np.sum(n * p * qk * np.exp((n - 1) * np.log1p(-qk))))
    return total


def zeta_estimate(p: float, n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo probability that the max of ``n`` geometrics is unique.

    Each trial costs two uniforms, whatever ``n`` is.  The first gives the
    maximum ``M`` by inverse CDF, ``P(M <= k) = (1 - q^k)^n``; the second
    is a Bernoulli with the probability that exactly one variable sits at
    ``M`` given the maximum is ``M``,
    ``n p q^{M-1} (1-q^{M-1})^{n-1} / ((1-q^M)^n - (1-q^{M-1})^n)``.
    Both come from replica stream ``(1, 0)``, a block of at most
    ``_DRAW_BLOCK`` uniforms at a time (the ``M`` uniforms of the block,
    then its Bernoulli uniforms).  ``n = 1`` draws nothing and returns 1.
    Returns ``(estimate, standard error)``.
    """
    p = check_p(p)
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be >= 1")
    if n == 1:
        hits = trials  # a single variable is its own unique maximum
    else:
        rng = replica_generator(seed, 0)
        hits = 0
        block = _DRAW_BLOCK // 2  # trials, two uniforms each
        for start in range(0, trials, block):
            u, v = rng.random((2, min(block, trials - start)))
            m = _max_of_geometrics(p, n, u)
            hits += int((v < _unique_given_max(p, n, m)).sum())
    est = hits / trials
    stderr = math.sqrt(est * (1 - est) / trials)
    return est, stderr


def _max_of_geometrics(p: float, n: int, u: np.ndarray) -> np.ndarray:
    """The maximum of ``n`` geometrics from a uniform ``u`` by inverse CDF.

    ``M`` is the least ``k >= 1`` with ``(1-q^k)^n >= u``, that is
    ``q^k <= 1 - u^{1/n}``; ``-expm1(log(u)/n)`` keeps ``1 - u^{1/n}``
    accurate where ``u^{1/n}`` is close to 1 (large ``n``).  At ``p = 1``,
    ``log q = -inf`` and ``M = 1``.
    """
    with np.errstate(divide="ignore"):
        k = np.ceil(np.log(-np.expm1(np.log(u) / n)) / np.log1p(-p))
    return np.maximum(k, 1.0)


def _unique_given_max(p: float, n: int, m: np.ndarray) -> np.ndarray:
    """``P(exactly one of n geometrics equals m | their max is m)``, ``n >= 2``.

    In logs: ``a = n log(1-q^m)`` and ``b = n log(1-q^{m-1})``, so the
    denominator ``e^a - e^b = -e^a expm1(b - a)`` keeps its digits when
    ``n q^{m-1}`` is small.  At ``m = 1``, ``b = -inf`` and the
    probability is 0.
    """
    q = 1.0 - p
    q_prev = q ** (m - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_below = np.log1p(-q_prev)
        log_at = np.log1p(-q_prev * q)
        log_num = math.log(n * p) + np.log(q_prev) + (n - 1) * log_below
        log_den = n * log_at + np.log(-np.expm1(n * (log_below - log_at)))
    return np.exp(log_num - log_den)


def zeta_liminf_lower_bound(p: float) -> float:
    """Closed-form lower bound ``p (1-p) e^{p-1}`` for the liminf."""
    p = check_open_p(p)
    return p * (1 - p) * math.exp(p - 1)


def zeta_limsup_estimate(p: float) -> float:
    """Max of the bilateral series over one multiplicative period.

    The series is invariant under ``x -> (1-p) x``, so the limsup of the
    uniqueness probability is the maximum over ``theta`` of the
    trigonometric polynomial ``S`` that :func:`upsilon` sums.  Its
    oscillating part is tabulated on a grid of ``n`` points, spacing ``h``,
    at least four per harmonic.  With ``D_k = sum_m m^k |coeffs[m]|``, a
    grid cell can hold the maximum only if its larger end plus
    ``D_2 h^2 / 8`` reaches the grid maximum; ``n`` doubles until ``S''``
    plus ``D_3 h / 2`` is negative at both ends of every such cell, so that
    ``S`` is concave on each.  A golden-section search then finds the
    maximum of each of those cells.
    """
    p = check_open_p(p)
    _, coeffs = _fourier_coefficients(p)
    if len(coeffs) == 1:
        return coeffs[0]
    m = np.arange(len(coeffs))
    wave = np.array(coeffs)
    wave[0] = 0.0  # the mean, added back at the end, would bury S's rounding
    d2, d3 = (float(np.sum(m**k * np.abs(wave))) for k in (2, 3))
    n = 4 * 2 ** len(coeffs).bit_length()
    while True:
        h = 2 * math.pi / n
        # e^{i m theta_j} is the n-th root of unity e^{i h (j m mod n)}
        grid = np.exp(1j * h * np.arange(n))[np.outer(np.arange(n), m) % n]
        s = (grid @ wave).real
        s2 = (grid @ (-(m**2) * wave)).real
        upper = np.maximum(s, np.roll(s, -1)) + d2 * h * h / 8
        cells = np.flatnonzero(upper >= s.max())
        if np.all(np.maximum(s2, np.roll(s2, -1))[cells] + d3 * h / 2 < 0):
            break
        if n >= 2**16:
            raise InvariantViolation(f"no concave bracket for the maximum at p={p}")
        n *= 2
    best = max(_golden_max(coeffs, j * h, (j + 1) * h) for j in cells)
    return max(best, coeffs[0] + float(s.max()))


def _golden_max(coeffs: Sequence[complex], a: float, b: float) -> float:
    """Max of :func:`_trig_sum` on ``[a, b]``, where it is concave."""
    g = (math.sqrt(5) - 1) / 2
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = _trig_sum(coeffs, x1), _trig_sum(coeffs, x2)
    while b - a > 1e-9:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = _trig_sum(coeffs, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = _trig_sum(coeffs, x1)
    return max(f1, f2)


# -- linear-growth coefficients ---------------------------------------------------------


def sn_linear_coefficient(p: float) -> float:
    """Slope ``(1 + sqrt(1-p)) / p`` of the weak-order absorption bound."""
    p = check_open_p(p)
    return (1 + math.sqrt(1 - p)) / p


def tamari_linear_coefficient(p: float) -> float:
    """Slope ``(2/p)(sqrt(z(1+z)) - z)`` with ``z`` the uniqueness limsup."""
    z = zeta_limsup_estimate(p)
    return 2.0 / p * (math.sqrt(z * (1 + z)) - z)
