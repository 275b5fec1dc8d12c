"""Reference implementations that only the tests use.

The right weak order on S_n by inversion sets, the exact solver on state
objects (one ``apply`` per selection, values in a dict of floats or, for
the rational oracle, of exact ``Fraction``s), ``J(P)`` as an
explicit poset (enumerated by ``engine.enumerate_states``, as the exact
solver does) with its maximal chains and meets, the Catalan enumerations
of the Tamari lattice (312-avoiding permutations, ordered forests) and
the covers of a 312-avoider, the restriction of a forest to a window of
labels, a vertex's descendant count, the Young diagram of a grid ideal's
complement, the plain Monte Carlo samplers that draw every variable at
once (the uniqueness of a geometric maximum, grid passage times swept
cell by cell), the scalar samplers that read one uniform at a time
(numpy's search for a geometric variable, a random walk's hitting time,
the corner-growth diagram that ``percolation.tasep_absorption_samples``
grows for a block of replicas), and the bilateral series of the
uniqueness limit summed term by term.  They raise the library's errors
and the three below, which only they raise.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

import numpy as np

from ungar_lab.engine import DEFAULT_STATE_CAP, IdealLattice, enumerate_states
from ungar_lab.errors import CapExceeded, DomainError, NotReached, UngarLabError
from ungar_lab.perms import Permutation
from ungar_lab.poset import FinitePoset
from ungar_lab.rng import check_p, replica_generator
from ungar_lab.tamari import OrderedForest, project_down, require_av312

DEFAULT_CHAIN_CAP = 10**6


class ChainExplosion(CapExceeded):
    """Too many maximal chains to enumerate."""


class NotALattice(UngarLabError):
    """A greatest lower bound does not exist or is not unique."""


class SizeMismatch(UngarLabError, ValueError):
    """Permutations of different sizes were combined."""


# -- weak order via inversion sets -----------------------------------------
#
# Inversion sets are encoded as bitmasks over the pairs (a, b), a < b,
# listed lexicographically.  A bitmask is the inversion set of a
# permutation iff it is closed ((a,b),(b,c) set => (a,c) set) and
# co-closed ((a,c) set => (a,b) or (b,c) set).


def _pair_bits(n: int) -> dict[tuple[int, int], int]:
    bits = {}
    k = 0
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            bits[(a, b)] = k
            k += 1
    return bits


def _inv_mask(sigma: Sequence[int], bits: dict[tuple[int, int], int]) -> int:
    mask = 0
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                mask |= 1 << bits[(sigma[j], sigma[i])]
    return mask


def _triples(n: int, bits: dict[tuple[int, int], int]) -> list[tuple[int, int, int]]:
    out = []
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        out.append((bits[(a, b)], bits[(b, c)], bits[(a, c)]))
    return out


def _transitive_closure(mask: int, triples: list[tuple[int, int, int]]) -> int:
    changed = True
    while changed:
        changed = False
        for ab, bc, ac in triples:
            if mask >> ab & 1 and mask >> bc & 1 and not mask >> ac & 1:
                mask |= 1 << ac
                changed = True
    return mask


def _reverse_complement(mask: int, n: int, bits: dict[tuple[int, int], int]) -> int:
    """Inversion set of w0*sigma: pair (a,b) set iff (n+1-b, n+1-a) unset."""
    out = 0
    for (a, b), k in bits.items():
        if not mask >> bits[(n + 1 - b, n + 1 - a)] & 1:
            out |= 1 << k
    return out


def _mask_to_perm(mask: int, n: int, bits: dict[tuple[int, int], int]) -> Permutation:
    # value a precedes b (a < b) iff the pair (a, b) is not inverted
    pos = [0] * (n + 1)
    for (a, b), k in bits.items():
        if mask >> k & 1:
            pos[a] += 1  # b precedes a
        else:
            pos[b] += 1  # a precedes b
    word = [0] * n
    for v in range(1, n + 1):
        word[pos[v]] = v
    return Permutation(word)


def weak_leq(sigma: Permutation, tau: Permutation) -> bool:
    """Right weak order: ``Inv(sigma)`` contained in ``Inv(tau)``."""
    sigma, tau = Permutation(sigma), Permutation(tau)
    if sigma.n != tau.n:
        raise SizeMismatch(f"sizes differ: {sigma.n} vs {tau.n}")
    bits = _pair_bits(sigma.n)
    a, b = _inv_mask(sigma, bits), _inv_mask(tau, bits)
    return a & ~b == 0


def weak_meet(perms: Iterable[Permutation]) -> Permutation:
    """Greatest lower bound in the right weak order.

    Computed by duality: conjugate every inversion set by reverse
    complement, close the union transitively (the join), and conjugate
    back.  Agrees with the block-reversal move on ``{sigma} U T`` for
    ``T`` a set of covered elements.
    """
    ps = [Permutation(p) for p in perms]
    if not ps:
        raise ValueError("weak_meet of an empty collection")
    n = ps[0].n
    if any(p.n != n for p in ps):
        raise SizeMismatch("permutations of mixed sizes")
    bits = _pair_bits(n)
    triples = _triples(n, bits)
    joined = 0
    for p in ps:
        joined |= _reverse_complement(_inv_mask(p, bits), n, bits)
    joined = _transitive_closure(joined, triples)
    return _mask_to_perm(_reverse_complement(joined, n, bits), n, bits)


def all_permutations(n: int):
    """Iterate S_n in lexicographic order."""
    for w in itertools.permutations(range(1, n + 1)):
        yield Permutation(w)


# -- the Tamari lattice, enumerated ------------------------------------------


def covers_av312(sigma: Permutation) -> list[Permutation]:
    """Elements covered by ``sigma`` in the 312-avoiding sublattice.

    These are the projections of the weak-order covers; the projection
    restricted to covers is a bijection, so the list has exactly one entry
    per descent and no repeats.
    """
    sigma = require_av312(sigma)
    return [project_down(sigma.swap(i)) for i in sigma.descents()]


def ordered_forests(n: int):
    """Generate all ordered forests on ``n`` vertices (Catalan-many)."""

    def forests(start: int, count: int):
        # parent assignments for labels start..start+count-1
        if count == 0:
            yield []
            return
        for first_tree in range(1, count + 1):
            for tree in trees(start, first_tree):
                for rest in forests(start + first_tree, count - first_tree):
                    yield tree + rest

    def trees(root: int, count: int):
        # a tree rooted at `root` on labels root..root+count-1
        for sub in forests(root + 1, count - 1):
            fixed = [p if p != 0 else root for p in sub]
            yield [0] + fixed

    for par in forests(1, n):
        yield OrderedForest(par, validate=False)


def av312_permutations(n: int):
    """Generate the 312-avoiding permutations of ``1..n``.

    Backtracking over prefixes: appending value ``x`` completes a 312
    pattern exactly when some earlier position holds a value below ``x``
    that is preceded by a value above ``x``.
    """
    word: list[int] = []
    used = [False] * (n + 1)
    prefix_max: list[int] = []  # prefix_max[i] = max(word[:i+1])

    def ok(x: int) -> bool:
        for i2 in range(1, len(word)):
            if word[i2] < x < prefix_max[i2 - 1]:
                return False
        return True

    def rec():
        if len(word) == n:
            yield Permutation(word)
            return
        for x in range(1, n + 1):
            if not used[x] and ok(x):
                used[x] = True
                word.append(x)
                prefix_max.append(x if not prefix_max else max(prefix_max[-1], x))
                yield from rec()
                prefix_max.pop()
                word.pop()
                used[x] = False

    yield from rec()


# -- the exact solver on state objects ----------------------------------------


def per_subset_transitions(lattice, x, sites, p: float, q: float):
    """``(weight, successor)`` for every nonempty selection of ``sites``, in
    increasing bitmask order: one ``apply`` of the whole selection each."""
    s = len(sites)
    for bitsel in range(1, 1 << s):
        selected = [sites[i] for i in range(s) if bitsel >> i & 1]
        yield p ** len(selected) * q ** (s - len(selected)), lattice.apply(x, selected)


def dict_back_substitution(lattice, p: float) -> dict:
    """``{state: E}`` in floats, by :func:`_back_substitution`.

    The library's solver adds the same weighted terms in the same order,
    so its values must be the same floats.
    """
    return _back_substitution(lattice, check_p(p))


def rational_back_substitution(lattice, p: float) -> dict:
    """``{state: E}`` as exact ``Fraction``s, by :func:`_back_substitution`
    at ``p``'s exact binary value.  Nothing of the solver's tables is read,
    so the float solvers can be measured against it in ulps."""
    return _back_substitution(lattice, Fraction(check_p(p)))


def _back_substitution(lattice, p) -> dict:
    """``{state: E}`` by back-substitution over ``enumerate_states``, each
    row summed over :func:`per_subset_transitions` (one ``apply`` of each
    whole selection) into a dict, in the number type of ``p``."""
    one = type(p)(1)
    q = one - p
    bottom = lattice.bottom()
    expect: dict = {}
    for x in enumerate_states(lattice):
        if x == bottom:
            expect[x] = one - one
            continue
        sites = lattice.pick_sites(x)
        acc = one
        for w, y in per_subset_transitions(lattice, x, sites, p, q):
            acc += w * expect[y]
        expect[x] = acc / (one - q ** len(sites))
    return expect


# -- J(P), maximal chains and meets ------------------------------------------


class IdealLatticePoset(FinitePoset):
    """``J(P)`` as an explicit poset; element ``k`` is ``ideal_masks[k]``."""

    __slots__ = ("base", "ideal_masks")

    def __init__(self, base: FinitePoset, ideal_masks: tuple[int, ...],
                 covers: Sequence[Iterable[int]]):
        self.base = base
        self.ideal_masks = ideal_masks
        super().__init__(covers, validate=False)


def order_ideals(
    poset: FinitePoset, *, cap: int = DEFAULT_STATE_CAP
) -> IdealLatticePoset:
    """The distributive lattice ``J(P)`` of order ideals of ``poset``.

    Ideal ``J`` covers ``I`` exactly when ``I`` is obtained from ``J`` by
    removing a maximal element of ``J``.  Ideals are sorted by
    ``(popcount, mask)``; past ``cap`` of them, ``StateExplosion``.
    """
    masks = sorted(enumerate_states(IdealLattice(poset), cap=cap),
                   key=lambda m: (m.bit_count(), m))
    index = {m: k for k, m in enumerate(masks)}
    covers = []
    for mask in masks:
        covers.append([index[mask & ~(1 << x)] for x in poset.maximal_of_mask(mask)])
    return IdealLatticePoset(poset, tuple(masks), covers)


def maximal_chains(
    poset: FinitePoset, *, cap: int = DEFAULT_CHAIN_CAP
) -> list[tuple[int, ...]]:
    """All maximal chains of ``poset``, each bottom-to-top.

    A maximal chain runs from a minimal element to a maximal element along
    cover edges, so it cannot be extended at either end or refined in the
    middle.  Raises :class:`ChainExplosion` past ``cap`` chains.
    """
    out: list[tuple[int, ...]] = []
    parents = poset.parents

    def extend(chain: list[int]) -> None:
        ups = sorted(parents[chain[-1]])
        if not ups:
            if len(out) >= cap:
                raise ChainExplosion(f"maximal-chain count exceeds cap {cap}")
            out.append(tuple(chain))
            return
        for y in ups:
            chain.append(y)
            extend(chain)
            chain.pop()

    for x in sorted(poset.minimal_elements()):
        extend([x])
    return out


def meet(poset: FinitePoset, x: int, y: int) -> int:
    """Greatest lower bound of ``x`` and ``y``.

    Raises :class:`NotALattice` when the set of common lower bounds has no
    unique maximum (detected lazily, per element pair).
    """
    common = poset.down_mask(x) & poset.down_mask(y)
    if common == 0:
        raise NotALattice(f"elements {x}, {y} have no common lower bound")
    candidates = []
    m = common
    while m:
        z = (m & -m).bit_length() - 1
        candidates.append(z)
        m &= m - 1
    maxima = [
        z
        for z in candidates
        if all(w == z or not poset.leq(z, w) for w in candidates)
    ]
    if len(maxima) != 1:
        raise NotALattice(
            f"elements {x}, {y} have {len(maxima)} maximal common lower bounds"
        )
    return maxima[0]


# -- forest windows and grid complements -------------------------------------


def restrict(forest: OrderedForest, m: int) -> OrderedForest:
    """Induced forest on labels ``[m, n]``, relabeled to ``1..n-m+1``.

    Vertices whose parents fall below ``m`` become roots; the canonical
    labeling of the restriction is the order-preserving relabeling.
    """
    n = forest.n
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    parent = []
    for v in range(m, n + 1):
        p = forest.parent[v - 1]
        parent.append(p - m + 1 if p >= m else 0)
    return OrderedForest(parent)


def descendant_count(forest: OrderedForest, v: int) -> int:
    """Number of proper descendants of ``v``, by a walk over the children."""
    total = 0
    stack = list(forest.children(v))
    while stack:
        u = stack.pop()
        total += 1
        stack.extend(forest.children(u))
    return total


def ideal_complement_rows(rows: int, cols: int, mask: int) -> tuple[int, ...]:
    """Complement of an ideal of ``grid_poset(rows, cols)`` as top-down row lengths.

    Row ``i`` of the grid contributes ``#{j : (i,j) not in the ideal}``;
    reading rows from the top (largest ``i``) down gives a weakly
    decreasing sequence, i.e. a Young diagram.  Raises ``ValueError`` if
    the monotonicity fails (the mask was not an ideal).
    """
    lengths = [sum(1 for j in range(cols) if not mask >> (i * cols + j) & 1)
               for i in range(rows)]
    shape = tuple(reversed(lengths))
    if any(shape[k] < shape[k + 1] for k in range(len(shape) - 1)):
        raise ValueError(f"complement rows {shape} are not weakly decreasing")
    return shape


# -- plain samplers: every variable drawn ------------------------------------


def plain_zeta_estimate(
    p: float, n: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo probability that the max of ``n`` geometrics is unique.

    Plain estimator: each trial draws the ``n`` variables outright and
    checks the multiplicity of the maximum.  Trials run in batches of
    ``max(1, 2_000_000 // n)`` rows, about 2e6 draws each, to bound
    memory.  Returns ``(estimate, standard error)``.
    """
    p = check_p(p)
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be >= 1")
    rng = replica_generator(seed, 0)
    batch_rows = max(1, 2_000_000 // n)
    hits = 0
    left = trials
    while left > 0:
        b = min(batch_rows, left)
        left -= b
        draws = rng.geometric(p, size=(b, n))
        mx = draws.max(axis=1)
        hits += int(((draws == mx[:, None]).sum(axis=1) == 1).sum())
    est = hits / trials
    stderr = math.sqrt(max(est * (1 - est), 1e-300) / trials)
    return est, stderr


def grid_passage(weights: np.ndarray) -> np.ndarray:
    """Passage time of each replica's ``(n, m)`` weight grid, swept cell by
    cell: ``L[i,j] = w[i,j] + max(L[i-1,j], L[i,j-1])``."""
    reps, n, m = weights.shape
    row = np.zeros((reps, m), dtype=np.int64)
    for i in range(n):
        running = np.zeros(reps, dtype=np.int64)
        for j in range(m):
            running = weights[:, i, j] + np.maximum(running, row[:, j])
            row[:, j] = running
    return row[:, -1]


def one_shot_lpp_grid_samples(
    n: int, m: int, p: float, reps: int, seed: int
) -> np.ndarray:
    """Grid passage times from one ``(reps, n, m)`` draw of every weight."""
    weights = replica_generator(seed, 0).geometric(check_p(p), size=(reps, n, m))
    return grid_passage(weights)


# -- scalar samplers: one uniform at a time --------------------------------------


def numpy_geometric_search(p: float, u: float) -> int | None:
    """numpy's ``random_geometric_search`` on the uniform ``u``, line by line:
    the least ``X`` with ``u <= p + p q + ... + p q^(X-1)``, summed as numpy
    sums it (``q = 1 - p``).  ``None`` where the sum stops growing below
    ``u``, so that numpy's loop never ends."""
    x, total, prod, q = 1, p, p, 1.0 - p
    while u > total:
        prod *= q
        if total + prod == total:
            return None
        total += prod
        x += 1
    return x


def walk_hitting_time(
    m: int,
    rnd,
    *,
    q: float | None = None,
    max_steps: int | None = None,
) -> int:
    """First time a walk started at 0 reaches ``m``.

    With ``q`` unset the walk is the simple +-1 walk; with ``q`` in
    (0, 1/2) each step is +1 or -1 with probability ``q`` and 0 otherwise
    (the lazy walk).  Raises :class:`NotReached` when ``max_steps`` passes
    without a hit; hitting times have infinite mean, so callers doing bulk
    statistics should always cap.
    """
    if m == 0:
        raise DomainError("m must be a nonzero integer")
    if q is not None and not 0 < q < 0.5:
        raise DomainError(f"lazy parameter q={q} outside (0, 1/2)")
    pos = 0
    t = 0
    while True:
        if max_steps is not None and t >= max_steps:
            raise NotReached(f"walk did not hit {m} within {max_steps} steps")
        t += 1
        u = rnd.random()
        if q is None:
            pos += 1 if u < 0.5 else -1
        elif u < q:
            pos += 1
        elif u < 2 * q:
            pos -= 1
        if pos == m:
            return t


def tasep_trajectory(
    n: int,
    m: int,
    p: float,
    rnd,
    *,
    bit_fn: Callable[[int, int, int], bool] | None = None,
) -> list[tuple[int, ...]]:
    """Clipped diagram after each step, until full.

    The diagram starts empty and each external corner is added with
    independent probability ``p`` per step.  Only the first ``n`` rows and
    ``m`` columns are tracked: a cell ``(i, j)`` with ``j <= m`` is an
    external corner iff ``lambda_i = j - 1 < m`` and ``lambda_{i-1} >= j``,
    which depends only on the clipped state, so growth outside the window
    is never simulated.  The window-fill time is ``len(trajectory) - 1``.
    ``bit_fn(step, row, col)`` overrides the coin flips (used by the
    window-independence tests).
    """
    p = check_p(p)
    lam = [0] * n
    out = [tuple(lam)]
    t = 0
    while lam[-1] < m:
        t += 1
        old = lam[:]
        for i in range(n):
            prev = m if i == 0 else old[i - 1]
            if old[i] < m and prev > old[i]:
                if bit_fn is not None:
                    grow = bit_fn(t, i, old[i])
                else:
                    grow = rnd.random() < p
                if grow:
                    lam[i] = old[i] + 1
        out.append(tuple(lam))
    return out


# -- the uniqueness limit, term by term --------------------------------------------


def upsilon_series(p: float, x: float) -> float:
    """``p x sum_k (1-p)^k exp(-(1-p)^k x)`` summed term by term, ``0 < p < 1``.

    Each tail is cut below ``tol/2``, ``tol = 1e-12``: the ``k -> +inf``
    tail is geometric, and the ``k -> -inf`` tail is dominated by a
    geometric series once ``y = (1-p)^k x >= 4`` (``y e^{-y} <= e^{-y/2}``
    there).  Meant for ``x`` within a few periods of 1 and ``p`` not near
    0: the upward sum takes about ``log(x / tol) / p`` terms.
    """
    tol = 1e-12
    q = 1.0 - p
    total = 0.0
    # upward: terms p x q^k e^{-q^k x} <= p x q^k; tail after K is <= x q^{K+1}
    k = 0
    while True:
        y = q**k * x
        total += p * y * math.exp(-y)
        if x * q ** (k + 1) <= tol / 2:
            break
        k += 1
    # downward: y grows by 1/q per step; once y >= 4 successive terms decay
    # at least geometrically with ratio rho = e^{-y (1/q - 1)} / q
    k = -1
    while True:
        y = q**k * x
        term = p * y * math.exp(-y)
        total += term
        if y >= 4:
            rho = math.exp(-y * (1 / q - 1)) / q
            if rho < 0.5 and term * rho / (1 - rho) <= tol / 2:
                return total
        k -= 1


def golden_section_max(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Max of ``f`` on ``[a, b]`` by golden-section search (``f`` unimodal there)."""
    g = (math.sqrt(5) - 1) / 2
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
    return max(f1, f2)
