"""The symmetric group under the right weak order.

Permutations are one-line words with 1-indexed values; positions are also
1-indexed externally (0-indexed only inside loops).  A position ``i`` is a
descent when ``sigma(i) > sigma(i+1)``.  Selecting a set ``T`` of descents
and reversing them, with consecutive selected descents reversed as one
block, is the block-reversal move; lattice-theoretically it sends
``sigma`` to the meet of ``{sigma}`` with the corresponding covered
elements, and any nontrivial move strictly decreases the inversion count.

Comparison uses inversion sets (pairs of values out of order), which gives
the right weak order in O(n^2) per comparison instead of a cover-path
search; meets and joins are computed on inversion sets, with the join
realized as the transitive closure of a union and the meet obtained from
the join by the reverse-complement duality.  Both are validated against
brute-force oracles in the test suite at small n.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import InvalidSelection, NotReached, SizeMismatch
from .poset import OrderIdeal, grid_poset


class Permutation(tuple):
    """One-line word ``sigma(1..n)``, a bijection on ``1..n``."""

    def __new__(cls, word: Iterable[int]):
        w = tuple(int(v) for v in word)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        return super().__new__(cls, w)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def decreasing(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    @property
    def n(self) -> int:
        return len(self)

    def descents(self) -> frozenset[int]:
        """Positions ``i`` in ``1..n-1`` with ``sigma(i) > sigma(i+1)``."""
        return frozenset(
            i + 1 for i in range(len(self) - 1) if self[i] > self[i + 1]
        )

    def inversions(self) -> int:
        return sum(
            1
            for i in range(len(self))
            for j in range(i + 1, len(self))
            if self[i] > self[j]
        )

    def swap(self, i: int) -> "Permutation":
        """Exchange the entries at positions ``i`` and ``i+1`` (1-indexed)."""
        if not 1 <= i <= len(self) - 1:
            raise ValueError(f"swap position {i} out of range")
        w = list(self)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(w)

    def is_312_avoiding(self) -> bool:
        """No indices ``i1 < i2 < i3`` with ``s(i1) > s(i3) > s(i2)``."""
        n = len(self)
        for i1 in range(n - 2):
            lo = self[i1 + 1]  # min of self[i1+1 .. i3-1]
            for i3 in range(i1 + 2, n):
                if self[i1] > self[i3] > lo:
                    return False
                if self[i3] < lo:
                    lo = self[i3]
        return True

    def __repr__(self) -> str:
        return f"Permutation({''.join(map(str, self)) if self.n <= 9 else list(self)})"


def descents(sigma: Permutation) -> frozenset[int]:
    return Permutation(sigma).descents()


def ungar_move(sigma: Permutation, selected: Iterable[int]) -> Permutation:
    """Reverse the selected descents, consecutive ones as blocks.

    ``selected`` must be a subset of the descent set; the empty selection
    is the trivial move.  A run of consecutive selected descents at
    positions ``i..i+k`` reverses the factor at positions ``i..i+k+1``,
    which is strictly decreasing, so each block reversal sorts its factor.
    """
    sigma = Permutation(sigma)
    chosen = sorted(set(int(i) for i in selected))
    if not frozenset(chosen) <= sigma.descents():
        raise InvalidSelection(
            f"selection {chosen} not contained in descents {sorted(sigma.descents())}"
        )
    w = list(sigma)
    k = 0
    while k < len(chosen):
        start = chosen[k]
        end = start
        while k + 1 < len(chosen) and chosen[k + 1] == end + 1:
            k += 1
            end = chosen[k]
        w[start - 1 : end + 1] = reversed(w[start - 1 : end + 1])
        k += 1
    return Permutation(w)


def maximal_ungar_move(sigma: Permutation) -> Permutation:
    return ungar_move(sigma, Permutation(sigma).descents())


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


# -- the prefix projection to grid order ideals ------------------------------


def project_pi_k(sigma: Permutation, k: int) -> tuple[str, OrderIdeal]:
    """Project onto the lattice-path coordinate at level ``k``.

    The i-th character of the path is ``E`` when ``sigma(i) <= k`` and
    ``N`` otherwise.  The accompanying ideal of the grid ``R_{k,n-k}``
    collects the cells to the right of or below the path, indexed so that
    the bottom-left cell is minimal: the identity maps to the empty ideal
    and the ideal shrinks as the prefix gets sorted.
    """
    sigma = Permutation(sigma)
    n = sigma.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    path = "".join("E" if v <= k else "N" for v in sigma)
    e_pos = [i + 1 for i, ch in enumerate(path) if ch == "E"]  # position of x-th E
    n_pos = [i + 1 for i, ch in enumerate(path) if ch == "N"]
    grid = grid_poset(k, n - k)
    mask = 0
    for i in range(k):
        for j in range(n - k):
            # cell (i, j) lies right of / below the path
            if n_pos[j] < e_pos[k - 1 - i]:
                mask |= 1 << grid.index(i, j)
    return path, OrderIdeal(grid, mask)


def sorted_prefix_time(run, k: int) -> int:
    """First step index after which values ``<= k`` sit in positions ``<= k``.

    ``run`` is a :class:`~ungar_lab.engine.ChainRun` with recorded states
    (or any sequence of permutations); index 0 is the initial state.  Once
    the prefix condition holds it persists, since no descent can cross the
    boundary afterwards.  Raises :class:`NotReached` if the trajectory was
    truncated first.
    """
    states = getattr(run, "states", run)
    if states is None:
        raise ValueError("run has no recorded states")
    for t, state in enumerate(states):
        if all(state[i] <= k for i in range(k)):
            return t
    raise NotReached(f"prefix condition at k={k} not reached before truncation")

