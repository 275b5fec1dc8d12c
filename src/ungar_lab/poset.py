"""Finite posets stored as explicit cover relations.

Elements are dense integer indices ``0..n-1``.  A poset is described by
``covers[x]``, the set of elements covered by ``x`` (drawn directly below
``x`` in the Hasse diagram).  The reflexive-transitive closure of the cover
relation is the order relation; it is cached as bitmasks (one Python int
per element) for posets with at most ``LEQ_CACHE_CAP`` elements and
recomputed on demand above that.

An order ideal (downward-closed subset) is a bitmask over the elements;
the poset answers the questions asked of one: ``is_down_closed`` and
``maximal_of_mask`` (the sites of the ideal-chain move).  Both scan a
mask bit-parallel, with no loop over its members: the cover edges are
grouped by index offset ``k = parent - child``, and ``below_k`` is the
mask of the elements with a parent ``k`` above them, so ``below_k &
(mask >> k)`` marks every element with such a parent in ``mask``.  The
table is built on first use and kept on the poset; it holds one int of
at most ``n`` bits per distinct cover offset (on a grid, two: 1 and
``cols``).

``grid_poset`` builds the grid ``R_{n,m}`` (the product of a chain of
length ``n-1`` and one of length ``m-1``) as a plain poset with
row-major indices.  The lattice ``J(P)`` itself is enumerated by
``engine.enumerate_states`` on an ``engine.IdealLattice``, under the
state cap ``DEFAULT_STATE_CAP``.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Sequence

from .errors import CycleDetected, RedundantCover

DEFAULT_STATE_CAP = 10**6
LEQ_CACHE_CAP = 4096


class FinitePoset:
    """An immutable finite poset on ``0..n-1`` given by its cover relation.

    Construction validates that the cover relation is acyclic and that no
    cover edge is implied by transitivity (an edge ``x lessdot y`` admits
    no ``z`` with ``x < z < y``); redundant edges are rejected rather than
    silently reduced, to surface construction bugs.
    """

    __slots__ = ("n", "covers", "parents", "_topo", "_down", "_minimal", "_maximal",
                 "_offsets")

    def __init__(self, covers: Sequence[Iterable[int]], *, validate: bool = True):
        n = len(covers)
        cov = tuple(frozenset(c) for c in covers)
        for x, cs in enumerate(cov):
            for c in cs:
                if not (0 <= c < n):
                    raise ValueError(f"cover target {c} out of range for n={n}")
                if c == x:
                    raise CycleDetected(f"element {x} covers itself")
        par = [set() for _ in range(n)]
        for x, cs in enumerate(cov):
            for c in cs:
                par[c].add(x)
        self.n = n
        self.covers = cov
        self.parents = tuple(frozenset(s) for s in par)
        self._topo = self._toposort()
        self._down = None
        self._minimal = tuple(x for x in range(n) if not cov[x])
        self._maximal = tuple(x for x in range(n) if not par[x])
        self._offsets = None
        if validate:
            self._check_irredundant()

    def _toposort(self) -> tuple[int, ...]:
        """Linear extension with covered elements first; detects cycles."""
        n = self.n
        indeg = [len(self.covers[x]) for x in range(n)]
        queue = sorted(x for x in range(n) if indeg[x] == 0)
        order: list[int] = []
        heapq.heapify(queue)
        while queue:
            x = heapq.heappop(queue)
            order.append(x)
            for y in self.parents[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(queue, y)
        if len(order) != n:
            raise CycleDetected("cover relation contains a cycle")
        return tuple(order)

    def _down_masks(self) -> tuple[int, ...]:
        if self._down is None:
            down = [0] * self.n
            for x in self._topo:
                m = 1 << x
                for c in self.covers[x]:
                    m |= down[c]
                down[x] = m
            if self.n <= LEQ_CACHE_CAP:
                self._down = tuple(down)
            else:
                return tuple(down)
        return self._down

    def _check_irredundant(self) -> None:
        down = self._down_masks()
        for x in range(self.n):
            for c in self.covers[x]:
                for z in self.covers[x]:
                    if z != c and down[z] >> c & 1:
                        raise RedundantCover(
                            f"cover edge ({c}, {x}) is implied via {z}"
                        )

    # -- order queries ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        """True iff ``x <= y``."""
        return bool(self._down_masks()[y] >> x & 1)

    def down_mask(self, y: int) -> int:
        """Bitmask of the principal ideal ``{x : x <= y}``."""
        return self._down_masks()[y]

    def topo_order(self) -> tuple[int, ...]:
        """A linear extension (covered elements before covering ones)."""
        return self._topo

    def minimal_elements(self) -> tuple[int, ...]:
        return self._minimal

    def maximal_elements(self) -> tuple[int, ...]:
        return self._maximal

    # -- ideals as bitmasks ------------------------------------------------

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _offset_table(self) -> tuple[tuple[int, int], ...]:
        """``(k, below_k)`` for each distinct cover offset ``k = parent - child``,
        where bit ``x`` of ``below_k`` is set iff ``x + k`` covers ``x``."""
        if self._offsets is None:
            below: dict[int, int] = {}
            for x, cs in enumerate(self.covers):
                for c in cs:
                    below[x - c] = below.get(x - c, 0) | 1 << c
            self._offsets = tuple(sorted(below.items()))
        return self._offsets

    def _with_parent_in(self, mask: int) -> int:
        """The elements with a cover-parent in ``mask``, as a mask."""
        out = 0
        for k, below in self._offset_table():
            out |= below & (mask >> k if k > 0 else mask << -k)
        return out

    def is_down_closed(self, mask: int) -> bool:
        """True iff every cover-child of a member of ``mask`` is a member."""
        return not self._with_parent_in(mask) & ~mask

    def maximal_of_mask(self, mask: int) -> tuple[int, ...]:
        """Members of ``mask`` with no cover-parent in ``mask``, ascending.

        For a downward-closed ``mask`` these are its maximal elements.  One
        shift, AND and OR per distinct cover offset (see the module
        docstring) finds them all; only the result's bits are then read
        out, lowest first.
        """
        m = mask & ~self._with_parent_in(mask)
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    # -- serialization ------------------------------------------------------

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Sorted ``(child, parent)`` pairs."""
        return sorted((c, x) for x in range(self.n) for c in self.covers[x])

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "covers": self.cover_pairs()})

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        """Parse ``{"n": N, "covers": [[child, parent], ...]}``.

        Raises ``ValueError`` unless the document is an object whose ``n``
        is a non-negative integer and whose ``covers`` is a list of integer
        pairs; the ``type(v) is int`` tests reject JSON ``true`` and ``2.0``,
        and a document nested too deeply for the parser raises it too.
        """
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("poset JSON is nested too deeply") from None
        if not isinstance(data, dict) or "n" not in data or "covers" not in data:
            raise ValueError('poset JSON must be an object with "n" and "covers"')
        n, covers = data["n"], data["covers"]
        if type(n) is not int or n < 0:
            raise ValueError(f'poset "n" must be a non-negative integer, not {n!r}')
        if not isinstance(covers, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(type(v) is int for v in pair)
            for pair in covers
        ):
            raise ValueError('poset "covers" must be a list of [child, parent] integer pairs')
        return build_poset(covers, n=n)

    def to_dot(self, labels: Sequence[str] | None = None) -> str:
        """Hasse diagram in DOT form, parents drawn above children."""
        name = labels if labels is not None else [str(x) for x in range(self.n)]
        lines = ["digraph hasse {", "  rankdir=BT;", "  edge [arrowhead=none];"]
        for x in range(self.n):
            lines.append(f'  {x} [label="{name[x]}"];')
        for c, x in self.cover_pairs():
            lines.append(f"  {c} -> {x};")
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.n == other.n
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.n, self.covers))

    def __repr__(self) -> str:
        return f"FinitePoset(n={self.n}, covers={len(self.cover_pairs())} edges)"


def build_poset(
    pairs: Iterable[tuple[int, int]], n: int | None = None
) -> FinitePoset:
    """Build a validated poset from ``(child, parent)`` cover pairs.

    ``n`` defaults to one more than the largest index mentioned.  Raises
    :class:`CycleDetected` for cyclic input and :class:`RedundantCover`
    when an edge is implied by transitivity.
    """
    pairs = list(pairs)
    if n is None:
        n = max((max(c, p) for c, p in pairs), default=-1) + 1
    covers = [set() for _ in range(n)]
    for c, p in pairs:
        if not (0 <= c < n and 0 <= p < n):
            raise ValueError(f"cover pair ({c}, {p}) out of range for n={n}")
        covers[p].add(c)
    return FinitePoset(covers)


def grid_poset(rows: int, cols: int) -> FinitePoset:
    """The grid ``R_{rows,cols}``: pairs ``(i, j)`` ordered componentwise.

    It is the product of a chain of length ``rows-1`` and one of length
    ``cols-1``.  Element ``(i, j)`` has index ``i * cols + j``, so
    ``divmod(e, cols)`` recovers it.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    # element e = (i, j) covers (i-1, j) = e - cols and (i, j-1) = e - 1
    covers = [[e - cols] * (e >= cols) + [e - 1] * (e % cols > 0)
              for e in range(rows * cols)]
    return FinitePoset(covers, validate=False)
