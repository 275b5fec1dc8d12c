"""The Tamari lattice as 312-avoiding permutations and as ordered forests.

Both incarnations are kept because they complement each other: the
312-avoiding permutations inherit the weak order (with the downward
projection collapsing arbitrary permutations onto them), while ordered
forests change one parent pointer per vertex operation and are the
representation of choice for simulation.

Ordered forests are canonically labeled: vertex names 1..n are fixed to
the left-to-right preorder traversal.  Under that labeling the ordering of
roots and of each child list coincides with the natural order on labels,
so a forest is fully determined by its parent array, and
``OrderedForest`` stores nothing else.  The vertex operation (reattach
the rightmost child of ``v`` to the parent of ``v``, immediately to the
right of ``v``) reduces to a single parent-pointer update.  Operations
preserve the canonical labeling; ``validate`` rechecks that from scratch.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .errors import Not312Avoiding
from .perms import Permutation, ungar_move


class OrderedForest:
    """An ordered forest on vertices ``1..n`` in canonical preorder labels.

    The parent tuple is the whole state: ``parent[v - 1]`` is the parent
    of ``v``, 0 for a root.  The first child of a non-leaf ``v`` is
    ``v + 1``, so ``v < n`` is a non-leaf exactly when ``parent[v] == v``;
    child lists and roots are read off the tuple on demand, in label order,
    which is the planar order under the canonical labeling.
    """

    __slots__ = ("n", "parent")

    def __init__(self, parent: Sequence[int], *, validate: bool = True):
        self.parent = tuple(map(int, parent))
        self.n = len(self.parent)
        if validate:
            self.validate()

    @classmethod
    def path(cls, n: int) -> "OrderedForest":
        """The maximal element: a single path 1 -> 2 -> ... -> n."""
        return cls(tuple(range(n)), validate=False)

    @classmethod
    def antichain(cls, n: int) -> "OrderedForest":
        """The minimal element: n isolated vertices."""
        return cls((0,) * n, validate=False)

    @property
    def roots(self) -> tuple[int, ...]:
        return self.children(0)

    def children(self, v: int) -> tuple[int, ...]:
        """The children of ``v`` in planar order; ``children(0)`` are the roots."""
        return tuple(self._child_lists()[v])

    def _child_lists(self) -> list[list[int]]:
        """``children(v)`` for every ``v`` in ``0..n``, in one pass."""
        kids: list[list[int]] = [[] for _ in range(self.n + 1)]
        for v, p in enumerate(self.parent, start=1):
            kids[p].append(v)
        return kids

    def non_leaves(self) -> tuple[int, ...]:
        par = self.parent
        return tuple(v for v in range(1, self.n) if par[v] == v)

    def validate(self) -> None:
        """Check that the labels are the canonical preorder traversal.

        They are exactly when every vertex's parent is 0 or lies on the
        rightmost path of the forest on the smaller labels (the ancestors
        of ``v - 1`` and ``v - 1`` itself); one stack holds that path.
        """
        path: list[int] = []
        for v, p in enumerate(self.parent, start=1):
            while path and path[-1] != p:
                path.pop()
            if p != 0 and not path:
                raise ValueError(
                    f"parent of {v} is {p}, not 0 or an ancestor-or-self of "
                    f"{v - 1}: labels are not a preorder traversal"
                )
            path.append(v)

    def operate(self, v: int) -> "OrderedForest":
        """Apply the vertex operation at ``v``; see :meth:`ungar`."""
        return self.ungar((v,))

    def ungar(self, vertices: Iterable[int]) -> "OrderedForest":
        """Operate on the given vertices in increasing label order.

        This is the random-move kernel: it equals the forest-lattice meet
        of the forest with all its one-vertex operations at the given
        non-leaves.  Leaves act trivially.  Otherwise the rightmost child
        of ``v`` is reattached to the parent of ``v`` immediately to the
        right of ``v`` (or becomes a new root tree immediately right of
        ``v``'s tree); with canonical labels that slot is the sorted
        position, so only one parent pointer changes.  The rightmost child
        is the last label ``u`` with parent ``v`` in the subtree of ``v``,
        which ends before the first later label whose parent is below ``v``.
        """
        n = self.n
        parent = list(self.parent)
        for v in sorted(set(vertices)):
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} out of range")
            if v < n and parent[v] == v:
                c = v + 1
                for u in range(v + 2, n + 1):
                    p = parent[u - 1]
                    if p < v:
                        break
                    if p == v:
                        c = u
                parent[c - 1] = parent[v - 1]
        forest = OrderedForest.__new__(OrderedForest)
        forest.n, forest.parent = n, tuple(parent)
        return forest

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "parent": list(self.parent), "children": self._child_lists()[1:]}
        )

    @classmethod
    def from_json(cls, text: str) -> "OrderedForest":
        data = json.loads(text)
        forest = cls([int(x) for x in data["parent"]])
        declared = [[int(x) for x in c] for c in data["children"]]
        if declared != forest._child_lists()[1:]:
            raise ValueError("children lists disagree with parent array")
        return forest

    def to_dot(self) -> str:
        lines = ["digraph forest {", "  rankdir=TB;"]
        for v in range(1, self.n + 1):
            lines.append(f'  {v} [label="{v}"];')
        for v, p in enumerate(self.parent, start=1):
            if p:
                lines.append(f"  {p} -> {v};")
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderedForest) and self.parent == other.parent

    def __hash__(self) -> int:
        return hash(self.parent)

    def __repr__(self) -> str:
        return f"OrderedForest(parent={list(self.parent)})"


class SimForest:
    """Mutable ordered forest for simulation.

    Labels stay canonical, so the subtree of ``v`` is the label interval
    ``[v, v + size[v])`` and every sibling order is the label order.  A
    sentinel vertex 0 holds the roots, so reattaching to a parent and
    splitting off a new root tree are the same pointer surgery.  Each
    vertex keeps its parent, subtree size, last child and previous
    sibling; the next sibling of ``v`` is the label just past its
    subtree when that label shares ``v``'s parent.  Non-leaves can only
    become leaves, never the reverse, and are kept in one ascending list,
    edited in place; the engine's forest sampler reads it live.
    """

    __slots__ = ("n", "parent", "size", "last_child", "prev_sib", "_non_leaves")

    def __init__(self, forest: OrderedForest):
        n = forest.n
        self.n = n
        self.parent = [0, *forest.parent]
        self.size = [1] * (n + 1)
        self.last_child = [0] * (n + 1)
        self.prev_sib = [0] * (n + 1)
        for v in range(n, 0, -1):
            self.size[self.parent[v]] += self.size[v]
        for v in range(1, n + 1):  # children arrive in planar order
            p = self.parent[v]
            self.prev_sib[v] = self.last_child[p]
            self.last_child[p] = v
        self._non_leaves = [v for v in range(1, n + 1) if self.last_child[v]]

    @classmethod
    def path(cls, n: int) -> "SimForest":
        return cls(OrderedForest.path(n))

    def copy(self) -> "SimForest":
        """An independent copy, made of list slices."""
        other = SimForest.__new__(SimForest)
        other.n = self.n
        other.parent = self.parent[:]
        other.size = self.size[:]
        other.last_child = self.last_child[:]
        other.prev_sib = self.prev_sib[:]
        other._non_leaves = self._non_leaves[:]
        return other

    def absorbed(self) -> bool:
        return not self._non_leaves

    def non_leaves(self) -> list[int]:
        """The non-leaves in ascending label order (a copy)."""
        return self._non_leaves[:]

    def operate(self, v: int) -> int:
        """Operate on ``v``; returns the detached child or 0 for a leaf.

        The reattachment target may be the sentinel 0, in which case the
        detached subtree becomes a new root tree immediately right of
        ``v``'s tree.  Pointer updates are O(1); a vertex that becomes a
        leaf is bisected out of the non-leaf list.
        """
        c = self.last_child[v]
        if c == 0:
            return 0
        parent, size = self.parent, self.size
        pc = self.prev_sib[c]
        self.last_child[v] = pc
        if not pc:
            nl = self._non_leaves
            del nl[bisect_left(nl, v)]
        size[v] -= size[c]
        w = parent[v]
        parent[c] = w
        self.prev_sib[c] = v
        # the label past v's old subtree (which ended with c's) is v's old
        # next sibling if it shares v's parent
        nxt = c + size[c]
        if nxt <= self.n and parent[nxt] == w:
            self.prev_sib[nxt] = c
        else:
            self.last_child[w] = c
        return c


# -- the projection S_n -> Av_n(312) ----------------------------------------


def project_down(sigma: Permutation) -> Permutation:
    """Apply allowable swaps until none remain; the result avoids 312.

    An allowable swap exchanges positions ``i, i+1`` whenever some later
    position ``j > i+1`` has ``sigma(i+1) < sigma(j) < sigma(i)``.  The
    fixed point is independent of the order in which swaps are applied;
    the tests replay randomized orders to confirm rather than assume it.
    A :class:`Permutation` is trusted and any other word validated, as in
    :func:`~ungar_lab.perms.ungar_move`; swaps keep a permutation one.
    """
    w = list(sigma if type(sigma) is Permutation else Permutation(sigma))
    n = len(w)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                lo, hi = w[i + 1], w[i]
                if any(lo < w[j] < hi for j in range(i + 2, n)):
                    w[i], w[i + 1] = w[i + 1], w[i]
                    changed = True
    return tuple.__new__(Permutation, w)


def require_av312(sigma: Permutation) -> Permutation:
    sigma = Permutation(sigma)
    if not sigma.is_312_avoiding():
        raise Not312Avoiding(f"{sigma} contains a 312 pattern")
    return sigma


def av_ungar_move(sigma: Permutation, selected: Iterable[int]) -> Permutation:
    """Move in the 312-avoiding sublattice: block reversal then projection."""
    return project_down(ungar_move(sigma, selected))


# -- the forest bijection ----------------------------------------------------


def phi(sigma: Permutation) -> OrderedForest:
    """Ordered forest of a 312-avoiding permutation.

    Plot the points ``(i, sigma(i))``.  Point ``j`` is the parent of point
    ``i < j`` when ``sigma(i) > sigma(j)`` and the closed rectangle
    spanned by the two points contains no other plot point; children and
    root trees are ordered by plot position, and the preorder traversal
    renames plot point ``j`` to ``sigma(j)``.  That parent is the first
    smaller value ``sigma(j)`` right of ``i``: a later smaller ``sigma(j')``
    with point ``j`` outside its rectangle would make ``i, j, j'`` a 312
    pattern.  One stack of the values awaiting a smaller one finds them all.
    """
    sigma = require_av312(sigma)
    parent = [0] * sigma.n
    waiting: list[int] = []
    for v in sigma:
        while waiting and waiting[-1] > v:
            parent[waiting.pop() - 1] = v
        waiting.append(v)
    return OrderedForest(parent, validate=False)


def phi_inverse(forest: OrderedForest) -> Permutation:
    """Permutation of an ordered forest: its vertices in postorder.

    In postorder a vertex is followed by its later siblings' subtrees, all
    of larger labels, then by its parent: the parent is the first smaller
    value after it, as :func:`phi` reads it.  One stack holds the path from
    a root to the last vertex read, as in :meth:`OrderedForest.validate`;
    a vertex is written once a vertex outside its subtree is read.
    """
    word: list[int] = []
    path: list[int] = []
    for v, p in enumerate(forest.parent, start=1):
        while path and path[-1] != p:
            word.append(path.pop())
        path.append(v)
    word.extend(reversed(path))
    return Permutation(word)


# -- counting -----------------------------------------------------------------


def catalan(n: int) -> int:
    """The ``n``-th Catalan number ``C(2n, n) / (n + 1)``."""
    return math.comb(2 * n, n) // (n + 1)
