"""The Tamari lattice as 312-avoiding permutations and as ordered forests.

Both incarnations are kept because they complement each other: the
312-avoiding permutations inherit the weak order (with the downward
projection collapsing arbitrary permutations onto them), while ordered
forests admit O(1) vertex operations and are the representation of choice
for simulation.

Ordered forests are canonically labeled: vertex names 1..n are fixed to
the left-to-right preorder traversal.  Under that labeling the ordering of
roots and of each child list coincides with the natural order on labels,
so a forest is fully determined by its parent array, and the vertex
operation (reattach the rightmost child of ``v`` to the parent of ``v``,
immediately to the right of ``v``) reduces to a single parent-pointer
update.  Operations preserve the canonical labeling; ``validate`` rechecks
that from scratch.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .errors import Not312Avoiding
from .perms import Permutation, ungar_move

__all__ = [
    "OrderedForest",
    "SimForest",
    "project_down",
    "covers_av312",
    "phi",
    "phi_inverse",
    "restrict",
    "av312_permutations",
    "ordered_forests",
    "catalan",
]


class OrderedForest:
    """An ordered forest on vertices ``1..n`` in canonical preorder labels.

    ``parent[v]`` is 0 for roots.  Children and roots are recovered by
    sorting, which is exactly the planar order under the canonical
    labeling.
    """

    __slots__ = ("n", "parent", "_children", "_roots")

    def __init__(self, parent: Sequence[int], *, validate: bool = True):
        par = tuple(int(x) for x in parent)
        n = len(par)
        for v, p in enumerate(par, start=1):
            if p != 0 and not 1 <= p < v:
                raise ValueError(
                    f"parent of {v} is {p}; canonical labels need parent < vertex"
                )
        self.n = n
        self.parent = par
        kids: list[list[int]] = [[] for _ in range(n + 1)]
        for v, p in enumerate(par, start=1):
            kids[p].append(v)
        self._children = tuple(tuple(k) for k in kids)
        self._roots = self._children[0]
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
        return self._roots

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def non_leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self._children[v])

    def descendant_count(self, v: int) -> int:
        total = 0
        stack = list(self._children[v])
        while stack:
            u = stack.pop()
            total += 1
            stack.extend(self._children[u])
        return total

    def validate(self) -> None:
        """Recompute the preorder traversal and check labels are canonical.

        Rules: label 1 goes to the root of the leftmost tree; after a
        non-leaf, its leftmost child; after a leaf, the leftmost unlabeled
        child of the largest smaller label that still has one; after a
        finished tree, the root of the next tree.  Under the canonical
        encoding this must visit 1, 2, ..., n in order.
        """
        expected = 1
        for r in self._roots:
            stack = [r]
            while stack:
                v = stack.pop()
                if v != expected:
                    raise ValueError(
                        f"labels are not a preorder traversal (saw {v}, "
                        f"expected {expected})"
                    )
                expected += 1
                stack.extend(reversed(self._children[v]))
        if expected != self.n + 1:
            raise ValueError("forest is disconnected from its label range")

    def operate(self, v: int) -> "OrderedForest":
        """Apply the vertex operation at ``v``.

        Leaves act trivially.  Otherwise the rightmost child of ``v`` is
        reattached to the parent of ``v`` immediately to the right of
        ``v`` (or becomes a new root tree immediately right of ``v``'s
        tree); with canonical labels that slot is the sorted position, so
        only one parent pointer changes.
        """
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range")
        kids = self._children[v]
        if not kids:
            return self
        c = kids[-1]
        par = list(self.parent)
        par[c - 1] = self.parent[v - 1]
        return OrderedForest(par, validate=False)

    def ungar(self, vertices: Iterable[int]) -> "OrderedForest":
        """Operate on the given vertices in increasing label order.

        This is the random-move kernel: it equals the forest-lattice meet
        of the forest with all its one-vertex operations at the given
        non-leaves; leaves act trivially.
        """
        f = self
        for v in sorted(set(vertices)):
            f = f.operate(v)
        return f

    def right_to_left_preorder(self) -> tuple[int, ...]:
        """Label ``r(v)`` of each vertex under the mirrored traversal.

        Same rules as the preorder traversal with left and right swapped
        uniformly: rightmost tree first, rightmost child first.
        """
        r = [0] * (self.n + 1)
        counter = 1
        for root in reversed(self._roots):
            stack = [root]
            while stack:
                v = stack.pop()
                r[v] = counter
                counter += 1
                stack.extend(self._children[v])
        return tuple(r[1:])

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "parent": list(self.parent),
                "children": [list(self._children[v]) for v in range(1, self.n + 1)],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "OrderedForest":
        data = json.loads(text)
        forest = cls([int(x) for x in data["parent"]])
        declared = [[int(x) for x in c] for c in data["children"]]
        if declared != [list(forest.children(v)) for v in range(1, forest.n + 1)]:
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
    """Mutable ordered forest for simulation, all operations O(1).

    Sibling lists are doubly linked and a sentinel vertex 0 holds the
    roots, so reattaching to a parent and splitting off a new root tree
    are the same pointer surgery.  Subtree sizes are maintained
    incrementally (descendant labels stay contiguous, so the detached
    interval at an operation on a root is ``[c, c + size(c) - 1]``).
    Non-leaves can only become leaves, never the reverse, and are kept in
    an ascending linked list for fast per-step iteration.
    """

    __slots__ = (
        "n",
        "parent",
        "first_child",
        "last_child",
        "next_sib",
        "prev_sib",
        "size",
        "nonleaf_count",
        "_nl_next",
        "_nl_prev",
        "_nl_head",
    )

    def __init__(self, forest: OrderedForest):
        n = forest.n
        self.n = n
        self.parent = [0] * (n + 1)
        self.first_child = [0] * (n + 1)
        self.last_child = [0] * (n + 1)
        self.next_sib = [0] * (n + 1)
        self.prev_sib = [0] * (n + 1)
        self.size = [1] * (n + 1)
        for v in range(1, n + 1):
            self.parent[v] = forest.parent[v - 1]
        for holder in range(n + 1):
            kids = forest.children(holder) if holder else forest.roots
            prev = 0
            for c in kids:
                if prev == 0:
                    self.first_child[holder] = c
                else:
                    self.next_sib[prev] = c
                self.prev_sib[c] = prev
                prev = c
            self.last_child[holder] = prev
        for v in range(n, 0, -1):
            p = self.parent[v]
            if p:
                self.size[p] += self.size[v]
        # ascending linked list of non-leaves
        self._nl_next = [0] * (n + 2)
        self._nl_prev = [0] * (n + 2)
        self._nl_head = 0
        nonleaves = [v for v in range(1, n + 1) if self.first_child[v]]
        self.nonleaf_count = len(nonleaves)
        prev = 0
        for v in nonleaves:
            if prev == 0:
                self._nl_head = v
            else:
                self._nl_next[prev] = v
            self._nl_prev[v] = prev
            prev = v

    @classmethod
    def path(cls, n: int) -> "SimForest":
        return cls(OrderedForest.path(n))

    def absorbed(self) -> bool:
        return self.nonleaf_count == 0

    def non_leaves(self) -> list[int]:
        out = []
        v = self._nl_head
        while v:
            out.append(v)
            v = self._nl_next[v]
        return out

    def _drop_nonleaf(self, v: int) -> None:
        nxt, prv = self._nl_next[v], self._nl_prev[v]
        if prv:
            self._nl_next[prv] = nxt
        else:
            self._nl_head = nxt
        if nxt:
            self._nl_prev[nxt] = prv
        self.nonleaf_count -= 1

    def operate(self, v: int) -> int:
        """Operate on ``v``; returns the detached child or 0 for a leaf.

        The reattachment target may be the sentinel 0, in which case the
        detached subtree becomes a new root tree immediately right of
        ``v``'s tree.
        """
        c = self.last_child[v]
        if c == 0:
            return 0
        pc = self.prev_sib[c]
        self.last_child[v] = pc
        if pc:
            self.next_sib[pc] = 0
        else:
            self.first_child[v] = 0
            self._drop_nonleaf(v)
        self.size[v] -= self.size[c]
        w = self.parent[v]
        nv = self.next_sib[v]
        self.next_sib[v] = c
        self.prev_sib[c] = v
        self.next_sib[c] = nv
        if nv:
            self.prev_sib[nv] = c
        else:
            self.last_child[w] = c
        self.parent[c] = w
        return c

    def snapshot(self) -> OrderedForest:
        return OrderedForest(self.parent[1:], validate=False)


# -- the projection S_n -> Av_n(312) ----------------------------------------


def project_down(sigma: Permutation) -> Permutation:
    """Apply allowable swaps until none remain; the result avoids 312.

    An allowable swap exchanges positions ``i, i+1`` whenever some later
    position ``j > i+1`` has ``sigma(i+1) < sigma(j) < sigma(i)``.  The
    fixed point is independent of the order in which swaps are applied;
    the tests replay randomized orders to confirm rather than assume it.
    """
    w = list(Permutation(sigma))
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
    return Permutation(w)


def require_av312(sigma: Permutation) -> Permutation:
    sigma = Permutation(sigma)
    if not sigma.is_312_avoiding():
        raise Not312Avoiding(f"{sigma} contains a 312 pattern")
    return sigma


def covers_av312(sigma: Permutation) -> list[Permutation]:
    """Elements covered by ``sigma`` in the 312-avoiding sublattice.

    These are the projections of the weak-order covers; the projection
    restricted to covers is a bijection, so the list has exactly one entry
    per descent and no repeats.
    """
    sigma = require_av312(sigma)
    return [project_down(sigma.swap(i)) for i in sorted(sigma.descents())]


def av_ungar_move(sigma: Permutation, selected: Iterable[int]) -> Permutation:
    """Move in the 312-avoiding sublattice: block reversal then projection."""
    return project_down(ungar_move(sigma, selected))


# -- the forest bijection ----------------------------------------------------


def phi(sigma: Permutation) -> OrderedForest:
    """Ordered forest of a 312-avoiding permutation.

    Plot the points ``(i, sigma(i))``.  Point ``j`` is the parent of point
    ``i < j`` when ``sigma(i) > sigma(j)`` and the closed rectangle
    spanned by the two points contains no other plot point.  Children and
    root trees are ordered by plot position, and vertices are then
    renamed by the preorder traversal (which renames plot point ``j`` to
    ``sigma(j)``).
    """
    sigma = require_av312(sigma)
    n = sigma.n
    parent_plot = [0] * (n + 1)  # plot index of parent, 0 if root
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if sigma[i - 1] > sigma[j - 1]:
                lo, hi = sigma[j - 1], sigma[i - 1]
                blocked = any(
                    i < t < j and lo < sigma[t - 1] < hi for t in range(i + 1, j)
                )
                if not blocked:
                    parent_plot[i] = j
                    break  # in-degree is at most 1 for 312-avoiders
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        kids[parent_plot[i]].append(i)  # ascending plot order = planar order
    # preorder relabel
    label = [0] * (n + 1)
    counter = 1
    for root in kids[0]:
        stack = [root]
        while stack:
            v = stack.pop()
            label[v] = counter
            counter += 1
            stack.extend(reversed(kids[v]))
    parent = [0] * n
    for i in range(1, n + 1):
        if parent_plot[i]:
            parent[label[i] - 1] = label[parent_plot[i]]
    return OrderedForest(parent, validate=False)


def phi_inverse(forest: OrderedForest) -> Permutation:
    """Permutation of an ordered forest: ``sigma(n+1-r(v)) = l(v)``.

    ``l`` is the canonical (left-to-right) preorder label, i.e. the vertex
    name itself, and ``r`` the right-to-left preorder label.
    """
    n = forest.n
    r = forest.right_to_left_preorder()
    word = [0] * n
    for v in range(1, n + 1):
        word[n - r[v - 1]] = v
    return Permutation(word)


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


# -- enumeration --------------------------------------------------------------


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


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
