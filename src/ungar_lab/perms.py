"""The symmetric group under the right weak order.

Permutations are one-line words with 1-indexed values; positions are also
1-indexed externally (0-indexed only inside loops).  A position ``i`` is a
descent when ``sigma(i) > sigma(i+1)``.  Selecting a set ``T`` of descents
and reversing them, with consecutive selected descents reversed as one
block, is the block-reversal move; lattice-theoretically it sends
``sigma`` to the meet of ``{sigma}`` with the corresponding covered
elements, and any nontrivial move strictly decreases the inversion count.
The test suite checks the move against the weak-order meet computed on
inversion sets.

The prefix projection ``project_pi_k`` maps a permutation to a lattice
path and an order ideal of the grid ``R_{k,n-k}``, as a bitmask.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InvalidSelection, NotReached


class Permutation(tuple):
    """One-line word ``sigma(1..n)``, a bijection on ``1..n``.

    The constructor is where a word is validated.  Instances are immutable,
    so the moves here and in :mod:`ungar_lab.tamari` trust them and check
    only other words.
    """

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

    def descents(self) -> tuple[int, ...]:
        """Ascending positions ``i`` in ``1..n-1`` with ``sigma(i) > sigma(i+1)``.

        Built from a list, not a generator: ``tuple(genexpr)`` grows its tuple
        by resizing, and the interpreter's tuple freelists keep the resized
        blocks, so memory crept up with the step count.
        """
        return tuple([i for i in range(1, len(self)) if self[i - 1] > self[i]])

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


def ungar_move(sigma: Permutation, selected: Iterable[int]) -> Permutation:
    """Reverse the selected descents, consecutive ones as blocks.

    ``selected`` must be a subset of the descent set; the empty selection
    is the trivial move.  A run of consecutive selected descents at
    positions ``i..i+k`` reverses the factor at positions ``i..i+k+1``,
    which is strictly decreasing, so each block reversal sorts its factor.
    The selection is checked here; the reversal is :func:`_reverse_runs`,
    which the S_n word sampler in :mod:`ungar_lab.engine` calls on its
    own word with selections drawn from its descents.

    A :class:`Permutation` is valid by construction, so it is trusted; any
    other word is validated first.  A block reversal of a permutation is a
    permutation, so the result is built without a second check.
    """
    if type(sigma) is not Permutation:
        sigma = Permutation(sigma)
    n = len(sigma)
    chosen = sorted(map(int, selected))
    for i in chosen:
        if not (0 < i < n and sigma[i - 1] > sigma[i]):
            raise InvalidSelection(
                f"selection {sorted(set(chosen))} not contained in descents "
                f"{list(sigma.descents())}"
            )
    w = list(sigma)
    _reverse_runs(w, chosen)
    return tuple.__new__(Permutation, w)


def _reverse_runs(w: list, chosen: Iterable[int]) -> None:
    """Reverse in place the factor of ``w`` under each run of adjacent
    positions of ``chosen``: a run ``i..i+k`` reverses positions
    ``i..i+k+1`` (1-indexed).  ``chosen`` is ascending descents of ``w``;
    a repeated position extends nothing."""
    start = end = -1  # the run being collected
    for i in chosen:
        if i > end + 1:  # a new run
            if end > 0:
                w[start - 1 : end + 1] = reversed(w[start - 1 : end + 1])
            start = i
        end = i
    if end > 0:
        w[start - 1 : end + 1] = reversed(w[start - 1 : end + 1])


# -- the prefix projection to grid order ideals ------------------------------


def project_pi_k(sigma: Permutation, k: int) -> tuple[str, int]:
    """Project onto the lattice-path coordinate at level ``k``.

    The i-th character of the path is ``E`` when ``sigma(i) <= k`` and
    ``N`` otherwise.  The accompanying ideal of ``grid_poset(k, n - k)``
    is the bitmask of the cells to the right of or below the path (cell
    ``(i, j)`` at bit ``i * (n - k) + j``), indexed so that the bottom-left
    cell is minimal: the identity maps to the empty ideal and the ideal
    shrinks as the prefix gets sorted.
    """
    sigma = Permutation(sigma)
    n = sigma.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    path = "".join("E" if v <= k else "N" for v in sigma)
    e_pos = [i + 1 for i, ch in enumerate(path) if ch == "E"]  # position of x-th E
    n_pos = [i + 1 for i, ch in enumerate(path) if ch == "N"]
    mask = 0
    for i in range(k):
        for j in range(n - k):
            # cell (i, j) lies right of / below the path
            if n_pos[j] < e_pos[k - 1 - i]:
                mask |= 1 << (i * (n - k) + j)
    return path, mask


def sorted_prefix_time(run, k: int) -> int:
    """First step index after which values ``<= k`` sit in positions ``<= k``.

    ``run`` is a :class:`~ungar_lab.engine.ChainRun` run with ``record=True``
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

