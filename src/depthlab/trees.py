"""Permutations, binary search trees, record decompositions and quickselect.

The depth of the node holding a key, the record structure of the key's
predecessors, and the recursion count of quickselect at the key's rank are
three faces of the same quantity; this module provides all three so they can
be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import _validate_nl

__all__ = [
    "Permutation",
    "Bst",
    "RecordDecomposition",
    "FindTrace",
    "build_bst",
    "node_depth",
    "depth_plot",
    "record_decomposition",
    "find_select",
    "ascending_record_count",
    "descending_record_count",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, validated at construction."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if n == 0:
            raise ValueError("permutation must be nonempty")
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.values!r}")

    @classmethod
    def from_iterable(cls, values) -> "Permutation":
        return cls(tuple(int(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Bst:
    """Binary search tree from sequential insertion; immutable once built.

    left/right map a key to its child key (0 = no child); depth_of records
    the edge distance from the root at insertion time.
    """

    n: int
    root: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    depth_of: tuple[int, ...]
    insertion_order: tuple[int, ...]


def _permutation_array(n: int) -> np.ndarray:
    """All n! permutations of 1..n, one per int8 row.

    The rows for n come from the rows for n - 1 by inserting n into each of
    the n slots, one block of rows per slot.  Every enumeration over all
    permutations reads this array; callers cap n (9! rows is 3.3 MB).
    """
    perms = np.ones((1, 1), dtype=np.int8)
    for m in range(2, n + 1):
        grown = np.empty((m, perms.shape[0], m), dtype=np.int8)
        for slot in range(m):
            grown[slot, :, :slot] = perms[:, :slot]
            grown[slot, :, slot] = m
            grown[slot, :, slot + 1 :] = perms[:, slot:]
        perms = grown.reshape(-1, m)
    return perms


def _insert_keys(values: Sequence[int], stop: int = 0) -> tuple[list[int], list[int], list[int]]:
    """Left, right and depth lists by key of the tree built from values in order.

    Stops after placing key stop below the root.  values is unvalidated, for hot loops.
    """
    n = len(values)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    depth = [0] * (n + 1)
    root = values[0]
    for v in values[1:]:
        node = root
        d = 0
        while True:
            d += 1
            if v < node:
                nxt = left[node]
                if nxt == 0:
                    left[node] = v
                    break
            else:
                nxt = right[node]
                if nxt == 0:
                    right[node] = v
                    break
            node = nxt
        depth[v] = d
        if v == stop:
            break
    return left, right, depth


def build_bst(perm: Permutation) -> Bst:
    """Insert the permutation values left-to-right by the usual search-tree rule."""
    left, right, depth = _insert_keys(perm.values)
    return Bst(
        n=len(perm),
        root=perm.values[0],
        left=tuple(left),
        right=tuple(right),
        depth_of=tuple(depth),
        insertion_order=perm.values,
    )


def node_depth(bst: Bst, l: int) -> int:
    """Edge count from the root to the node holding key l."""
    if not 1 <= l <= bst.n:
        raise KeyError(f"key {l} not in tree of size {bst.n}")
    node = bst.root
    d = 0
    while node != l:
        node = bst.left[node] if l < node else bst.right[node]
        if node == 0:
            raise KeyError(f"key {l} not found")
        d += 1
    return d


def depth_plot(perm: Permutation) -> list[int]:
    """Depths of keys 1..n in the tree built from the permutation."""
    return _insert_keys(perm.values)[2][1:]


def ascending_record_count(seq: Sequence[int]) -> int:
    count = 0
    best = None
    for x in seq:
        if best is None or x > best:
            count += 1
            best = x
    return count


def descending_record_count(seq: Sequence[int]) -> int:
    return ascending_record_count([-x for x in seq])


@dataclass(frozen=True)
class RecordDecomposition:
    """Split of the predecessors of key l into smaller/larger sublists.

    position_n is the 1-based position of l; s_minus/s_plus are the positions
    of the smaller/larger predecessors, pi_minus/pi_plus the corresponding
    values in original order.  r_minus counts ascending records of pi_minus,
    r_plus descending records of pi_plus, and their sum equals the depth of
    the node holding l.
    """

    position_n: int
    s_minus: tuple[int, ...]
    s_plus: tuple[int, ...]
    pi_minus: tuple[int, ...]
    pi_plus: tuple[int, ...]
    r_minus: int
    r_plus: int


def record_decomposition(perm: Permutation, l: int) -> RecordDecomposition:
    _validate_nl(len(perm), l)
    values = perm.values
    pos = values.index(l) + 1
    s_minus = tuple(i for i in range(1, pos) if values[i - 1] < l)
    s_plus = tuple(i for i in range(1, pos) if values[i - 1] > l)
    pi_minus = tuple(values[i - 1] for i in s_minus)
    pi_plus = tuple(values[i - 1] for i in s_plus)
    return RecordDecomposition(
        position_n=pos,
        s_minus=s_minus,
        s_plus=s_plus,
        pi_minus=pi_minus,
        pi_plus=pi_plus,
        r_minus=ascending_record_count(pi_minus),
        r_plus=descending_record_count(pi_plus),
    )


@dataclass(frozen=True)
class FindTrace:
    """Outcome of one quickselect run.

    recursions counts the calls after the initial one, so it matches the BST
    depth of the selected key.  comparisons grows by len(list) - 1 per call.
    """

    selected_value: int
    recursions: int
    comparisons: int
    pivot_sequence: tuple[int, ...] = field(default_factory=tuple)


def find_select(perm: Permutation, l: int) -> FindTrace:
    """Quickselect for the l-th smallest value, first element as pivot.

    Operates on lists, partitioning stably so relative order is preserved,
    and iterates instead of recursing to keep the stack flat on adversarial
    inputs.
    """
    _validate_nl(len(perm), l)
    items = list(perm.values)
    rank = l
    pivots: list[int] = []
    comparisons = 0
    while True:
        pivot = items[0]
        pivots.append(pivot)
        comparisons += len(items) - 1
        smaller = [x for x in items[1:] if x < pivot]
        k = len(smaller)
        if k == rank - 1:
            return FindTrace(
                selected_value=pivot,
                recursions=len(pivots) - 1,
                comparisons=comparisons,
                pivot_sequence=tuple(pivots),
            )
        if k >= rank:
            items = smaller
        else:
            items = [x for x in items[1:] if x > pivot]
            rank = rank - 1 - k
