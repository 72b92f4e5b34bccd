"""Canonical subset enumeration shared by the exact minimum-set searches.

Order contract: cardinality ascending, lexicographic by sorted vertex tuple
within a cardinality.  Searches that force a fixed subset into every
candidate enumerate exactly the supersets of that subset, in the same
relative order as the unrestricted enumeration.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, combinations
from math import comb
from operator import or_

from .graphs import Mask, mask_of, vertex_tuple


def ascending_subsets(universe: Mask, forced: Mask = 0) -> Iterator[Mask]:
    """Supersets of ``forced`` inside ``universe | forced``, smallest first.

    The first yielded mask is ``forced`` itself (possibly empty).
    """
    free = vertex_tuple(universe & ~forced)
    for extra in range(len(free) + 1):
        for combo in combinations(free, extra):
            yield forced | mask_of(combo)


def candidate_rank(members: Mask, universe: Mask, forced: Mask = 0) -> int:
    """1-based position of ``members`` among the nonempty sets that
    ``ascending_subsets(universe, forced)`` yields, computed without the walk.

    With m free vertices (``universe`` minus ``forced``) and t of them in
    ``members``, the candidates before it are the C(m, j) sets with j < t
    free vertices (for j = 0, ``forced`` itself, which is no candidate when
    empty), and the t-sets lexicographically before its sorted free
    positions (p_0 < ... < p_{t-1}), which number the sum over j of
    C(m - 1 - x, t - 1 - j) for p_{j-1} < x < p_j.  By the hockey-stick
    identity each inner sum is C(m - p_{j-1} - 1, t - j) - C(m - p_j, t - j).
    """
    free = vertex_tuple(universe & ~forced)
    m = len(free)
    picks = [i for i, v in enumerate(free) if members >> v & 1]
    t = len(picks)
    rank = sum(comb(m, j) for j in range(t)) + 1 - (forced == 0)
    start = 0
    for j, p in enumerate(picks):
        rank += comb(m - start, t - j) - comb(m - p, t - j)
        start = p + 1
    return rank


def first_cover(table: Sequence[Sequence[Mask]], n: int, forced: Mask) -> tuple[Mask | None, int]:
    """First nonempty S ⊇ ``forced``, in the order of ``ascending_subsets``,
    whose closure S ∪ ⋃_{u<v in S} table[u][v] (``table`` symmetric, n × n)
    covers all n vertices, and its 1-based rank among the nonempty candidates
    (None only when n = 0).

    A depth-first search per cardinality carries the closure of the current
    prefix P and, for each free vertex w still to come, the row
    bit(w) | ⋃_{u in P} table[u][w]; extending P costs O(n) and each leaf
    test is one OR.  The closure is monotone, so when a sibling's bound
    (closure | rows from it on | pairs among the free vertices from it on)
    misses a vertex, no candidate under it or a later sibling covers: they
    are counted with ``comb``, not tested, and the rank is the same as a
    one-by-one scan's.
    """
    full = (1 << n) - 1
    free = [v for v in range(n) if not forced >> v & 1]
    m = len(free)
    closure, rows = 0, [1 << w for w in range(n)]
    for u in vertex_tuple(forced):  # the forced vertices are every candidate's prefix
        closure |= rows[u]
        rows = [r | t for r, t in zip(rows, table[u])]
    rows = [rows[w] for w in free]
    pair = [0] * (m + 1)  # pair[i]: union of table[a][b] over a < b in free[i:]
    for i in range(m - 1, -1, -1):
        tu = table[free[i]]
        pair[i] = pair[i + 1]
        for w in free[i + 1:]:
            pair[i] |= tu[w]
    explored = 0

    def search(closure: Mask, rows: list[Mask], start: int, need: int) -> Mask | None:
        # rows[p] belongs to free[start + p]; returns the chosen free vertices
        nonlocal explored
        reach = list(accumulate(reversed(rows), or_))[::-1]
        for p in range(len(rows) - need + 1):
            i = start + p
            if closure | pair[i] | reach[p] != full:
                explored += comb(m - i, need)
                return None
            if need == 1:
                explored += 1
                if closure | rows[p] == full:
                    return 1 << free[i]
                continue
            tv = table[free[i]]
            below = [r | tv[w] for r, w in zip(rows[p + 1:], free[i + 1:])]
            found = search(closure | rows[p], below, i + 1, need - 1)
            if found is not None:
                return found | 1 << free[i]
        return None

    try:
        if forced:
            explored = 1
            if closure == full:
                return forced, explored
        for need in range(1, m + 1):
            found = search(closure, rows, 0, need)
            if found is not None:
                return forced | found, explored
        return None, explored
    finally:
        del search  # it refers to itself; without this the tables wait for the cyclic GC
