"""Canonical subset enumeration shared by the exact minimum-set searches.

Order contract: cardinality ascending, lexicographic by sorted vertex tuple
within a cardinality.  Searches that force a fixed subset into every
candidate enumerate exactly the supersets of that subset, in the same
relative order as the unrestricted enumeration.

A family of vertex sets of an order-n graph is one int of 2^n bits, bit W
set exactly when W is in it, as ``geodetic_sets`` and ``steiner_sets`` return.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import or_

from .graphs import Mask, mask_of, vertex_tuple

# ceiling on the cap of every engine that builds a family: their memory
# doubles with each order, to about 0.6 GiB (geodetic) and 0.25 GiB (Steiner) at 24
FAMILY_MAX_ORDER = 24


class SearchResult(namedtuple("SearchResult", "value witness explored")):
    """Outcome of a minimum-set search: the least size, the canonical
    witness, and ``explored``, the witness's rank among the nonempty
    candidates by ``candidate_rank``, computed, not counted by the search.

    ``value is None`` means no set exists (k-geodetic search with no vertex
    pair at distance exactly k); this is an answer, not an error.
    """

    __slots__ = ()

    @classmethod
    def of(cls, witness: Mask, universe: Mask, forced: Mask = 0) -> SearchResult:
        """The result whose witness is ``witness``, ranked among the
        candidates of ``ascending_subsets(universe, forced)``."""
        return cls(witness.bit_count(), vertex_tuple(witness), candidate_rank(witness, universe, forced))


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


@lru_cache(maxsize=2)  # the two most recent orders, so a run over many keeps two
def set_patterns(n: int) -> tuple[int, ...]:
    """``Q[u]`` for order n: bit W set exactly when u is in the vertex set W,
    that is runs of 2^u zero bits and 2^u one bits, repeated to 2^n bits."""
    Q = []
    for u in range(n):
        q, width = ((1 << (1 << u)) - 1) << (1 << u), 2 << u
        while width < 1 << n:
            q |= q << width
            width <<= 1
        Q.append(q)
    return tuple(Q)


@lru_cache(maxsize=2)
def _size_layers(n: int) -> tuple[int, ...]:
    """``L[j]`` for order n: bit W set exactly when |W| = j.  Adding vertex
    u doubles the sets, and W + u has bit W + 2^u and one more member, so
    each step is L[j] | L[j - 1] << 2^u, with no pass over the 2^n sets."""
    L = [1]
    for u in range(n):
        L = [a | b << (1 << u) for a, b in zip(L + [0], [0] + L)]
    return tuple(L)


def least_size(sets: int, n: int) -> int | None:
    """The least |W| over the bits W of the family ``sets``; None when it is 0."""
    for j, layer in enumerate(_size_layers(n)):
        if sets & layer:
            return j
    return None


def first_set(sets: int, n: int) -> Mask | None:
    """The first set of the family ``sets`` (order n) in the order of
    ``ascending_subsets``, or None when it is 0: in the least size layer it
    meets, keep for u = 0..n-1 only the sets that hold u whenever one does.
    Of two sets of one size, the first holds the lowest vertex where they
    differ.  That is at most 2n + 1 ANDs on 2^n-bit ints."""
    for layer in _size_layers(n):
        if left := sets & layer:
            break
    else:
        return None
    for q in set_patterns(n):
        if left & q:
            left &= q
    return left.bit_length() - 1


def first_cover(table: Sequence[Sequence[Mask]], n: int, forced: Mask) -> Mask | None:
    """First nonempty S ⊇ ``forced``, in the order of ``ascending_subsets``,
    whose closure S ∪ ⋃_{u<v in S} table[u][v] (``table`` symmetric, n × n)
    covers all n vertices (None only when n = 0).

    A depth-first search per cardinality carries the closure of the current
    prefix P and, for each free vertex w still to come, the row
    bit(w) | ⋃_{u in P} table[u][w]; extending P costs O(n) and each leaf
    test is one OR.  The closure is monotone, so when a sibling's bound
    (closure | rows from it on | pairs among the free vertices from it on)
    misses a vertex, no candidate under it or a later sibling covers, and
    none of them is tested.
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
    if forced and closure == full:
        return forced
    for need in range(1, m + 1):
        found = _cover_search(table, free, pair, full, closure, rows, 0, need)
        if found is not None:
            return forced | found
    return None


def _cover_search(table: Sequence[Sequence[Mask]], free: list[int], pair: list[Mask], full: Mask,
                  closure: Mask, rows: list[Mask], start: int, need: int) -> Mask | None:
    # rows[p] belongs to free[start + p]; returns the chosen free vertices
    reach = list(accumulate(reversed(rows), or_))[::-1]
    for p in range(len(rows) - need + 1):
        i = start + p
        if closure | pair[i] | reach[p] != full:
            return None
        if need == 1:
            if closure | rows[p] == full:
                return 1 << free[i]
            continue
        tv = table[free[i]]
        below = [r | tv[w] for r, w in zip(rows[p + 1:], free[i + 1:])]
        found = _cover_search(table, free, pair, full, closure | rows[p], below, i + 1, need - 1)
        if found is not None:
            return found | 1 << free[i]
    return None
