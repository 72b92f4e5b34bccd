"""Steiner distance, Steiner hulls, and the Steiner number.

Queries about one terminal set go through a dynamic program over terminal
subsets with the classic split/regrow recurrence: ``dp[T][v]`` is the minimum
number of edges of a tree containing the terminals in ``T`` plus the vertex
``v``.  One table per terminal set yields both the Steiner distance (last row
at any terminal) and the Steiner hull, since v lies on a minimum tree for W
exactly when d(W + v) = d(W).

The Steiner number asks that question of many candidate sets, so it builds
one table of the Steiner distance of every vertex subset instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Sequence

from .errors import CapExceeded, DomainError
from .graphs import (
    Graph,
    Mask,
    bfs_distances,
    bits,
    is_connected,
    mask_of,
    vertex_tuple,
)
from .subsets import ascending_subsets

DEFAULT_STEINER_CAP = 16
DEFAULT_TERMINAL_CAP = 16
DEFAULT_ORACLE_CAP = 10

_INF = 1 << 30
_UNSET = 255  # not yet marked; Steiner distances stay below the 62-vertex limit


@dataclass(frozen=True)
class SteinerResult:
    """Minimum Steiner set: its size, the canonical witness, and the number
    of candidate sets examined."""

    value: int
    witness: tuple[int, ...]
    explored: int


def _steiner_dp(dist: Sequence[Sequence[int]], terms: Sequence[int]) -> list:
    """dp rows indexed by terminal-subset bitmask; dp[m][v] = min edges of a
    tree containing {terms[i] : bit i of m} plus v."""
    n = len(dist)
    size = 1 << len(terms)
    dp: list = [None] * size
    for i, t in enumerate(terms):
        dp[1 << i] = list(dist[t])
    for m in range(3, size):
        if dp[m] is not None:  # singleton rows are exact already
            continue
        low = m & -m
        rest = m ^ low
        best = [_INF] * n
        b = rest
        while b:  # unordered splits of m, the low terminal staying on one side
            best = list(map(min, best, map(add, dp[m ^ b], dp[b])))
            b = (b - 1) & rest
        row = best
        for u in range(n):  # regrow: attach v by a shortest path to the split vertex u
            bu = best[u]
            if bu >= _INF:
                continue
            du = dist[u]
            row = list(map(min, row, [bu + d for d in du]))
        dp[m] = row
    return dp


def _validated_terms(G: Graph, members: Mask, terminal_cap: int) -> tuple[int, ...]:
    if members == 0:
        raise DomainError("terminal set is empty")
    if members & ~G.full_mask:
        raise DomainError("terminal set is not within the graph")
    if not is_connected(G):
        raise DomainError("Steiner distance is defined for connected graphs")
    terms = vertex_tuple(members)
    if len(terms) > terminal_cap:
        raise CapExceeded(f"terminal sets capped at {terminal_cap}, got {len(terms)}")
    return terms


def steiner_distance(G: Graph, members: Mask, *, terminal_cap: int = DEFAULT_TERMINAL_CAP) -> int:
    """Minimum number of edges of a connected subgraph containing the set
    (necessarily a tree)."""
    terms = _validated_terms(G, members, terminal_cap)
    dist = [list(r) for r in bfs_distances(G).rows]
    return _steiner_dp(dist, terms)[-1][terms[0]]


def _hull_from_row(last: Sequence[int], d: int) -> Mask:
    m = 0
    for v, c in enumerate(last):
        if c == d:
            m |= 1 << v
    return m


def steiner_hull(G: Graph, members: Mask, *, terminal_cap: int = DEFAULT_TERMINAL_CAP) -> Mask:
    """Vertices lying on at least one minimum tree for the set:
    v is in the hull exactly when d(W + v) = d(W)."""
    terms = _validated_terms(G, members, terminal_cap)
    dist = [list(r) for r in bfs_distances(G).rows]
    last = _steiner_dp(dist, terms)[-1]
    return _hull_from_row(last, last[terms[0]])


def is_steiner_set(G: Graph, members: Mask, *, terminal_cap: int = DEFAULT_TERMINAL_CAP) -> bool:
    return steiner_hull(G, members, terminal_cap=terminal_cap) == G.full_mask


def _steiner_distance_table(G: Graph) -> bytearray:
    """``sd[X]`` = Steiner distance of the vertex set X: the least |C| - 1
    over connected sets C containing X (0 for the empty set)."""
    size = 1 << G.n
    adj = {1 << v: row for v, row in enumerate(G.adj)}
    sd = bytearray([_UNSET]) * size
    for C in range(1, size):  # C minus a vertex precedes C, so its mark is final
        if C & (C - 1) == 0:
            sd[C] = 0
            continue
        rest = C
        while rest:
            low = rest & -rest
            smaller = C ^ low
            if sd[smaller] != _UNSET and adj[low] & smaller:
                sd[C] = sd[smaller] + 1
                break
            rest ^= low
    half = 1
    while half < size:  # superset-min, one bit position at a time
        for lo in range(0, size, 2 * half):
            mid = lo + half
            sd[lo:mid] = bytes(map(min, sd[lo:mid], sd[mid:mid + half]))
        half *= 2
    return sd


def steiner_number(G: Graph, *, cap: int = DEFAULT_STEINER_CAP) -> SteinerResult:
    """Minimum Steiner set by exact search, cardinality then lexicographic order.

    One table of the Steiner distance of every vertex subset serves all
    candidates: W is a Steiner set exactly when d(W + v) = d(W) for every v.
    The table is built by marking the connected sets (a set of two or more
    vertices is connected when dropping some vertex leaves a connected set
    adjacent to it) and taking superset minima over each bit position, a
    zeta transform as in Björklund, Husfeldt, Kaski and Koivisto (STOC 2007).
    It takes 2^n bytes (64 KiB at the default cap of 16) and O(n·2^n) time;
    each candidate then costs O(n) lookups.
    """
    if not is_connected(G):
        raise DomainError("Steiner number is defined for connected graphs")
    if G.n > cap:
        raise CapExceeded(f"Steiner search capped at n <= {cap}, got {G.n}")
    sd = _steiner_distance_table(G)
    singles = [1 << v for v in range(G.n)]
    explored = 0
    for members in ascending_subsets(G.full_mask, 0):
        if not members:
            continue
        explored += 1
        d = sd[members]
        if all(sd[members | b] == d for b in singles):
            terms = vertex_tuple(members)
            return SteinerResult(len(terms), terms, explored)
    raise AssertionError("the full vertex set is always a Steiner set")


def _connected_within(adj: Sequence[Mask], members: Mask) -> bool:
    start = members & -members
    seen = frontier = start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        nxt &= members & ~seen
        seen |= nxt
        frontier = nxt
    return seen == members


def oracle_steiner_trees(G: Graph, members: Mask, *, cap: int = DEFAULT_ORACLE_CAP) -> tuple[Mask, ...]:
    """All vertex supports of minimum trees containing the set, by exhaustive
    enumeration of connected supersets.

    Independent of the dynamic program; the union of the supports equals the
    Steiner hull.  Exponential, so capped at small orders.
    """
    if G.n > cap:
        raise CapExceeded(f"tree enumeration capped at n <= {cap}, got {G.n}")
    if members == 0:
        raise DomainError("terminal set is empty")
    if members & ~G.full_mask:
        raise DomainError("terminal set is not within the graph")
    if not is_connected(G):
        raise DomainError("Steiner trees are defined for connected graphs")
    others = vertex_tuple(G.full_mask & ~members)
    adj = G.adj
    for extra in range(len(others) + 1):
        supports = []
        for combo in combinations(others, extra):
            candidate = members | mask_of(combo)
            if _connected_within(adj, candidate):
                supports.append(candidate)
        if supports:
            return tuple(supports)
    raise AssertionError("a connected graph always spans its terminal sets")
