"""Steiner distance, Steiner hulls, Steiner sets and the Steiner number.

One table of the Steiner distance of every vertex subset serves every query:
the distance of a terminal set W is one entry, and v lies on a minimum tree
for W exactly when d(W + v) = d(W), so the hull of W, the Steiner-set test,
``steiner_sets`` and ``steiner_number`` all compare entries of the same
table.  Every query is capped by the order of the graph.

The table is one Python int of 2^n bytes with one byte lane per vertex
subset: lane C is byte C, little-endian.  Every pass over the table is then
a few whole-int operations ("SIMD within a register": Lamport, CACM 18(8),
1975; Knuth, TAOCP 4A, §7.1.3).  ``P[v]`` holds 1 in every lane that
contains v, and a shift by ``8 << v`` moves lane C to lane C + v for every
C without v.  ``steiner_sets`` turns lanes into bits, the family form of
``subsets``, and ``steiner_number`` picks from it with ``first_set``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .errors import CapExceeded, DomainError
from .graphs import (
    Graph,
    Mask,
    is_connected,
    mask_of,
    vertex_tuple,
)
from .subsets import candidate_rank, first_set

DEFAULT_STEINER_CAP = 16

_FAR = 127  # lane of a set that is not connected, before the superset minima; below 0x80


class SteinerResult(namedtuple("SteinerResult", "value witness explored")):
    """Minimum Steiner set: its size, the canonical witness, and the number
    of candidate sets examined."""

    __slots__ = ()


@cache
def _lane_patterns(n: int) -> tuple[int, tuple[int, ...], int]:
    """(ones, P, pc) for order n: ``ones`` holds 1 in every lane, ``P[v]``
    holds 1 in every lane that contains v, and ``pc`` holds each lane's
    popcount."""
    P = tuple(int.from_bytes((bytes(1 << v) + b"\1" * (1 << v)) * (1 << (n - v - 1)), "little")
              for v in range(n))
    return int.from_bytes(b"\1" * (1 << n), "little"), P, sum(P)


def _steiner_distance_table(G: Graph) -> int:
    """Lane X holds the Steiner distance of the vertex set X: the least
    |C| - 1 over connected sets C containing X (0 for the empty set).

    The connected sets are marked first: a set of two or more vertices is
    connected when dropping some vertex v leaves a connected set that holds
    a neighbour of v.  The sweeps over v repeat until no lane changes.
    Superset minima over each bit position follow, a zeta transform as in
    Björklund, Husfeldt, Kaski and Koivisto (STOC 2007); the guard bit 0x80
    of each lane keeps the subtraction that compares lanes from borrowing.
    """
    ones, P, pc = _lane_patterns(G.n)
    touch = []  # the lanes that hold v and a neighbour of v
    for p, row in zip(P, G.adj):
        near = 0
        while row:
            low = row & -row
            near |= P[low.bit_length() - 1]
            row ^= low
        touch.append(p & near)
    conn = sum(1 << (8 << v) for v in range(G.n))  # the singletons
    last = 0
    while conn != last:
        last = conn
        for v, (p, t) in enumerate(zip(P, touch)):
            conn |= ((conn & (ones ^ p)) << (8 << v)) & t
    x = (pc - conn) | (ones ^ conn) * _FAR  # |C| - 1 in the connected lanes
    guard = ones << 7
    for v, p in enumerate(P):  # lane C without v takes min(C, C + v)
        m = (ones ^ p) * 0xFF
        a, b = x & m, (x >> (8 << v)) & m
        ge = ((a | guard) - b) & guard  # 0x80 in the lanes where a >= b
        x ^= (a ^ b) & (ge - (ge >> 7))  # there, a ^ (a ^ b) = b
    return x


def _checked_table(G: Graph, cap: int, what: str) -> int:
    if not is_connected(G):
        raise DomainError(f"{what} defined for connected graphs")
    if G.n > cap:
        raise CapExceeded(f"Steiner search capped at n <= {cap}, got {G.n}")
    return _steiner_distance_table(G)


def _terminal_table(G: Graph, members: Mask, cap: int) -> bytes:
    if members == 0:
        raise DomainError("terminal set is empty")
    if members & ~G.full_mask:
        raise DomainError("terminal set is not within the graph")
    return _checked_table(G, cap, "Steiner distance is").to_bytes(1 << G.n, "little")


def steiner_distance(G: Graph, members: Mask, *, cap: int = DEFAULT_STEINER_CAP) -> int:
    """Minimum number of edges of a connected subgraph containing the set
    (necessarily a tree)."""
    return _terminal_table(G, members, cap)[members]


def steiner_hull(G: Graph, members: Mask, *, cap: int = DEFAULT_STEINER_CAP) -> Mask:
    """Vertices lying on at least one minimum tree for the set:
    v is in the hull exactly when d(W + v) = d(W)."""
    sd = _terminal_table(G, members, cap)
    d = sd[members]
    return mask_of(v for v in range(G.n) if sd[members | 1 << v] == d)


def is_steiner_set(G: Graph, members: Mask, *, cap: int = DEFAULT_STEINER_CAP) -> bool:
    return steiner_hull(G, members, cap=cap) == G.full_mask


_ZERO_TO_DIGIT = b"1" + b"0" * 255  # translate table: "1" for a lane that is 0, else "0"


def _sets(G: Graph, cap: int, what: str) -> int:
    x = _checked_table(G, cap, what)
    ones, P, _ = _lane_patterns(G.n)
    grow = 0  # OR over v of d(W + v) - d(W); 0 in the lanes that hold v
    for v, p in enumerate(P):
        m = (ones ^ p) * 0xFF
        grow |= ((x >> (8 << v)) & m) - (x & m)
    return int(grow.to_bytes(1 << G.n, "big").translate(_ZERO_TO_DIGIT), 2) & ~1


def steiner_sets(G: Graph, *, cap: int = DEFAULT_STEINER_CAP) -> int:
    """An int of 2^n bits whose bit W is set exactly when the vertex set W
    is a Steiner set, the form of ``geodetic_sets``.

    W is a Steiner set exactly when d(W + v) = d(W) for every v.  A Steiner
    distance never drops from a set to a superset, so the lane differences
    d(W + v) - d(W) never borrow, and W qualifies when their OR is 0.  Those
    lanes become bits in one translate of the bytes, read big-endian so that
    lane W becomes bit W.  The empty set is not a Steiner set.
    """
    return _sets(G, cap, "Steiner sets are")


def steiner_number(G: Graph, *, cap: int = DEFAULT_STEINER_CAP) -> SteinerResult:
    """Minimum Steiner set by exact search, cardinality then lexicographic order.

    The search is ``subsets.first_set`` on ``steiner_sets``, and
    ``explored`` is the witness's ``candidate_rank``, computed rather than
    counted.  The table is a 2^n-byte int and the family a 2^n-bit int
    (64 KiB and 8 KiB at the default cap of 16).  Each pass over the table
    is n whole-int steps; the mark repeats its pass until no lane changes,
    which took at most four passes on every census graph.
    """
    first = first_set(_sets(G, cap, "Steiner number is"), G.n)
    return SteinerResult(first.bit_count(), vertex_tuple(first), candidate_rank(first, G.full_mask))
