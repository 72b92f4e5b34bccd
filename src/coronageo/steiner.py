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
C without v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import CapExceeded, DomainError
from .graphs import (
    Graph,
    Mask,
    is_connected,
    mask_of,
    vertex_tuple,
)
from .subsets import candidate_rank

DEFAULT_STEINER_CAP = 16

_FAR = 127  # lane of a set that is not connected, before the superset minima; below 0x80


@dataclass(frozen=True)
class SteinerResult:
    """Minimum Steiner set: its size, the canonical witness, and the number
    of candidate sets examined."""

    value: int
    witness: tuple[int, ...]
    explored: int


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


_ZERO_TO_ONE = bytes([1]) + bytes(255)  # translate table: flag the lanes that are 0


def _flags(G: Graph, cap: int, what: str) -> bytearray:
    x = _checked_table(G, cap, what)
    ones, P, _ = _lane_patterns(G.n)
    grow = 0  # OR over v of d(W + v) - d(W); 0 in the lanes that hold v
    for v, p in enumerate(P):
        m = (ones ^ p) * 0xFF
        grow |= ((x >> (8 << v)) & m) - (x & m)
    flags = bytearray(grow.to_bytes(1 << G.n, "little")).translate(_ZERO_TO_ONE)
    flags[0] = 0
    return flags


def steiner_sets(G: Graph, *, cap: int = DEFAULT_STEINER_CAP) -> bytearray:
    """``flags[W]`` = 1 when the vertex set W is a Steiner set, else 0.

    W is a Steiner set exactly when d(W + v) = d(W) for every v.  A Steiner
    distance never drops from a set to a superset, so the lane differences
    d(W + v) - d(W) never borrow, and W qualifies when their OR is 0.  The
    empty set is not a Steiner set.
    """
    return _flags(G, cap, "Steiner sets are")


def _first_steiner_set(flags: bytes) -> SteinerResult:
    """The canonical minimum Steiner set of ``flags`` (as ``steiner_sets``
    returns them): the least cardinality s, then the set A for which the
    lowest bit of A ^ B is in A for every other flagged B of size s.  Its
    ``explored`` is its ``subsets.candidate_rank`` among all vertex sets.
    """
    n = len(flags).bit_length() - 1
    ones, _, pc = _lane_patterns(n)
    # popcount in the flagged lanes, 255 elsewhere (lane 0 is never flagged)
    key = (pc | (ones ^ int.from_bytes(flags, "little")) * 0xFF).to_bytes(len(flags), "little")
    s = min(key)
    best = i = key.find(s)
    while (i := key.find(s, i + 1)) >= 0:
        if (best ^ i) & -(best ^ i) & i:
            best = i
    return SteinerResult(s, vertex_tuple(best), candidate_rank(best, (1 << n) - 1))


def steiner_number(G: Graph, *, cap: int = DEFAULT_STEINER_CAP) -> SteinerResult:
    """Minimum Steiner set by exact search, cardinality then lexicographic order.

    The flags of ``steiner_sets`` mark every Steiner set at once, so the
    search is one pass over them: s is the least popcount of a flagged lane,
    the witness is the lexicographically first flagged set of that size, and
    ``explored`` is the witness's rank in the order of
    ``subsets.ascending_subsets``, computed rather than counted.  The table
    is a 2^n-byte int and the flags a 2^n-byte array (64 KiB each at the
    default cap of 16).  Each pass over the table is n whole-int steps; the
    mark repeats its pass until no lane changes, which took at most four
    passes on every census graph.
    """
    return _first_steiner_set(_flags(G, cap, "Steiner number is"))
