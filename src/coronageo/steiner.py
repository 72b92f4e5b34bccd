"""Steiner distance, Steiner hulls, Steiner sets and the Steiner number.

One table of the Steiner distance of every vertex subset serves every query:
the distance of a terminal set W is one entry, and v lies on a minimum tree
for W exactly when d(W + v) = d(W), so the hull of W, the Steiner-set test,
``steiner_sets`` and ``steiner_number`` all compare entries of the same
table.  Every query is capped by the order of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_, sub
from typing import Iterator

from .errors import CapExceeded, DomainError
from .graphs import (
    Graph,
    Mask,
    is_connected,
    mask_of,
    vertex_tuple,
)
from .subsets import ascending_subsets

DEFAULT_STEINER_CAP = 16

_UNSET = 255  # not yet marked; Steiner distances stay below the 62-vertex limit


@dataclass(frozen=True)
class SteinerResult:
    """Minimum Steiner set: its size, the canonical witness, and the number
    of candidate sets examined."""

    value: int
    witness: tuple[int, ...]
    explored: int


def _bit_slices(size: int) -> Iterator[tuple[slice, slice]]:
    """For each bit position in turn, slice pairs that match every subset
    index without the bit to the same index plus the bit: one strided slice
    per offset in a block for the low bits, one slice per block for the high
    ones, so no bit position takes more than sqrt(size) slices."""
    half = 1
    while half < size:
        step = 2 * half
        if half < size // step:
            for r in range(half):
                yield slice(r, None, step), slice(r + half, None, step)
        else:
            for lo in range(0, size, step):
                yield slice(lo, lo + half), slice(lo + half, lo + step)
        half = step


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
    for without, with_ in _bit_slices(size):  # superset-min
        sd[without] = bytes(map(min, sd[without], sd[with_]))
    return sd


def _checked_table(G: Graph, cap: int, what: str) -> bytearray:
    if not is_connected(G):
        raise DomainError(f"{what} defined for connected graphs")
    if G.n > cap:
        raise CapExceeded(f"Steiner search capped at n <= {cap}, got {G.n}")
    return _steiner_distance_table(G)


def _terminal_table(G: Graph, members: Mask, cap: int) -> bytearray:
    if members == 0:
        raise DomainError("terminal set is empty")
    if members & ~G.full_mask:
        raise DomainError("terminal set is not within the graph")
    return _checked_table(G, cap, "Steiner distance is")


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


_ZERO_TO_ONE = bytes([1]) + bytes(255)  # translate table: flag the sets whose OR is 0


def steiner_sets(G: Graph, *, cap: int = DEFAULT_STEINER_CAP) -> bytearray:
    """``flags[W]`` = 1 when the vertex set W is a Steiner set, else 0.

    W is a Steiner set exactly when d(W + v) = d(W) for every v, read from
    the table of ``steiner_number``.  A Steiner distance never drops from a
    set to a superset, so the differences d(W + v) - d(W) are never negative
    and W qualifies when their OR is 0.  They are gathered one bit position
    at a time, over the slices of the superset-min pass.  The empty set is
    not a Steiner set.
    """
    sd = _checked_table(G, cap, "Steiner sets are")
    grow = bytearray(len(sd))  # OR of d(W + v) - d(W) over the v outside W
    for without, with_ in _bit_slices(len(sd)):
        grow[without] = bytes(map(or_, grow[without], map(sub, sd[with_], sd[without])))
    flags = grow.translate(_ZERO_TO_ONE)
    flags[0] = 0
    return flags


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
    sd = _checked_table(G, cap, "Steiner number is")
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
