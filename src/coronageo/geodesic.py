"""Geodesic intervals, geodetic sets, and the (k-)geodetic number by exact search."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, DomainError
from .graphs import Graph, Mask, bfs_distances, extreme_vertices, is_connected, vertex_tuple
from .subsets import first_cover

DEFAULT_GEODETIC_CAP = 20


@dataclass(frozen=True)
class GeodeticResult:
    """Outcome of a minimum-set search.

    ``value is None`` means no set exists (k-geodetic search with no vertex
    pair at distance exactly k); this is an answer, not an error.
    ``explored`` is the witness's 1-based rank among the nonempty candidates
    in canonical order, counted alike whether a candidate was tested on its
    own or skipped with its subtree by the search's bound.
    """

    value: int | None
    witness: tuple[int, ...] | None
    explored: int

    @property
    def unsatisfiable(self) -> bool:
        return self.value is None


def interval(D: tuple[tuple[int, ...], ...], u: int, v: int) -> Mask:
    """I[u, v]: all vertices w with d(u,w) + d(w,v) = d(u,v), from the
    ``bfs_distances`` rows ``D``."""
    n = len(D)
    for x in (u, v):
        if not 0 <= x < n:
            raise DomainError(f"vertex {x} out of range")
    du, dv = D[u], D[v]
    target = du[v]
    if target >= n:
        raise DomainError(f"vertices {u} and {v} are in different components")
    out = 0
    for w in range(n):
        if du[w] + dv[w] == target:
            out |= 1 << w
    return out


def is_geodetic(G: Graph, members: Mask) -> bool:
    """True when the intervals I[u, v] over pairs of the set, with the set
    itself, cover every vertex."""
    if not is_connected(G):
        raise DomainError("geodetic sets are defined for connected graphs")
    if members == 0:
        raise DomainError("geodetic sets are nonempty")
    if members & ~G.full_mask:
        raise DomainError("vertex set is not within the graph")
    D = bfs_distances(G)
    vs = vertex_tuple(members)
    acc = members
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            acc |= interval(D, u, v)
    return acc == G.full_mask


def interval_table(D: tuple[tuple[int, ...], ...]) -> list[list[Mask]]:
    """``table[u][v]`` = I[u, v] for every vertex pair (0 across components)."""
    n = len(D)
    table: list[list[Mask]] = [[0] * n for _ in range(n)]
    for u in range(n):
        du = D[u]
        for v in range(u, n):
            dv = D[v]
            target = du[v]
            m = 0
            if target < n:
                for w in range(n):
                    if du[w] + dv[w] == target:
                        m |= 1 << w
            table[u][v] = m
            table[v][u] = m
    return table


def _require_connected(G: Graph) -> None:
    if not is_connected(G):
        raise DomainError("search requires a connected graph")


def _cover_search(table: list[list[Mask]], n: int, forced: Mask) -> GeodeticResult:
    members, explored = first_cover(table, n, forced)
    return GeodeticResult(members.bit_count(), vertex_tuple(members), explored)


def geodetic_number(G: Graph, *, cap: int = DEFAULT_GEODETIC_CAP) -> GeodeticResult:
    """Minimum geodetic set by exact search.

    Enumerates only supersets of the extreme vertices (which every geodetic
    set must contain), by cardinality then lexicographic order; the witness
    is the first passing set in that order.
    """
    _require_connected(G)
    if G.n > cap:
        raise CapExceeded(f"geodetic search capped at n <= {cap}, got {G.n}")
    return _cover_search(interval_table(bfs_distances(G)), G.n, extreme_vertices(G))


def k_geodetic_number(G: Graph, k: int, *, cap: int = DEFAULT_GEODETIC_CAP) -> GeodeticResult:
    """Minimum set S such that every vertex outside S lies on an x-y geodesic
    with x, y in S and d(x, y) = k exactly.

    Vertices inside S need no cover.  When no vertex pair is at distance
    exactly k (e.g. k exceeds the diameter) the result is unsatisfiable
    (``value is None``) rather than an error.
    """
    _require_connected(G)
    if k < 2:
        raise DomainError(f"k-geodetic sets need k >= 2, got {k}")
    if G.n > cap:
        raise CapExceeded(f"k-geodetic search capped at n <= {cap}, got {G.n}")
    D = bfs_distances(G)
    if not any(k in row for row in D):
        return GeodeticResult(None, None, 0)
    table = interval_table(D)  # I[u, v] is the k-interval when d(u, v) = k
    for u, du in enumerate(D):
        table[u] = [m if d == k else 0 for m, d in zip(table[u], du)]
    return _cover_search(table, G.n, 0)
