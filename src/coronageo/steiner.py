"""Steiner distance, Steiner hulls, Steiner sets and the Steiner number.

Every query reads the distance levels of the graph, each in the family form
of ``subsets`` (an int of 2^n bits, bit W set when the vertex set W is in
it): D_j holds the sets W with d(W) <= j, the sets inside some connected
set of at most j + 1 vertices.  d(W) is the first level that holds W, and v
lies on a minimum tree for W exactly when that level holds W + v too.  With
``Q[v]`` the sets that hold v (``subsets.set_patterns``), a shift by 2^v
moves bit W to bit W + v for every W without v, so each step is a few
whole-int operations (Knuth, TAOCP 4A, §7.1.3).  Every query is capped by
the order, and no cap goes above ``subsets.FAMILY_MAX_ORDER``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import CapExceeded, DomainError
from .graphs import Graph, Mask, is_connected, mask_of
from .subsets import DEFAULT_CAP, FAMILY_MAX_ORDER, SearchResult, _size_layers, first_set, set_patterns


def _checked(G: Graph, cap: int, what: str) -> None:
    """Refuse a disconnected graph, then an order above the cap; every
    caller runs it before ``_levels``, which allocates only once iterated."""
    if not is_connected(G):
        raise DomainError(f"{what} defined for connected graphs")
    if G.n > (cap := min(cap, FAMILY_MAX_ORDER)):
        raise CapExceeded(f"Steiner search capped at n <= {cap}, got {G.n}")


def _levels(G: Graph) -> Iterator[int]:
    """D_0, ..., D_{n-2} (D_0 alone at n = 1); D_{n-1}, every set, is not built.

    The connected sets are marked first: a set of two or more vertices is
    connected when dropping some vertex v leaves a connected set that holds
    a neighbour of v.  The sweeps over v repeat until no set is added.
    D_j is then D_{j-1} with the connected sets of j + 1 vertices, closed
    under dropping one vertex at a time.
    """
    steps = [(q, 1 << v) for v, q in enumerate(set_patterns(G.n))]
    touch = []  # the sets that hold v and a neighbour of v
    for (q, _), row in zip(steps, G.adj):
        near = 0
        while row:
            low = row & -row
            near |= steps[low.bit_length() - 1][0]
            row ^= low
        touch.append(q & near)
    conn = level = sum(1 << s for _, s in steps)  # the singletons
    last = 0
    while conn != last:
        last = conn
        for (_, s), t in zip(steps, touch):
            conn |= (conn << s) & t  # W + 2^v lacks v when W holds v, so t drops it
    level |= 1  # D_0: the singletons and the empty set
    yield level
    for layer in _size_layers(G.n)[2:-1]:
        level |= conn & layer
        for q, s in steps:
            level |= (level & q) >> s
        yield level


def _first_level(G: Graph, members: Mask, cap: int) -> tuple[int, int]:
    """(d(W), D_d(W)) for the terminal set W = ``members``."""
    if members == 0:
        raise DomainError("terminal set is empty")
    if members & ~G.full_mask:
        raise DomainError("terminal set is not within the graph")
    _checked(G, cap, "Steiner distance is")
    for d, level in enumerate(_levels(G)):
        if level >> members & 1:
            return d, level
    return G.n - 1, (1 << (1 << G.n)) - 1


def steiner_distance(G: Graph, members: Mask, *, cap: int = DEFAULT_CAP) -> int:
    """Minimum number of edges of a connected subgraph containing the set
    (necessarily a tree)."""
    return _first_level(G, members, cap)[0]


def steiner_hull(G: Graph, members: Mask, *, cap: int = DEFAULT_CAP) -> Mask:
    """Vertices lying on at least one minimum tree for the set:
    v is in the hull exactly when d(W + v) = d(W)."""
    level = _first_level(G, members, cap)[1]
    return mask_of(v for v in range(G.n) if level >> (members | 1 << v) & 1)


def _sets(G: Graph, cap: int, what: str) -> int:
    _checked(G, cap, what)
    steps = [(q, 1 << v) for v, q in enumerate(set_patterns(G.n))]
    every = (1 << (1 << G.n)) - 1
    bad = 0  # the sets W that some level holds without some W + v
    for level in _levels(G):
        out = every ^ level
        below = 0
        for q, s in steps:
            below |= (out & q) >> s
        bad |= level & below
    return every & ~bad & ~1


def steiner_sets(G: Graph, *, cap: int = DEFAULT_CAP) -> int:
    """An int of 2^n bits whose bit W is set exactly when the vertex set W
    is a Steiner set, the form of ``geodetic_sets``.

    W is a Steiner set exactly when d(W + v) = d(W) for every v.  A Steiner
    distance never drops from a set to a superset, so W fails exactly when
    some level holds W but misses some W + v.  The empty set is not a
    Steiner set.
    """
    return _sets(G, cap, "Steiner sets are")


def steiner_number(G: Graph, *, cap: int = DEFAULT_CAP) -> SearchResult:
    """Minimum Steiner set by exact search, cardinality then lexicographic order.

    The search is ``subsets.first_set`` on ``steiner_sets``, and
    ``explored`` is the witness's ``candidate_rank``, computed rather than
    counted.  Above the cached set patterns and size layers, it holds the
    n sets where v has a neighbour and a few more 2^n-bit ints: 4.1 MiB at
    order 20 under ``tracemalloc``.  The mark took at most four passes on
    every census graph; each level is two passes of n whole-int steps.
    """
    first = first_set(_sets(G, cap, "Steiner number is"), G.n)
    return SearchResult.of(first, G.full_mask)
