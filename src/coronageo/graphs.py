"""Undirected simple graphs on up to 62 vertices, stored as bitmask adjacency rows.

Vertex sets are plain ``int`` bitmasks (bit ``v`` set = vertex ``v`` in the set),
so set algebra and subset enumeration stay single-word operations throughout
the exact searches.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property

from .errors import DomainError

MAX_VERTICES = 62

Mask = int


def mask_of(vertices: Iterable[int]) -> Mask:
    """Bitmask with the given vertices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: Mask) -> Iterator[int]:
    """Vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_tuple(mask: Mask) -> tuple[int, ...]:
    """Sorted tuple of the vertices in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of ``v``.

    ``Graph(n, adj)`` checks that the rows are in range, loop-free and
    symmetric.  ``corona`` and the block search of ``geodetic_number``
    build theirs from checked graphs, valid by construction, through
    ``Graph._trusted``, which skips that O(m) scan.

    ``distances``, ``intervals`` and ``extreme_vertices`` are computed on
    first use and kept on the instance, so every search and invariant of one
    graph shares one BFS, one interval table and one extreme-vertex pass.
    They are freed with the graph, or earlier by ``drop_tables``, which a
    caller holding many graphs runs once it is done with one.
    """

    n: int
    adj: tuple[Mask, ...]

    def __init__(self, n: int, adj: tuple[Mask, ...]) -> None:
        if not 1 <= n <= MAX_VERTICES:
            raise DomainError(f"graph order must be in 1..{MAX_VERTICES}, got {n}")
        if len(adj) != n:
            raise DomainError("adjacency rows do not match the vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise DomainError(f"vertex {v} has a neighbor out of range")
            if row >> v & 1:
                raise DomainError(f"self-loop at vertex {v}")
            bit = 1 << v
            while row:
                low = row & -row
                if not adj[u := low.bit_length() - 1] & bit:
                    raise DomainError(f"asymmetric adjacency between {u} and {v}")
                row ^= low
        self.__dict__.update(n=n, adj=adj)

    @classmethod
    def _trusted(cls, adj: tuple[Mask, ...]) -> Graph:
        """The graph on rows known to be valid, without the check."""
        g = object.__new__(cls)
        g.__dict__.update(n=len(adj), adj=adj)
        return g

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"graphs are immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """``bfs_distances(self)``, computed once."""
        return bfs_distances(self)

    @cached_property
    def intervals(self) -> tuple[tuple[Mask, ...], ...]:
        """``interval_table(self.distances)``, computed once."""
        return interval_table(self.distances)

    @cached_property
    def extreme_vertices(self) -> Mask:
        """The vertices whose neighborhood induces a complete subgraph, as
        a mask, computed once; ``extreme_vertices(G)`` reads it."""
        adj = self.adj
        out = 0
        for v, nb in enumerate(adj):
            rest = nb
            while rest:  # every neighbour u is adjacent to the others: nb minus N(u) is u
                low = rest & -rest
                if nb & ~adj[low.bit_length() - 1] != low:
                    break
                rest ^= low
            else:
                out |= 1 << v
        return out

    def drop_tables(self) -> None:
        """Free ``distances``, ``intervals`` and ``extreme_vertices``; the
        next use recomputes them."""
        for name in ("distances", "intervals", "extreme_vertices"):
            vars(self).pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Simple graph on vertices 0..n-1; duplicate edges collapse silently."""
    if n < 1:
        raise DomainError(f"graph order must be at least 1, got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise DomainError(f"self-loop at {u}: simple graphs only")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def induced_subgraph(G: Graph, members: Mask) -> Graph:
    """Subgraph induced by ``members``, relabeled 0..k-1 preserving vertex order.

    New label ``i`` corresponds to the i-th smallest member of the set.
    """
    if members == 0:
        raise DomainError("cannot induce a subgraph on the empty set")
    if members & ~G.full_mask:
        raise DomainError("vertex set is not within the graph")
    rows = induced_rows(G, members)
    return Graph(len(rows), rows)


def induced_rows(G: Graph, members: Mask) -> tuple[Mask, ...]:
    """Adjacency rows of the subgraph induced by ``members``, relabeled as
    ``induced_subgraph`` does, without building or checking a ``Graph``."""
    vs = vertex_tuple(members)
    index = {1 << v: 1 << i for i, v in enumerate(vs)}  # old bit -> new bit
    rows = []
    for v in vs:
        row = 0
        rest = G.adj[v] & members
        while rest:
            low = rest & -rest
            row |= index[low]
            rest ^= low
        rows.append(row)
    return tuple(rows)


def reachable_set(G: Graph, start: int, within: Mask | None = None) -> Mask:
    """Vertices reachable from ``start`` by paths inside ``within`` (default: all)."""
    scope = G.full_mask if within is None else within
    if not scope >> start & 1:
        raise DomainError(f"start vertex {start} is outside the search scope")
    seen = frontier = 1 << start
    adj = G.adj
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        nxt &= scope & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def is_connected(G: Graph) -> bool:
    return reachable_set(G, 0) == G.full_mask


def components(G: Graph) -> list[Mask]:
    """Connected components as bitmasks, ordered by smallest vertex."""
    remaining = G.full_mask
    out = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = reachable_set(G, start)
        out.append(comp)
        remaining &= ~comp
    return out


def blocks(G: Graph) -> list[Mask]:
    """Blocks (maximal connected subgraphs without a cut vertex of their
    own; a bridge is a block) as vertex masks.  An isolated vertex lies in
    no block, and the cut vertices are the vertices in two or more blocks.

    One depth-first search, as in Hopcroft and Tarjan, "Efficient
    algorithms for graph manipulation", CACM 16(6), 1973, kept on an
    explicit stack: ``low[v]`` is the least discovery time reachable from
    the subtree of v by one back edge, and when a child v of p has
    low[v] >= disc[p], the vertices stacked since v, with p, form a block.
    A vertex's back edges all lead to ancestors, which are already seen
    when it is discovered, so each vertex reads them once, then.
    """
    adj = G.adj
    disc = [0] * G.n  # discovery time from 1
    low = [0] * G.n
    out = []
    t = seen = 0
    for root in range(G.n):
        if seen >> root & 1 or not adj[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        seen |= 1 << root
        stack = [root]  # vertices whose block is still open
        path, parent = [root], [-1]  # the DFS path and the parent of each
        while path:
            v = path[-1]
            if rest := adj[v] & ~seen:
                w = (rest & -rest).bit_length() - 1
                t += 1
                disc[w] = low[w] = t
                seen |= 1 << w
                # a seen neighbour of w other than v is an ancestor: a back edge
                back = adj[w] & seen & ~(1 << v)
                while back:
                    bit = back & -back
                    if (d := disc[bit.bit_length() - 1]) < low[w]:
                        low[w] = d
                    back ^= bit
                stack.append(w)
                path.append(w)
                parent.append(v)
                continue
            path.pop()
            p = parent.pop()
            if p < 0:
                continue
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                block = 1 << p
                while (w := stack.pop()) != v:
                    block |= 1 << w
                out.append(block | 1 << v)
    return out


def bfs_distances(G: Graph) -> tuple[tuple[int, ...], ...]:
    """Exact hop distances by breadth-first search from every vertex.

    Row u holds d(u, w) for every w, and holds n where w is in another
    component.
    """
    n = G.n
    adj = G.adj
    out = []
    for s in range(n):
        row = [n] * n
        row[s] = 0
        seen = frontier = 1 << s
        d = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt = nxt & ~seen
            seen |= nxt
            d += 1
            while nxt:
                low = nxt & -nxt
                row[low.bit_length() - 1] = d
                nxt ^= low
        out.append(tuple(row))
    return tuple(out)


def interval_table(D: tuple[tuple[int, ...], ...]) -> tuple[tuple[Mask, ...], ...]:
    """``table[u][v]`` = I[u, v], every w with d(u, w) + d(w, v) = d(u, v),
    for every vertex pair of the ``bfs_distances`` rows ``D`` (0 across
    components).

    Each row is first split into distance layers, so I[u, v] is the union
    over i of layer i of u and layer d(u, v) - i of v.
    """
    n = len(D)
    layers = []
    for row in D:
        by_d = [0] * (n + 1)
        bit = 1
        for d in row:
            by_d[d] |= bit
            bit <<= 1
        layers.append(by_d)
    table = [[0] * n for _ in range(n)]
    for u in range(n):
        du, lu, tu = D[u], layers[u], table[u]
        tu[u] = 1 << u
        for v in range(u + 1, n):
            target = du[v]
            if target < n:
                lv = layers[v]
                m = 0
                for i in range(target + 1):
                    m |= lu[i] & lv[target - i]
                tu[v] = table[v][u] = m
    return tuple(map(tuple, table))


def diameter(G: Graph) -> int | None:
    """Largest pairwise distance, or None when the graph is disconnected."""
    d = max(max(row) for row in G.distances)
    return None if d == G.n else d


def is_complete(G: Graph) -> bool:
    full = G.full_mask
    return all(G.adj[v] == full ^ (1 << v) for v in range(G.n))


def extreme_vertices(G: Graph) -> Mask:
    """Vertices whose neighborhood induces a complete subgraph.

    Includes isolated and pendant vertices; every geodetic set must contain
    all of these.  Read from the graph's ``extreme_vertices`` memo.
    """
    return G.extreme_vertices


# ---------------------------------------------------------------------------
# Generators.  Canonical labelings: the hub of star/wheel/fan is index 0.


def path(n: int) -> Graph:
    if n < 1:
        raise DomainError(f"path needs n >= 1, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError(f"cycle needs n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise DomainError(f"complete graph needs n >= 1, got {n}")
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    if n < 1:
        raise DomainError(f"empty graph needs n >= 1, got {n}")
    return Graph(n, (0,) * n)


def star(n: int) -> Graph:
    """Star with hub 0 and n leaves (order n + 1)."""
    if n < 1:
        raise DomainError(f"star needs n >= 1 leaves, got {n}")
    return from_edge_list(n + 1, [(0, i) for i in range(1, n + 1)])


def wheel(n: int) -> Graph:
    """Wheel: hub 0 joined to the rim cycle 1..n (order n + 1).

    Labeled identically to corona(complete(1), cycle(n)).
    """
    if n < 3:
        raise DomainError(f"wheel needs a rim of size >= 3, got {n}")
    rim = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    spokes = [(0, i) for i in range(1, n + 1)]
    return from_edge_list(n + 1, rim + spokes)


def fan(n: int) -> Graph:
    """Fan: hub 0 joined to the path 1..n (order n + 1).

    Labeled identically to corona(complete(1), path(n)).
    """
    if n < 2:
        raise DomainError(f"fan needs a path of size >= 2, got {n}")
    spine = [(i, i + 1) for i in range(1, n)]
    spokes = [(0, i) for i in range(1, n + 1)]
    return from_edge_list(n + 1, spine + spokes)


# ---------------------------------------------------------------------------
# Corona product.


class CoronaLayout(namedtuple("CoronaLayout", "n1 n2")):
    """Index bookkeeping for G ⊙ H.

    Base vertex i keeps index i (0..n1-1); copy i of the second factor
    occupies the contiguous block n1 + i*n2 .. n1 + (i+1)*n2 - 1, preserving
    the second factor's internal labels.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.n1 * (1 + self.n2)

    def copy_indices(self, i: int) -> range:
        if not 0 <= i < self.n1:
            raise DomainError(f"copy index {i} out of range")
        lo = self.n1 + i * self.n2
        return range(lo, lo + self.n2)

    def copy_mask(self, i: int) -> Mask:
        r = self.copy_indices(i)
        return ((1 << self.n2) - 1) << r.start

    @property
    def g_mask(self) -> Mask:
        return (1 << self.n1) - 1

    @property
    def copies_mask(self) -> Mask:
        return ((1 << self.order) - 1) ^ self.g_mask


def corona(G: Graph, H: Graph) -> tuple[Graph, CoronaLayout]:
    """Corona product G ⊙ H: one copy of G, |V(G)| copies of H, copy i fully
    joined to the i-th vertex of G.

    The first factor must be connected; the second may be disconnected.
    """
    if not is_connected(G):
        raise DomainError("corona requires a connected first factor")
    n1, n2 = G.n, H.n
    order = n1 * (1 + n2)
    if order > MAX_VERTICES:
        raise DomainError(f"corona order {order} exceeds the {MAX_VERTICES}-vertex limit")
    layout = CoronaLayout(n1, n2)
    rows = [0] * order
    for v in range(n1):
        rows[v] = G.adj[v]
    for i in range(n1):
        base = n1 + i * n2
        for v in range(n2):
            rows[base + v] |= H.adj[v] << base
        block = layout.copy_mask(i)
        rows[i] |= block
        for v in range(base, base + n2):
            rows[v] |= 1 << i
    return Graph._trusted(tuple(rows)), layout
