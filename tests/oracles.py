"""Independent brute-force references used only by the tests.

Everything here goes through networkx and explicit enumeration, deliberately
sharing no code with the package's engines, except the per-candidate
searches that faster engines replaced, kept to pin those engines' value,
witness and ``explored`` count:

* ``steiner_distance_by_dp``, ``steiner_hull_by_dp`` and
  ``is_steiner_set_by_dp`` run the Dreyfus–Wagner terminal DP (Networks 1,
  1971) on one terminal set, independent of the distance levels that every
  Steiner query of the package reads; the checks of those levels compare
  against them;
* ``steiner_number_by_dp`` pins the Steiner-set family of ``steiner_number``
  to the single-set Steiner DP;
* ``steiner_distance_table_by_marking`` and ``steiner_sets_by_table`` are the
  byte-per-subset table (a mark loop over the subsets, then superset minima
  over strided slices) and the per-set test that the distance levels and
  Steiner-set family of ``coronageo.steiner`` replaced;
* ``geodetic_search_by_closure`` and ``k_geodetic_search_by_closure`` pin the
  prefix-incremental cover search (``subsets.first_cover``) behind
  ``geodetic_number`` and ``k_geodetic_number``: they walk
  ``ascending_subsets`` and rebuild each candidate's closure pair by pair;
* ``interval_table`` is the layer formula for I[u, v] that the interval
  rows ``bfs_distances`` builds in its one pass replaced;
* ``parse_graph6_by_pairs`` is the graph6 decoder that tests every vertex
  pair's bit, which the per-column decode of ``formats.parse_graph6``
  replaced; it raises the same ``FormatError``s;
* ``diam2_tier_a_by_dp`` pins the ``DIAM2_STEINER_GEODETIC`` check, which
  reads its Steiner sets from ``steiner_sets`` and its geodetic sets from
  ``geodetic_sets`` at every order, to the single-set Steiner DP and
  ``is_geodetic`` on every vertex set;
* ``in_every_steiner_tree_by_dp`` is the single-set DP test that part (i) of
  ``STEINER_CORONA_STRUCT`` made before it became a cut test
  (``harness._separates``);
* ``oracle_steiner_trees`` lists every minimum-tree support of a terminal set
  by enumerating connected supersets, independent of the Steiner DP.
"""

import itertools
from operator import add
from typing import Iterator, Sequence

import networkx as nx

from coronageo.errors import CapExceeded, DomainError, FormatError
from coronageo.geodesic import is_geodetic
from coronageo.graphs import (
    Graph,
    Mask,
    bfs_distances,
    induced_subgraph,
    is_connected,
    mask_of,
    reachable_set,
    vertex_tuple,
)
from coronageo.subsets import SearchResult, ascending_subsets


def to_nx(g: Graph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def interval_vertices(g: Graph, u: int, v: int) -> set[int]:
    """Vertices on at least one shortest u-v path, by path enumeration."""
    out = set()
    for p in nx.all_shortest_paths(to_nx(g), u, v):
        out.update(p)
    return out


def closure_vertices(g: Graph, members) -> set[int]:
    out = set(members)
    for u, v in itertools.combinations(sorted(members), 2):
        out |= interval_vertices(g, u, v)
    return out


def geodetic_number_brute(g: Graph) -> tuple[int, tuple[int, ...]]:
    everything = set(range(g.n))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if closure_vertices(g, combo) == everything:
                return size, combo
    raise AssertionError("no geodetic set found")


def k_geodetic_number_brute(g: Graph, k: int):
    """(value, witness) or (None, None) when no pair is at distance exactly k."""
    dist = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    n = g.n
    if not any(dist[u].get(v) == k for u in range(n) for v in range(u + 1, n)):
        return None, None
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            covered = set()
            for u, v in itertools.combinations(combo, 2):
                if dist[u].get(v) == k:
                    covered |= interval_vertices(g, u, v)
            if set(range(n)) - set(combo) <= covered:
                return size, combo
    raise AssertionError("no k-geodetic set found despite a distance-k pair")


def steiner_distance_brute(g: Graph, terminals) -> int:
    """Minimum edge count over connected vertex supersets of the terminals."""
    gx = to_nx(g)
    base = set(terminals)
    rest = [v for v in range(g.n) if v not in base]
    for extra in range(len(rest) + 1):
        for combo in itertools.combinations(rest, extra):
            support = base | set(combo)
            if nx.is_connected(gx.subgraph(support)):
                return len(support) - 1
    raise AssertionError("graph not connected")


def steiner_hull_brute(g: Graph, terminals) -> set[int]:
    """Union of all minimum-tree vertex supports."""
    d = steiner_distance_brute(g, terminals)
    gx = to_nx(g)
    base = set(terminals)
    rest = [v for v in range(g.n) if v not in base]
    out: set[int] = set()
    for combo in itertools.combinations(rest, d + 1 - len(base)):
        support = base | set(combo)
        if nx.is_connected(gx.subgraph(support)):
            out |= support
    return out


def steiner_number_brute(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest vertex set whose minimum-tree supports cover V(G)."""
    everything = set(range(g.n))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if steiner_hull_brute(g, combo) == everything:
                return size, combo
    raise AssertionError("no Steiner set found")


DEFAULT_ORACLE_CAP = 10


def _connected_within(adj: Sequence[Mask], members: Mask) -> bool:
    start = members & -members
    seen = frontier = start
    while frontier:
        nxt = 0
        for v in vertex_tuple(frontier):
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
        for combo in itertools.combinations(others, extra):
            candidate = members | mask_of(combo)
            if _connected_within(adj, candidate):
                supports.append(candidate)
        if supports:
            return tuple(supports)
    raise AssertionError("a connected graph always spans its terminal sets")


_INF = 1 << 30


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


def _last_dp_row(g: Graph, members: Mask) -> tuple[list[int], int]:
    """(d(W + v) for every v, d(W)) for the nonempty set W of a connected graph."""
    terms = vertex_tuple(members)
    last = _steiner_dp(bfs_distances(g)[0], terms)[-1]
    return last, last[terms[0]]


def steiner_distance_by_dp(g: Graph, members: Mask) -> int:
    return _last_dp_row(g, members)[1]


def steiner_hull_by_dp(g: Graph, members: Mask) -> Mask:
    last, d = _last_dp_row(g, members)
    return mask_of(v for v, c in enumerate(last) if c == d)


def is_steiner_set_by_dp(g: Graph, members: Mask) -> bool:
    return steiner_hull_by_dp(g, members) == g.full_mask


def steiner_number_by_dp(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """(value, witness, explored) of the first set, by cardinality then
    lexicographic order, that the terminal DP calls Steiner."""
    explored = 0
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            explored += 1
            if is_steiner_set_by_dp(g, mask_of(combo)):
                return size, combo, explored
    raise AssertionError("no Steiner set found")


def diam2_tier_a_by_dp(g: Graph) -> tuple[int, Mask | None]:
    """(Steiner sets tested, first one that is not geodetic or None), walking
    every nonempty vertex set in increasing mask order."""
    checked = 0
    for members in range(1, 1 << g.n):
        if is_steiner_set_by_dp(g, members):
            checked += 1
            if not is_geodetic(g, members):
                return checked, members
    return checked, None


def in_every_steiner_tree_by_dp(g: Graph, terminals: Mask, v: int) -> bool:
    """Whether vertex v (not a terminal) lies on every minimum tree for the
    set: deleting v disconnects the terminals, or raises their Steiner
    distance in the component that keeps the lowest terminal."""
    base = steiner_distance_by_dp(g, terminals)
    start_vertex = (terminals & -terminals).bit_length() - 1
    reach = reachable_set(g, start_vertex, within=g.full_mask & ~(1 << v))
    if terminals & ~reach:
        return True
    index = {w: i for i, w in enumerate(vertex_tuple(reach))}
    mapped = mask_of(index[w] for w in vertex_tuple(terminals))
    return steiner_distance_by_dp(induced_subgraph(g, reach), mapped) > base


_UNSET = 255  # not yet marked; Steiner distances stay below the 62-vertex limit


def _bit_slices(size: int) -> Iterator[tuple[slice, slice]]:
    """For each bit position in turn, slice pairs that match every subset
    index without the bit to the same index plus the bit: one strided slice
    per offset in a block for the low bits, one slice per block for the high
    ones."""
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


def steiner_distance_table_by_marking(g: Graph) -> bytearray:
    """``sd[X]`` = Steiner distance of the vertex set X, one byte per subset:
    mark each connected set from a connected set one vertex smaller, then
    take superset minima one bit position at a time."""
    size = 1 << g.n
    adj = {1 << v: row for v, row in enumerate(g.adj)}
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


def steiner_sets_by_table(g: Graph) -> int:
    """Bit W set when d(W + v) = d(W) for every v, tested set by set on
    ``steiner_distance_table_by_marking``; the empty set is not among them."""
    sd = steiner_distance_table_by_marking(g)
    singles = [1 << v for v in range(g.n)]
    sets = 0
    for members in range(1, 1 << g.n):
        d = sd[members]
        if all(sd[members | b] == d for b in singles):
            sets |= 1 << members
    return sets


def interval_table(D: Sequence[Sequence[int]]) -> tuple[tuple[Mask, ...], ...]:
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


def parse_graph6_by_pairs(text: str) -> Graph:
    """One short-form graph6 line, decoded by testing the bit of each of the
    n(n - 1)/2 pairs in turn; errors as ``formats.parse_graph6`` raises them."""
    line = text.rstrip("\r\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise FormatError("empty graph6 input", offset=0)
    if line[0] == "~":
        raise FormatError("long-form graph6 (order > 62) is not supported", offset=0)
    first = ord(line[0])
    if not 63 <= first <= 63 + 62:
        raise FormatError(f"invalid order byte {line[0]!r}", offset=0)
    n = first - 63
    if n == 0:
        raise FormatError("graph6 order 0; graphs need at least one vertex", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = line[1:]
    if len(body) != nbytes:
        raise FormatError(
            f"graph6 body for order {n} needs {nbytes} bytes, got {len(body)}",
            offset=1 + min(len(body), nbytes),
        )
    groups = []
    for i, ch in enumerate(body):
        x = ord(ch) - 63
        if not 0 <= x <= 63:
            raise FormatError(f"invalid data byte {ch!r}", offset=1 + i)
        groups.append(x)
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if groups[idx // 6] >> (5 - idx % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    for pad in range(nbits, nbytes * 6):
        if groups[pad // 6] >> (5 - pad % 6) & 1:
            raise FormatError("nonzero padding bits", offset=1 + pad // 6)
    return Graph(n, tuple(rows))


def geodetic_search_by_closure(g: Graph, forced: Mask) -> SearchResult:
    """First set containing ``forced``, by cardinality then lexicographic
    order, whose pairwise interval closure is V(G); ``explored`` counts the
    nonempty candidates tested."""
    table = interval_table(bfs_distances(g)[0])
    explored = 0
    for members in ascending_subsets(g.full_mask, forced):
        if not members:
            continue
        explored += 1
        vs = vertex_tuple(members)
        closure = members
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                closure |= table[u][v]
        if closure == g.full_mask:
            return SearchResult(len(vs), vs, explored)
    raise AssertionError("a connected graph always has a geodetic set")


def k_geodetic_search_by_closure(g: Graph, k: int) -> SearchResult:
    """First set, by cardinality then lexicographic order, whose pairs at
    distance exactly k cover every vertex outside it; unsatisfiable
    (``explored == 0``) when no pair is at distance k."""
    rows = bfs_distances(g)[0]
    n = g.n
    kmask = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u][v] == k:
                kmask[u][v] = mask_of(w for w in range(n) if rows[u][w] + rows[v][w] == k)
    if not any(map(any, kmask)):
        return SearchResult(None, None, 0)
    explored = 0
    for members in ascending_subsets(g.full_mask, 0):
        if not members:
            continue
        explored += 1
        vs = vertex_tuple(members)
        covered = members
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                covered |= kmask[u][v]
        if covered == g.full_mask:
            return SearchResult(len(vs), vs, explored)
    raise AssertionError("a k-geodetic set exists whenever a distance-k pair does")


def extreme_by_double_loop(g: Graph) -> set[int]:
    out = set()
    for v in range(g.n):
        nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
        if all(g.has_edge(a, b) for a, b in itertools.combinations(nbrs, 2)):
            out.add(v)
    return out
