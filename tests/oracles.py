"""Independent brute-force references used only by the tests.

Everything here goes through networkx and explicit enumeration, deliberately
sharing no code with the package's engines, except ``steiner_number_by_dp``:
it is the per-candidate search that the subset table of ``steiner_number``
replaced, kept to pin that table to the single-set Steiner DP.
"""

import itertools

import networkx as nx

from coronageo.graphs import Graph, mask_of
from coronageo.steiner import is_steiner_set


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


def steiner_number_by_dp(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """(value, witness, explored) of the first set, by cardinality then
    lexicographic order, that the package's single-set DP calls Steiner."""
    explored = 0
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            explored += 1
            if is_steiner_set(g, mask_of(combo)):
                return size, combo, explored
    raise AssertionError("no Steiner set found")


def extreme_by_double_loop(g: Graph) -> set[int]:
    out = set()
    for v in range(g.n):
        nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
        if all(g.has_edge(a, b) for a, b in itertools.combinations(nbrs, 2)):
            out.add(v)
    return out
