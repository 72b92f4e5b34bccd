import itertools
import pickle
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronageo import geodesic, graphs
from coronageo.corpus import Caps, CorpusEntry, CorpusSpec
from coronageo.errors import DomainError
from coronageo.formats import encode_graph6
from coronageo.graphs import (
    CoronaLayout,
    Graph,
    bfs_distances,
    blocks,
    complete,
    components,
    corona,
    cycle,
    diameter,
    empty,
    extreme_vertices,
    fan,
    from_edge_list,
    induced_rows,
    induced_subgraph,
    is_complete,
    is_connected,
    is_diameter_two,
    mask_of,
    path,
    reachable_set,
    star,
    vertex_tuple,
    wheel,
)
from coronageo.subsets import SearchResult

from oracles import extreme_by_double_loop, interval_table, to_nx


def test_from_edge_list_path():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g == path(3)
    assert g.edges() == [(0, 1), (1, 2)]


def test_from_edge_list_single_vertex():
    g = from_edge_list(1, [])
    assert g.n == 1 and g.edge_count() == 0


def test_from_edge_list_cycle4():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g == cycle(4)


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 0)]])
def test_from_edge_list_rejects_out_of_range(edges):
    with pytest.raises(DomainError):
        from_edge_list(3, edges)


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(DomainError):
        from_edge_list(3, [(1, 1)])


def test_graph_validation():
    # each message in full, in the scan order: the order, the row count, then
    # the rows in turn, each from its lowest neighbour
    cases = [
        (0, (), "graph order must be in 1..62, got 0"),
        (63, (0,) * 63, "graph order must be in 1..62, got 63"),
        (2, (0b10,), "adjacency rows do not match the vertex count"),
        (2, (0b110, 0b001), "vertex 0 has a neighbor out of range"),
        (1, (0b1,), "self-loop at vertex 0"),
        (2, (0b10, 0b00), "asymmetric adjacency between 1 and 0"),
        (3, (0b110, 0, 0), "asymmetric adjacency between 1 and 0"),  # two asymmetric pairs
        (3, (0b010, 0b010, 0), "asymmetric adjacency between 1 and 0"),  # before vertex 1's loop
    ]
    for n, adj, message in cases:
        with pytest.raises(DomainError) as err:
            Graph(n, adj)
        assert str(err.value) == message


def test_orders_above_the_limit_are_refused_before_any_allocation():
    """``from_edge_list`` and the generators check the order before they
    build a row or an edge, so a huge order costs nothing.  (The sizes keep
    code that builds first under about 100 MB.)"""
    builds = [lambda: from_edge_list(10_000_000, []), lambda: empty(10_000_000),
              lambda: complete(700)]
    builds += [lambda gen=gen: gen(200_000) for gen in (path, cycle, star, wheel, fan)]
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"^graph order must be in 1\.\.62, got "):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak / (1 << 20):.1f} MiB"
    with pytest.raises(DomainError, match="^graph order must be at least 1, got 0$"):
        from_edge_list(0, [])


# --- graphs and records as values ---------------------------------------------


def test_equal_graphs_are_equal_and_hash_equal():
    g = Graph(3, (0b110, 0b001, 0b001))
    h = from_edge_list(3, [(0, 2), (1, 0)])
    assert g == h and hash(g) == hash(h)
    assert g != path(3) and g != (3, (0b110, 0b001, 0b001))
    assert len({g, h, star(2), path(3)}) == 2


def test_graphs_refuse_attribute_assignment():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        g.adj = (0, 0, 0)
    with pytest.raises(AttributeError):
        del g.n
    assert g.n == 3 and g == path(3)


@pytest.mark.parametrize("built", [False, True], ids=["bare", "tables-built"])
def test_graph_survives_a_pickle_round_trip(built):
    g = corona(path(2), cycle(3))[0]
    if built:
        g.intervals  # distances come with the intervals
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    assert ("distances" in vars(copy)) == built
    assert copy.distances == bfs_distances(g)[0]
    with pytest.raises(AttributeError):
        copy.n = 1


@pytest.mark.parametrize("record,text", [
    (Caps(), "Caps(geodetic=20, steiner=16)"),
    (Caps(steiner=5), "Caps(geodetic=20, steiner=5)"),
    (SearchResult(2, (0, 3), 4), "SearchResult(value=2, witness=(0, 3), explored=4)"),
    (SearchResult(None, None, 0), "SearchResult(value=None, witness=None, explored=0)"),
    (SearchResult.of(0b10011, 0b11111), "SearchResult(value=3, witness=(0, 1, 4), explored=18)"),
    (CoronaLayout(2, 3), "CoronaLayout(n1=2, n2=3)"),
    (CorpusEntry("f.g6:2", "bad"), "CorpusEntry(source='f.g6:2', error='bad')"),
    (CorpusSpec.exhaustive(1, 4), "CorpusSpec(kind='exhaustive', family=None, lo=1, hi=4, "
                                  "path=None, order=0, p=0.0, count=0, seed=None)"),
])
def test_records_print_their_fields_and_refuse_assignment(record, text):
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        record.value = 0


def test_mask_helpers_roundtrip():
    m = mask_of([5, 0, 2])
    assert m == 0b100101
    assert vertex_tuple(m) == (0, 2, 5)
    assert mask_of(vertex_tuple(m)) == m


# --- generators -------------------------------------------------------------


def test_generator_orders_and_sizes():
    assert (path(5).n, path(5).edge_count()) == (5, 4)
    assert (cycle(5).n, cycle(5).edge_count()) == (5, 5)
    assert (complete(4).n, complete(4).edge_count()) == (4, 6)
    assert (empty(3).n, empty(3).edge_count()) == (3, 0)
    assert (star(4).n, star(4).edge_count()) == (5, 4)
    assert (wheel(4).n, wheel(4).edge_count()) == (5, 8)
    assert (fan(4).n, fan(4).edge_count()) == (5, 7)


def _spokes(n):
    return [(0, i) for i in range(1, n + 1)]


@pytest.mark.parametrize("n", range(3, 8))
def test_wheel_equals_corona_of_k1_and_cycle(n):
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    assert wheel(n) == corona(complete(1), cycle(n))[0] == from_edge_list(n + 1, rim + _spokes(n))


@pytest.mark.parametrize("n", range(2, 8))
def test_fan_equals_corona_of_k1_and_path(n):
    spine = [(i, i + 1) for i in range(1, n)]
    assert fan(n) == corona(complete(1), path(n))[0] == from_edge_list(n + 1, spine + _spokes(n))


def test_generator_minimums():
    for gen, bad in [(path, 0), (cycle, 2), (complete, 0), (empty, 0),
                     (star, 0), (wheel, 2), (fan, 1)]:
        with pytest.raises(DomainError):
            gen(bad)


def test_star_is_corona_of_k1_and_empty():
    assert star(3) == corona(complete(1), empty(3))[0] == from_edge_list(4, _spokes(3))


_GENERATOR_RANGES = [(path, 1, 62), (cycle, 3, 62), (complete, 1, 62), (empty, 1, 62),
                     (star, 1, 61), (wheel, 3, 61), (fan, 2, 61)]


@pytest.mark.parametrize("gen,lo,hi", _GENERATOR_RANGES, ids=[gen.__name__ for gen, *_ in _GENERATOR_RANGES])
def test_generators_pass_the_graph_check_over_their_whole_range(gen, lo, hi):
    """The generators build by ``Graph._trusted``; each graph would pass
    ``Graph``'s own check unchanged, and one step past either end is refused."""
    for n in range(lo, hi + 1):
        g = gen(n)
        assert Graph(g.n, g.adj) == g
    for n in (lo - 1, hi + 1):
        with pytest.raises(DomainError):
            gen(n)


@pytest.mark.parametrize("gen", [star, wheel, fan], ids=lambda gen: gen.__name__)
def test_hub_generators_stop_at_order_62(gen):
    """K1 ⊙ X has order |X| + 1, so X of order 62 is refused by ``corona``,
    before it builds a row."""
    assert gen(61).n == 62
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^corona order 63 exceeds the 62-vertex limit$"):
            gen(62)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak / (1 << 20):.1f} MiB"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_edge_list_passes_the_graph_check_hypothesis(data):
    n = data.draw(st.integers(min_value=2, max_value=62))
    # (u, u + k mod n) with 0 < k < n: any ordered pair of distinct vertices, repeats allowed
    edge = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda e: (e[0], (e[0] + e[1]) % n))
    edges = data.draw(st.lists(edge, max_size=120))
    g = from_edge_list(n, edges)
    assert Graph(g.n, g.adj) == g
    assert g.edges() == sorted({(min(e), max(e)) for e in edges})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_induced_subgraph_passes_the_graph_check_hypothesis(census, data):
    g = data.draw(st.sampled_from(census(data.draw(st.integers(min_value=1, max_value=7)))))
    members = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    sub = induced_subgraph(g, members)
    assert Graph(sub.n, sub.adj) == sub
    vs = vertex_tuple(members)
    assert sub.edges() == [(vs.index(u), vs.index(v)) for u, v in g.edges() if members >> u & members >> v & 1]


# --- corona -----------------------------------------------------------------


def test_corona_k1_c4_is_wheel():
    prod, layout = corona(complete(1), cycle(4))
    assert prod.n == 5
    assert layout.n1 == 1 and layout.n2 == 4
    assert prod == wheel(4)


def test_corona_p2_k1_pendants():
    prod, _ = corona(path(2), complete(1))
    assert prod.n == 4
    assert prod.edges() == [(0, 1), (0, 2), (1, 3)]


def test_corona_order_law_c3_p2():
    prod, _ = corona(cycle(3), path(2))
    assert prod.n == 9


@pytest.mark.parametrize("g,h", [
    (path(2), path(3)),
    (cycle(3), complete(2)),
    (complete(1), cycle(5)),
    (path(3), empty(2)),
    (cycle(4), complete(1)),
])
def test_corona_order_and_size_laws(g, h):
    prod, layout = corona(g, h)
    assert prod.n == g.n * (1 + h.n)
    assert prod.edge_count() == g.edge_count() + g.n * h.edge_count() + g.n * h.n
    assert layout.order == prod.n
    assert is_connected(prod)
    # blocks partition the vertices
    seen = layout.g_mask
    for i in range(layout.n1):
        block = layout.copy_mask(i)
        assert block.bit_count() == h.n
        assert seen & block == 0
        seen |= block
    assert seen == prod.full_mask


@pytest.mark.parametrize("g,h", [(path(2), path(3)), (cycle(3), path(2))])
def test_corona_copy_vertices_have_one_outside_neighbor(g, h):
    prod, layout = corona(g, h)
    for i in range(layout.n1):
        block = layout.copy_mask(i)
        for x in vertex_tuple(block):
            outside = prod.adj[x] & ~block
            assert outside == 1 << i


def test_corona_rejects_disconnected_first_factor():
    with pytest.raises(DomainError):
        corona(empty(2), complete(1))


def test_corona_rejects_oversized_product():
    with pytest.raises(DomainError):
        corona(complete(8), complete(7))  # 8 * 8 = 64 > 62


def test_corona_layout_index_bookkeeping():
    _, layout = corona(path(3), path(2))
    assert list(layout.copy_indices(0)) == [3, 4]
    assert list(layout.copy_indices(2)) == [7, 8]
    with pytest.raises(DomainError):
        layout.copy_indices(3)


def test_graphs_built_without_the_check_pass_it(census, monkeypatch):
    """``corona`` and the block search build their graphs by
    ``Graph._trusted``; each would pass ``Graph``'s own check unchanged."""
    received = []
    pick = geodesic._block_pick

    def spy(rows, forced):
        received.append(rows)
        return pick(rows, forced)

    monkeypatch.setattr(geodesic, "_block_pick", spy)
    for g in [g for order in range(1, 4) for g in census(order)]:
        for h in [h for order in range(1, 5) for h in census(order)]:
            prod = corona(g, h)[0]
            assert Graph(prod.n, prod.adj) == prod
            geodesic.geodetic_number(prod)
    assert received
    for rows in received:
        assert Graph(len(rows), rows) == Graph._trusted(rows)


# --- metric primitives ------------------------------------------------------


def test_bfs_distances_path4():
    D = bfs_distances(path(4))[0]
    assert D[0][3] == D[3][0] == 3
    assert D[0][0] == 0
    assert D == ((0, 1, 2, 3), (1, 0, 1, 2), (2, 1, 0, 1), (3, 2, 1, 0))


def test_bfs_distances_c6_antipodal():
    assert bfs_distances(cycle(6))[0][0][3] == 3


def test_bfs_distances_unreachable_sentinel():
    g = from_edge_list(3, [(0, 1)])
    D = bfs_distances(g)[0]
    assert D[0][2] == D[2][1] == g.n
    assert D[0][1] == 1


def test_distance_matrix_matches_adjacency(census):
    for g in census(5):
        D = bfs_distances(g)[0]
        assert len(D) == g.n and all(len(row) == g.n for row in D)
        for u in range(g.n):
            for v in range(g.n):
                assert (D[u][v] == 1) == g.has_edge(u, v)
        assert all(D[u][u] == 0 for u in range(g.n))


def _one_pass_tables(g):
    """D and I from one ``bfs_distances`` call, checked against networkx's
    distances (n across components) and the layer formula of
    ``oracles.interval_table``."""
    D, I = bfs_distances(g)
    dist = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    assert D == tuple(tuple(dist[u].get(v, g.n) for v in range(g.n)) for u in range(g.n))
    assert I == interval_table(D)
    assert all(type(row) is tuple for row in I)
    return D, I


def test_one_pass_tables_match_the_layer_formula_on_the_census(census):
    checked = 0
    for order in range(1, 8):
        for g in census(order):
            _one_pass_tables(g)
            checked += 1
    assert checked == 996


def test_one_pass_tables_across_components():
    rng = random.Random(7)
    cases = [empty(1), empty(5), from_edge_list(6, [(0, 1), (1, 2), (3, 4)]),
             from_edge_list(8, list(path(3).edges()) + [(u + 3, v + 3) for u, v in cycle(5).edges()])]
    for _ in range(40):
        n = rng.randint(2, 30)
        cases.append(from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                        if rng.random() < 1.5 / n]))
    assert sum(not is_connected(g) for g in cases) > 30
    for g in cases:
        D, I = _one_pass_tables(g)
        comp = {v: c for c in components(g) for v in vertex_tuple(c)}
        for u in range(g.n):
            assert I[u][u] == 1 << u and D[u][u] == 0
            for v in range(g.n):
                if comp[u] != comp[v]:
                    assert D[u][v] == g.n and I[u][v] == 0
                else:
                    assert D[u][v] < g.n and I[u][v] >> u & 1 and I[u][v] >> v & 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_pass_tables_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    _one_pass_tables(from_edge_list(n, chosen))


@pytest.mark.parametrize("g,h", [
    (path(2), cycle(30)), (cycle(5), path(11)), (path(31), complete(1)), (cycle(4), complete(14)),
    (star(2), wheel(18)), (complete(2), empty(30)), (path(6), fan(8)),
])
def test_one_pass_tables_on_corona_products(g, h):
    """Products of order 60 and 62, the largest the package builds."""
    prod = corona(g, h)[0]
    assert prod.n >= 60
    _one_pass_tables(prod)


def test_an_interval_read_builds_both_tables_in_one_pass(monkeypatch):
    """The memo reaches ``bfs_distances`` through its module-level name,
    which the benchmark tracer wraps; ``diameter`` reads the same one pass,
    so a later interval read builds nothing more."""
    calls = []
    bfs = graphs.bfs_distances
    monkeypatch.setattr(graphs, "bfs_distances", lambda g: calls.append(g) or bfs(g))
    for first in ("distances", "intervals"):
        g = cycle(7)
        getattr(g, first)
        assert calls == [g]
        assert sorted(vars(g)) == ["adj", "distances", "intervals", "n"]
        assert g.intervals == interval_table(g.distances)
        calls.clear()
    g = cycle(7)
    assert diameter(g) == 3 and calls == [g]
    assert sorted(vars(g)) == ["adj", "distances", "intervals", "n"]
    assert g.intervals == interval_table(g.distances)
    assert calls == [g]
    with pytest.raises(AttributeError, match="'Graph' object has no attribute 'interval'"):
        g.interval


def test_diameter_examples():
    assert diameter(complete(5)) == 1
    assert diameter(cycle(6)) == 3
    assert diameter(empty(2)) is None
    assert diameter(complete(1)) == 0


@pytest.mark.parametrize("h", [path(3), cycle(4), empty(2), path(2), star(3)])
def test_diameter_of_k1_corona_is_two_iff_noncomplete(h):
    prod, _ = corona(complete(1), h)
    assert diameter(prod) == (1 if is_complete(h) else 2)


def test_diameter_of_k1_corona_never_exceeds_two(census):
    for order in (1, 2, 3, 4):
        for h in census(order):
            assert diameter(corona(complete(1), h)[0]) <= 2


def _agrees_with_diameter(g):
    two = is_diameter_two(g)
    assert vars(g).keys() == {"n", "adj"}  # the test builds no table
    assert two == (diameter(g) == 2), (g.n, g.adj)
    return two


def test_is_diameter_two_agrees_with_diameter_on_the_census(census):
    checked = twos = 0
    for order in range(1, 8):
        for g in census(order):
            twos += _agrees_with_diameter(Graph(g.n, g.adj))  # shared census graphs may hold tables
            checked += 1
    assert checked == 996 and twos == 451


@pytest.mark.parametrize("g,two", [
    (complete(1), False), (complete(2), False), (empty(2), False), (complete(6), False),
    (path(3), True), (cycle(5), True), (star(4), True), (cycle(6), False), (path(4), False),
    (from_edge_list(4, [(0, 1), (1, 2)]), False),  # diameter 2 on a component, but disconnected
])
def test_is_diameter_two_examples(g, two):
    assert _agrees_with_diameter(g) == two


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_diameter_two_agrees_with_diameter_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    dense = data.draw(st.booleans())  # dense draws reach diameter 2, sparse ones stay disconnected
    chosen = [p for p in pairs if data.draw(st.floats(0, 1)) < (0.7 if dense else 0.15)]
    _agrees_with_diameter(from_edge_list(n, chosen))


def test_is_connected_examples():
    assert is_connected(path(5))
    assert not is_connected(empty(2))
    assert is_connected(corona(path(3), empty(2))[0])


def test_is_connected_reads_the_distance_rows_once_built(monkeypatch):
    """A graph that holds its tables answers from row 0 of the distance
    table, as the reachability pass would."""
    rng = random.Random(5)
    gs = [from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.3])
          for n in range(1, 9) for _ in range(12)]
    want = [is_connected(g) for g in gs]
    assert 0 < sum(want) < len(gs)
    for g in gs:
        assert g.distances  # builds both tables
    monkeypatch.setattr(graphs, "reachable_set", None)  # any call fails
    assert [is_connected(g) for g in gs] == want


def test_components_and_reachable():
    g = from_edge_list(5, [(0, 1), (2, 3)])
    comps = components(g)
    assert comps == [0b00011, 0b01100, 0b10000]
    assert reachable_set(g, 0) == 0b00011
    assert reachable_set(g, 0, within=0b00001) == 0b00001
    with pytest.raises(DomainError):
        reachable_set(g, 0, within=0b10000)


# --- extreme vertices -------------------------------------------------------


def test_extreme_complete_and_cycle():
    assert extreme_vertices(complete(4)) == complete(4).full_mask
    assert extreme_vertices(cycle(4)) == 0


def test_extreme_includes_isolated_and_pendant():
    g = from_edge_list(3, [(0, 1)])
    assert extreme_vertices(g) == 0b111


@pytest.mark.parametrize("h,k", [(path(3), 2), (path(2), 2), (cycle(3), 3)])
def test_pendants_of_corona_with_empty_are_exactly_the_extremes(h, k):
    prod, layout = corona(h, empty(k))
    assert extreme_vertices(prod) == layout.copies_mask


def test_extreme_agrees_with_double_loop(census):
    for order in range(1, 8):
        for g in census(order):
            assert vertex_tuple(extreme_vertices(g)) == tuple(sorted(extreme_by_double_loop(g)))


def test_extreme_double_loop_on_disconnected_graphs():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = from_edge_list(n, edges)
        assert vertex_tuple(extreme_vertices(g)) == tuple(sorted(extreme_by_double_loop(g)))


def test_extreme_vertices_are_not_kept_on_the_graph():
    """The graph memoizes its two tables only; the extreme vertices are one
    O(m) scan per call."""
    g = fan(4)
    assert extreme_vertices(g) == mask_of([1, 4])
    assert not hasattr(g, "extreme_vertices") and sorted(vars(g)) == ["adj", "n"]
    g.intervals
    assert sorted(vars(g)) == ["adj", "distances", "intervals", "n"]
    g.drop_tables()
    assert sorted(vars(g)) == ["adj", "n"]


# --- induced subgraphs and neighborhoods ------------------------------------


def test_induced_wheel_hub_neighborhood_is_rim_cycle():
    w = wheel(5)
    rim = induced_subgraph(w, w.adj[0])
    assert rim == cycle(5)


def test_induced_single_vertex_and_full_set():
    g = cycle(4)
    assert induced_subgraph(g, 0b0100) == complete(1)
    assert induced_subgraph(g, g.full_mask) == g


def test_induced_rows_are_the_induced_subgraphs_rows(census):
    for g in census(5):
        for members in range(1, 1 << g.n):
            assert induced_rows(g, members) == induced_subgraph(g, members).adj


def test_induced_rejects_empty_and_foreign_sets():
    with pytest.raises(DomainError):
        induced_subgraph(cycle(3), 0)
    with pytest.raises(DomainError):
        induced_subgraph(cycle(3), 0b1000)


# --- blocks -----------------------------------------------------------------------


def _blocks_and_cut_vertices(g):
    """``blocks(g)`` sorted, and the vertices in two or more of them."""
    parts = blocks(g)
    cut = seen = 0
    for b in parts:
        cut |= seen & b
        seen |= b
    return sorted(parts), cut


def _networkx_blocks(g):
    gx = to_nx(g)
    return sorted(mask_of(b) for b in nx.biconnected_components(gx)), mask_of(nx.articulation_points(gx))


def test_blocks_examples():
    assert blocks(path(1)) == [] and blocks(empty(3)) == []
    assert sorted(blocks(path(4))) == [0b0011, 0b0110, 0b1100]
    assert blocks(cycle(5)) == [0b11111]
    product, layout = corona(path(3), cycle(4))
    # G's two edges, and one copy of K1 ⊙ C4 per base vertex
    assert sorted(blocks(product)) == sorted([0b011, 0b110] + [1 << i | layout.copy_mask(i) for i in range(3)])


def test_blocks_match_networkx_on_census(census):
    checked = with_cut = 0
    for order in range(1, 8):
        for g in census(order):
            got = _blocks_and_cut_vertices(g)
            assert got == _networkx_blocks(g), encode_graph6(g)
            checked += 1
            with_cut += got[1] != 0
    assert (checked, with_cut) == (996, 456)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocks_match_networkx_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    g = from_edge_list(n, edges)
    assert _blocks_and_cut_vertices(g) == _networkx_blocks(g)


# --- randomized structural invariants ---------------------------------------


def test_random_graphs_satisfy_type_invariants():
    rng = random.Random(123)
    for _ in range(50):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = from_edge_list(n, edges)
        for v in range(n):
            assert not g.adj[v] >> v & 1
            for u in vertex_tuple(g.adj[v]):
                assert g.adj[u] >> v & 1
        assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count()


def test_corona_block_adjacency_is_h_shaped():
    h = from_edge_list(3, [(0, 2)])
    prod, layout = corona(path(2), h)
    for i in range(2):
        idx = list(layout.copy_indices(i))
        for a, b in itertools.combinations(range(3), 2):
            assert prod.has_edge(idx[a], idx[b]) == h.has_edge(a, b)
