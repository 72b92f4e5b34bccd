import itertools
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronageo import geodesic
from coronageo.corpus import Caps, CorpusEntry, CorpusSpec
from coronageo.errors import DomainError
from coronageo.formats import encode_graph6
from coronageo.geodesic import GeodeticResult
from coronageo.graphs import (
    CoronaLayout,
    Graph,
    bfs_distances,
    bits,
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
    mask_of,
    path,
    reachable_set,
    star,
    vertex_tuple,
    wheel,
)
from coronageo.steiner import SteinerResult

from oracles import extreme_by_double_loop, to_nx


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
        g.intervals, g.extreme_vertices  # distances come with the intervals
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    assert ("distances" in vars(copy)) == built
    assert copy.distances == bfs_distances(g) and copy.extreme_vertices == extreme_vertices(g)
    with pytest.raises(AttributeError):
        copy.n = 1


@pytest.mark.parametrize("record,text", [
    (Caps(), "Caps(geodetic=20, steiner=16)"),
    (Caps(steiner=5), "Caps(geodetic=20, steiner=5)"),
    (GeodeticResult(2, (0, 3), 4), "GeodeticResult(value=2, witness=(0, 3), explored=4)"),
    (GeodeticResult(None, None, 0), "GeodeticResult(value=None, witness=None, explored=0)"),
    (SteinerResult(3, (0, 1, 4), 9), "SteinerResult(value=3, witness=(0, 1, 4), explored=9)"),
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
    assert list(bits(m)) == [0, 2, 5]


# --- generators -------------------------------------------------------------


def test_generator_orders_and_sizes():
    assert (path(5).n, path(5).edge_count()) == (5, 4)
    assert (cycle(5).n, cycle(5).edge_count()) == (5, 5)
    assert (complete(4).n, complete(4).edge_count()) == (4, 6)
    assert (empty(3).n, empty(3).edge_count()) == (3, 0)
    assert (star(4).n, star(4).edge_count()) == (5, 4)
    assert (wheel(4).n, wheel(4).edge_count()) == (5, 8)
    assert (fan(4).n, fan(4).edge_count()) == (5, 7)


@pytest.mark.parametrize("n", range(3, 8))
def test_wheel_equals_corona_of_k1_and_cycle(n):
    assert wheel(n) == corona(complete(1), cycle(n))[0]


@pytest.mark.parametrize("n", range(2, 8))
def test_fan_equals_corona_of_k1_and_path(n):
    assert fan(n) == corona(complete(1), path(n))[0]


def test_generator_minimums():
    for gen, bad in [(path, 0), (cycle, 2), (complete, 0), (empty, 0),
                     (star, 0), (wheel, 2), (fan, 1)]:
        with pytest.raises(DomainError):
            gen(bad)


def test_star_is_corona_of_k1_and_empty():
    assert star(3) == corona(complete(1), empty(3))[0]


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
        for x in bits(block):
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
    D = bfs_distances(path(4))
    assert D[0][3] == D[3][0] == 3
    assert D[0][0] == 0
    assert D == ((0, 1, 2, 3), (1, 0, 1, 2), (2, 1, 0, 1), (3, 2, 1, 0))


def test_bfs_distances_c6_antipodal():
    assert bfs_distances(cycle(6))[0][3] == 3


def test_bfs_distances_unreachable_sentinel():
    g = from_edge_list(3, [(0, 1)])
    D = bfs_distances(g)
    assert D[0][2] == D[2][1] == g.n
    assert D[0][1] == 1


def test_distance_matrix_matches_adjacency(census):
    for g in census(5):
        D = bfs_distances(g)
        assert len(D) == g.n and all(len(row) == g.n for row in D)
        for u in range(g.n):
            for v in range(g.n):
                assert (D[u][v] == 1) == g.has_edge(u, v)
        assert all(D[u][u] == 0 for u in range(g.n))


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


def test_is_connected_examples():
    assert is_connected(path(5))
    assert not is_connected(empty(2))
    assert is_connected(corona(path(3), empty(2))[0])


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


def test_extreme_vertices_are_computed_once_per_graph():
    g = fan(4)
    ext = extreme_vertices(g)
    assert vars(g)["extreme_vertices"] == ext == mask_of([1, 4])
    g.drop_tables()
    assert "extreme_vertices" not in vars(g) and extreme_vertices(g) == ext


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
            for u in bits(g.adj[v]):
                assert g.adj[u] >> v & 1
        assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count()


def test_corona_block_adjacency_is_h_shaped():
    h = from_edge_list(3, [(0, 2)])
    prod, layout = corona(path(2), h)
    for i in range(2):
        idx = list(layout.copy_indices(i))
        for a, b in itertools.combinations(range(3), 2):
            assert prod.has_edge(idx[a], idx[b]) == h.has_edge(a, b)
