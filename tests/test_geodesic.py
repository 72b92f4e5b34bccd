import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronageo import graphs, subsets
from coronageo.errors import CapExceeded, DomainError
from coronageo.formats import encode_graph6, parse_graph6
from coronageo.geodesic import (
    GeodeticResult,
    geodetic_number,
    interval,
    is_geodetic,
    k_geodetic_number,
)
from coronageo.graphs import (
    bfs_distances,
    blocks,
    complete,
    corona,
    cycle,
    diameter,
    empty,
    extreme_vertices,
    from_edge_list,
    interval_table,
    mask_of,
    path,
    vertex_tuple,
)
from coronageo.subsets import ascending_subsets, candidate_rank, first_cover

from oracles import (
    closure_vertices,
    geodetic_number_brute,
    geodetic_search_by_closure,
    interval_vertices,
    k_geodetic_number_brute,
    k_geodetic_search_by_closure,
)


# --- intervals ---------------------------------------------------------------


def test_interval_unique_geodesic_path3():
    D = bfs_distances(path(3))
    assert interval(D, 0, 2) == 0b111


def test_interval_of_vertex_with_itself():
    D = bfs_distances(cycle(5))
    assert interval(D, 3, 3) == 0b01000


def test_interval_c4_both_geodesics():
    # confirmed by brute-force path enumeration
    g = cycle(4)
    assert interval(bfs_distances(g), 0, 2) == g.full_mask
    assert interval_vertices(g, 0, 2) == {0, 1, 2, 3}


def test_interval_cross_component_is_domain_error():
    D = bfs_distances(empty(2))
    with pytest.raises(DomainError):
        interval(D, 0, 1)
    with pytest.raises(DomainError):
        interval(D, 0, 5)


def test_interval_matches_path_enumeration(census):
    for order in (2, 3, 4, 5):
        for g in census(order):
            D = bfs_distances(g)
            for u in range(g.n):
                for v in range(u, g.n):
                    assert vertex_tuple(interval(D, u, v)) == tuple(sorted(interval_vertices(g, u, v)))


# --- geodetic predicates -------------------------------------------------------


def test_is_geodetic_full_set():
    assert is_geodetic(cycle(5), cycle(5).full_mask)


def test_is_geodetic_rejects_proper_subsets_of_complete_graphs():
    g = complete(5)
    for size in range(1, 5):
        for combo in itertools.combinations(range(5), size):
            assert not is_geodetic(g, mask_of(combo))


def test_is_geodetic_wheel_witness():
    w6, _ = corona(complete(1), cycle(6))
    r = geodetic_number(w6)
    assert r.value == 3
    assert is_geodetic(w6, mask_of(r.witness))


def test_is_geodetic_path_endpoints():
    g = path(6)
    assert is_geodetic(g, mask_of([0, 5]))
    assert not is_geodetic(g, mask_of([0, 4]))


def test_is_geodetic_c6_antipodal_pair():
    # two antipodal geodesics cover the whole cycle; brute-force confirmed
    g = cycle(6)
    assert is_geodetic(g, mask_of([0, 3]))
    assert closure_vertices(g, [0, 3]) == set(range(6))
    assert not is_geodetic(g, mask_of([0, 2]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_geodetic_matches_closure_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    edges += [(i, i + 1) for i in range(n - 1)]  # keep it connected
    g = from_edge_list(n, edges)
    members = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    expected = closure_vertices(g, vertex_tuple(members)) == set(range(n))
    assert is_geodetic(g, members) == expected


def test_is_geodetic_domain_errors():
    with pytest.raises(DomainError):
        is_geodetic(empty(2), 0b11)
    with pytest.raises(DomainError):
        is_geodetic(path(2), 0)


def test_interval_table_examples():
    I = interval_table(bfs_distances(path(3)))
    assert I[0][2] >> 0 & 1  # an end vertex lies on its own geodesics
    assert I[0][2] >> 1 & 1
    I5 = interval_table(bfs_distances(cycle(5)))
    assert not I5[0][4] >> 2 & 1  # d(0,4) = 1, interval is the edge


# --- geodetic number ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_geodetic_number_complete(n):
    r = geodetic_number(complete(n))
    assert r.value == n
    assert r.witness == tuple(range(n))


def test_geodetic_number_wheel6_and_fan5():
    assert geodetic_number(corona(complete(1), cycle(6))[0]).value == 3
    assert geodetic_number(corona(complete(1), path(5))[0]).value == 3


def test_geodetic_number_c4():
    r = geodetic_number(cycle(4))
    assert r.value == 2
    assert r.witness == (0, 2)  # first passing set in canonical order
    assert r.explored >= 1


def test_geodetic_number_requires_connected():
    with pytest.raises(DomainError):
        geodetic_number(empty(3))


def test_geodetic_number_cap():
    w, _ = corona(complete(1), cycle(10))  # order 11
    with pytest.raises(CapExceeded):
        geodetic_number(w, cap=10)
    assert geodetic_number(w, cap=11).value == 5


def test_pruned_equals_unpruned_small_census(census):
    for order in range(1, 7):
        for g in census(order):
            a = geodetic_number(g)
            b = geodetic_search_by_closure(g, 0)
            assert (a.value, a.witness) == (b.value, b.witness)
            assert a.explored <= b.explored


def test_witness_contains_extreme_vertices(census):
    for order in range(1, 7):
        for g in census(order):
            r = geodetic_number(g)
            assert extreme_vertices(g) & ~mask_of(r.witness) == 0


def test_geodetic_number_matches_brute_oracle(census):
    for order in range(1, 6):
        for g in census(order):
            value, witness = geodetic_number_brute(g)
            r = geodetic_number(g)
            assert r.value == value
            assert r.witness == witness


# --- k-geodetic number -----------------------------------------------------------


def test_g2_path4():
    r = k_geodetic_number(path(4), 2)
    assert r.value == 3
    assert r.witness == (0, 1, 3)
    assert not r.unsatisfiable


def test_g2_cycle4():
    assert k_geodetic_number(cycle(4), 2).value == 2


def test_gk_unsatisfiable_beyond_diameter():
    r = k_geodetic_number(path(3), 3)
    assert r.unsatisfiable
    assert r.value is None and r.witness is None


def test_gk_unsatisfiable_on_complete_graphs():
    assert k_geodetic_number(complete(4), 2).unsatisfiable


def test_gk_rejects_k_below_two():
    with pytest.raises(DomainError):
        k_geodetic_number(path(3), 1)


def test_gk_requires_connected():
    with pytest.raises(DomainError):
        k_geodetic_number(empty(2), 2)


def test_gk_witness_contains_extreme_vertices(census):
    # the search forces them; test_cover_search_matches_closure_search_on_census
    # checks, against a search that forces nothing, that this changes no witness
    for order in range(1, 7):
        for g in census(order):
            for k in (2, 3):
                r = k_geodetic_number(g, k)
                if not r.unsatisfiable:
                    assert extreme_vertices(g) & ~mask_of(r.witness) == 0


def test_g_le_gk_on_census_through_order_7(census):
    for order in range(2, 8):
        for g in census(order):
            base = geodetic_number(g).value
            for k in range(2, diameter(g) + 1):
                r = k_geodetic_number(g, k)
                assert r.value is not None
                assert base <= r.value


def test_gk_matches_brute_oracle(census):
    for order in range(2, 6):
        for g in census(order):
            value, witness = k_geodetic_number_brute(g, 2)
            r = k_geodetic_number(g, 2)
            assert r.value == value
            assert r.witness == witness


def test_g2_p5_differs_from_g():
    # the fan lower-bound hypothesis instance: g(P5) = 2, g2(P5) = 3
    assert geodetic_number(path(5)).value == 2
    assert k_geodetic_number(path(5), 2).value == 3


# --- cover search against the per-candidate closure search -------------------------


def _unforced(g):
    members, explored = first_cover(interval_table(bfs_distances(g)), g.n, 0)
    return GeodeticResult(members.bit_count(), vertex_tuple(members), explored)


def _flat(g):
    """The search over the whole graph that the block search replaces."""
    members, explored = first_cover(g.intervals, g.n, extreme_vertices(g))
    return GeodeticResult(members.bit_count(), vertex_tuple(members), explored)


def test_cover_search_matches_closure_search_on_census(census):
    checked = unsatisfiable = 0
    for order in range(1, 7):
        for g in census(order):
            code = encode_graph6(g)
            ref = geodetic_search_by_closure(g, extreme_vertices(g))
            assert geodetic_number(g) == ref, code
            assert _unforced(g) == geodetic_search_by_closure(g, 0), code
            for k in (2, 3, diameter(g) + 2):
                r = k_geodetic_number(g, k)
                assert r == k_geodetic_search_by_closure(g, k), (code, k)
                unsatisfiable += r.unsatisfiable
            checked += 1
    assert checked == 143
    assert unsatisfiable > 143  # every k = D + 2, and k = 2, 3 above small diameters


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cover_search_matches_references_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    tree = [(data.draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    g = from_edge_list(n, sorted(set(tree) | set(extra)))
    r = geodetic_number(g)
    assert r == geodetic_search_by_closure(g, extreme_vertices(g))
    assert (r.value, r.witness) == geodetic_number_brute(g)
    assert _unforced(g) == geodetic_search_by_closure(g, 0)
    for k in (2, 3):
        assert k_geodetic_number(g, k) == k_geodetic_search_by_closure(g, k)


# GEO_CORONA_EQ products G ⊙ H of order 15-20 whose witnesses lie thousands of
# candidates deep, so whole subtrees are skipped by the bound.  geodetic_number
# searches these products block by block, so the test runs the whole-graph
# search itself.
@pytest.mark.parametrize("g6_g,g6_h", [("Bo", "Cl"), ("Bo", "D]o"), ("Bo", "Dhc"), ("CF", "Ck")])
def test_cover_search_skips_subtrees_on_corona_products(g6_g, g6_h, monkeypatch):
    product, _ = corona(parse_graph6(g6_g), parse_graph6(g6_h))
    assert 15 <= product.n <= 20
    skipped = []

    def counting_comb(a, b):
        skipped.append(comb(a, b))
        return skipped[-1]

    monkeypatch.setattr(subsets, "comb", counting_comb)
    ref = geodetic_search_by_closure(product, extreme_vertices(product))
    assert _flat(product) == ref
    assert max(skipped) > 1
    assert geodetic_number(product) == ref


# --- geodetic number by blocks against the whole-graph search ---------------------


def test_block_search_matches_flat_search_on_census(census):
    split = 0
    for order in range(1, 8):
        for g in census(order):
            assert geodetic_number(g) == _flat(g), encode_graph6(g)
            split += len(blocks(g)) > 1
    assert split == 456


def test_block_search_matches_flat_search_on_corona_products(census):
    checked = 0
    for g in (g for order in range(1, 5) for g in census(order)):
        for h in (h for order in range(1, 6) for h in census(order)):
            if g.n * (h.n + 1) <= 20:
                product, _ = corona(g, h)
                assert geodetic_number(product) == _flat(product), (encode_graph6(g), encode_graph6(h))
                checked += 1
    assert checked == 184


@st.composite
def glued_blocks(draw):
    """A connected graph of order <= 14 glued from small blocks, each a cycle
    with chords (or one edge) sharing one vertex with the graph so far, then
    relabeled; returns the graph and its blocks."""
    n, edges, parts = 1, [], []
    for k in draw(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=8)):
        if n + k - 1 > 14:
            break
        vs = [draw(st.integers(min_value=0, max_value=n - 1)), *range(n, n + k - 1)]
        n += k - 1
        edges += [(vs[i], vs[(i + 1) % k]) for i in range(k if k > 2 else 1)]
        edges += draw(st.lists(st.sampled_from(list(itertools.combinations(vs, 2))), max_size=3))
        parts.append(vs)
    label = draw(st.permutations(range(n)))
    g = from_edge_list(n, [(label[u], label[v]) for u, v in edges])
    return g, sorted(mask_of(label[v] for v in vs) for vs in parts)


@settings(max_examples=60, deadline=None)
@given(glued_blocks())
def test_block_search_matches_flat_search_hypothesis(case):
    g, parts = case
    assert sorted(blocks(g)) == parts
    r = geodetic_number(g)
    assert r == _flat(g)
    if g.n <= 10:
        assert (r.value, r.witness) == geodetic_number_brute(g)


def test_tables_are_computed_once_per_graph(monkeypatch):
    calls = []
    bfs = graphs.bfs_distances
    monkeypatch.setattr(graphs, "bfs_distances", lambda g: calls.append(g) or bfs(g))
    g = corona(path(2), cycle(4))[0]
    geodetic_number(g)
    k_geodetic_number(g, 2)
    is_geodetic(g, g.full_mask)
    diameter(g)
    assert calls == [g]  # through the module-level name, which the benchmark tracer wraps
    assert g.distances is g.distances and g.intervals is g.intervals
    table = g.intervals
    g.drop_tables()
    assert "distances" not in vars(g) and "intervals" not in vars(g)
    assert g.intervals == table and calls == [g, g]


def test_k_geodetic_search_leaves_the_shared_table_as_it_is(census):
    for g in census(6):
        table = interval_table(bfs_distances(g))
        for k in (2, 3):
            k_geodetic_number(g, k)
        assert g.intervals == table and all(type(row) is tuple for row in g.intervals)
        assert geodetic_number(g) == _flat(from_edge_list(g.n, g.edges()))


# --- canonical search order -------------------------------------------------------


def test_ascending_subsets_matches_filtered_lexicographic_enumeration():
    n, forced = 6, mask_of([1, 4])
    produced = [m for m in ascending_subsets((1 << n) - 1, forced)]
    expected = []
    for size in range(forced.bit_count(), n + 1):
        for combo in itertools.combinations(range(n), size):
            m = mask_of(combo)
            if m & forced == forced:
                expected.append(m)
    assert produced == expected


@pytest.mark.parametrize("n", range(7))
def test_candidate_rank_is_the_position_among_nonempty_candidates(n):
    full = (1 << n) - 1
    for forced in range(1 << n):
        candidates = [m for m in ascending_subsets(full, forced) if m]
        assert [candidate_rank(m, full, forced) for m in candidates] == list(range(1, len(candidates) + 1))


def test_candidate_rank_within_a_universe():
    universe, forced = mask_of([1, 3, 4, 6]), mask_of([3])
    candidates = list(ascending_subsets(universe, forced))
    assert [candidate_rank(m, universe, forced) for m in candidates] == list(range(1, 9))


def test_ascending_subsets_unrestricted_is_size_then_lex():
    produced = list(ascending_subsets(0b1111))
    sizes = [m.bit_count() for m in produced]
    assert sizes == sorted(sizes)
    assert len(produced) == 16
    by_size = [vertex_tuple(m) for m in produced if m.bit_count() == 2]
    assert by_size == sorted(by_size)
