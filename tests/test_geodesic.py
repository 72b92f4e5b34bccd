import gc
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronageo import cli, geodesic, graphs, subsets
from coronageo.corpus import Caps
from coronageo.errors import CapExceeded, DomainError
from coronageo.formats import encode_graph6, parse_graph6
from coronageo.geodesic import (
    GeodeticResult,
    _block_pick,
    geodetic_families,
    geodetic_number,
    geodetic_sets,
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
    is_complete,
    mask_of,
    path,
    vertex_tuple,
    wheel,
)
from coronageo.harness import check_diam2_steiner_geodetic, check_geo_corona_eq
from coronageo.steiner import steiner_number, steiner_sets
from coronageo.subsets import ascending_subsets, candidate_rank, first_cover, first_set, least_size

from oracles import (
    closure_vertices,
    geodetic_number_brute,
    geodetic_search_by_closure,
    interval_table,
    interval_vertices,
    k_geodetic_number_brute,
    k_geodetic_search_by_closure,
)


# --- intervals ---------------------------------------------------------------
# I[u, v] is read off the one-pass table ``bfs_distances(G)[1]``, which
# ``Graph.intervals`` holds.


def test_interval_unique_geodesic_path3():
    assert bfs_distances(path(3))[1][0][2] == 0b111


def test_interval_of_vertex_with_itself():
    assert bfs_distances(cycle(5))[1][3][3] == 0b01000


def test_interval_c4_both_geodesics():
    # confirmed by brute-force path enumeration
    g = cycle(4)
    assert bfs_distances(g)[1][0][2] == g.full_mask
    assert interval_vertices(g, 0, 2) == {0, 1, 2, 3}


def test_interval_cross_component_is_domain_error():
    """Across components the table holds distance n and an empty interval,
    and ``compute --measure interval`` refuses the pair, as it refuses a
    vertex outside the graph."""
    g = empty(2)
    D, I = bfs_distances(g)
    assert (D[0][1], I[0][1]) == (2, 0)
    for text, message in (("0,1", "^vertices 0 and 1 are in different components$"),
                          ("0,5", r"^--vertices entry 5 is not in the graph \(order 2\)$")):
        with pytest.raises(DomainError, match=message):
            cli._measure_payload(g, "interval", SimpleNamespace(vertices=text), Caps())


def test_interval_matches_path_enumeration(census):
    for order in (2, 3, 4, 5):
        for g in census(order):
            I = bfs_distances(g)[1]
            for u in range(g.n):
                for v in range(u, g.n):
                    assert vertex_tuple(I[u][v]) == tuple(sorted(interval_vertices(g, u, v)))


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
    I = interval_table(bfs_distances(path(3))[0])
    assert I[0][2] >> 0 & 1  # an end vertex lies on its own geodesics
    assert I[0][2] >> 1 & 1
    I5 = interval_table(bfs_distances(cycle(5))[0])
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
    members = first_cover(interval_table(bfs_distances(g)[0]), g.n, 0)
    return GeodeticResult(members.bit_count(), vertex_tuple(members), candidate_rank(members, g.full_mask))


def _flat(g):
    """The search over the whole graph that the block search replaces."""
    ext = extreme_vertices(g)
    members = first_cover(g.intervals, g.n, ext)
    return GeodeticResult(members.bit_count(), vertex_tuple(members), candidate_rank(members, g.full_mask, ext))


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
        _assert_first_k_set_is_k_geodetic_number(g, k)


# GEO_CORONA_EQ products G ⊙ H of order 15-20 whose witnesses lie thousands of
# candidates deep, so whole subtrees are skipped by the bound.  geodetic_number
# searches these products block by block, so the test runs the whole-graph
# search itself.  Each frame of the depth-first search calls
# ``subsets.accumulate`` once.  Without the bound it opens 0.34-0.67 frames per
# candidate up to the witness on these four; with it, 0.02-0.13.
@pytest.mark.parametrize("g6_g,g6_h", [("Bo", "Cl"), ("Bo", "D]o"), ("Bo", "Dhc"), ("CF", "Ck")])
def test_cover_search_skips_subtrees_on_corona_products(g6_g, g6_h, monkeypatch):
    product, _ = corona(parse_graph6(g6_g), parse_graph6(g6_h))
    assert 15 <= product.n <= 20
    frames = []
    accumulate = subsets.accumulate
    monkeypatch.setattr(subsets, "accumulate", lambda *a: frames.append(a) or accumulate(*a))
    ref = geodetic_search_by_closure(product, extreme_vertices(product))
    assert _flat(product) == ref
    assert 5 * len(frames) < ref.explored
    assert geodetic_number(product) == ref


# --- geodetic number by blocks against the whole-graph search ---------------------


def test_block_search_matches_flat_search_on_census(census):
    split = 0
    for order in range(1, 8):
        for g in census(order):
            assert geodetic_number(g) == _flat(g), encode_graph6(g)
            split += len(blocks(g)) > 1
    assert split == 456


def _corona_pairs(census):
    """The pairs (G, H) of census graphs, G of order <= 4 and H of order <= 5,
    whose product G ⊙ H has order <= 20."""
    for g in (g for order in range(1, 5) for g in census(order)):
        for h in (h for order in range(1, 6) for h in census(order)):
            if g.n * (h.n + 1) <= 20:
                yield g, h


def test_block_search_matches_flat_search_on_corona_products(census):
    checked = 0
    for g, h in _corona_pairs(census):
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
    monkeypatch.setattr(graphs, "bfs_distances", lambda g, **kw: calls.append(g) or bfs(g, **kw))
    g = corona(path(2), cycle(4))[0]
    geodetic_number(g)  # searches its two K1 ⊙ C4 blocks on one block graph
    k_geodetic_number(g, 2)
    is_geodetic(g, g.full_mask)
    diameter(g)
    # through the module-level name, which the benchmark tracer wraps
    block, g_calls = [c for c in calls if c is not g], [c for c in calls if c is g]
    assert g_calls == [g] and len(block) == 1 and block[0].n == 5
    assert g.distances is g.distances and g.intervals is g.intervals
    table = g.intervals
    g.drop_tables()
    assert "distances" not in vars(g) and "intervals" not in vars(g)
    assert g.intervals == table and calls == [*block, g, g]


def test_corona_copies_are_searched_once_without_the_products_tables(monkeypatch):
    calls = []
    monkeypatch.setattr(geodesic, "first_cover", lambda *a: calls.append(a) or first_cover(*a))
    prod = corona(path(4), cycle(5))[0]
    r = geodetic_number(prod, cap=prod.n)  # order 24, above the default cap
    assert "intervals" not in vars(prod) and "distances" not in vars(prod)
    assert len(calls) == 1 and calls[0][1] == 6  # one K1 ⊙ C5 for the four copies
    assert r.value == 4 * geodetic_number(wheel(5)).value == 12
    assert is_geodetic(prod, mask_of(r.witness))


def test_single_block_picks_are_cached_across_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(geodesic, "first_cover", lambda *a: calls.append(a) or first_cover(*a))
    w = wheel(5)  # one block of order 6, with no extreme vertex
    assert geodetic_number(w) == geodetic_number(w) == _flat(w)
    assert [(n, forced) for _, n, forced in calls] == [(6, 0)]
    calls.clear()
    h = path(4)  # K1 ⊙ P4 is one block, with extreme vertices 1 and 4
    reports = [check_geo_corona_eq(g, h) for g in (complete(1), path(2), path(3), cycle(3), cycle(4))]
    assert [r.verdict for r in reports] == ["PASS"] * 5
    # once whole, and once as a block of the products with its hub forced
    assert sorted((n, forced) for _, n, forced in calls) == [(5, 0b10010), (5, 0b10011)]


def test_block_picks_are_keyed_by_the_forced_vertices_too(census):
    # Three graphs hold a C4 block with rows (12, 12, 3, 3): DbW forces its
    # local vertex 0 and picks 1, EBy? forces 3 and picks 2, and C], that C4
    # alone, forces nothing and picks 0 and 1.
    cases = [parse_graph6(code) for code in ("DbW", "EBy?", "C]", "DbW")]
    for g in cases:
        assert geodetic_number(g) == _flat(g), encode_graph6(g)
    assert _block_pick((12, 12, 3, 3), 1) == 2 and _block_pick((12, 12, 3, 3), 8) == 4
    assert _block_pick((12, 12, 3, 3), 0) == 3
    # K1 ⊙ H has the same rows searched whole, its extreme vertices forced, and
    # as a block of G ⊙ H, its hub forced too.  Those two picks agree (a set
    # that covers a non-complete H holds a pair at distance 2, whose interval
    # holds the hub), so it is the C4 above that needs the forced mask in the key.
    sequence = [g for order in range(1, 8) for g in census(order)]
    for g, h in _corona_pairs(census):
        sequence += [corona(g, h)[0], corona(complete(1), h)[0]]
    cold = []
    for g in sequence:
        _block_pick.cache_clear()
        cold.append(geodetic_number(g))
    assert [geodetic_number(g) for g in sequence] == cold  # each reads the picks of those before it


def test_k_geodetic_search_leaves_the_shared_table_as_it_is(census):
    for g in census(6):
        table = interval_table(bfs_distances(g)[0])
        for k in (2, 3):
            k_geodetic_number(g, k)
        assert g.intervals == table and all(type(row) is tuple for row in g.intervals)
        assert geodetic_number(g) == _flat(from_edge_list(g.n, g.edges()))


# --- every geodetic set as one bitset ---------------------------------------------


def _assert_sets_match_is_geodetic(g):
    geo = geodetic_sets(g)
    assert geo >> (1 << g.n) == 0 and geo & 1 == 0  # 2^n bits, the empty set not among them
    for members in range(1, 1 << g.n):
        assert geo >> members & 1 == is_geodetic(g, members), (encode_graph6(g), members)
    # the one pair pass gives the same family after the pairs at distance k
    for k in (2, 3):
        assert geodetic_families(g, k)[0] == geo, (encode_graph6(g), k)


def test_geodetic_sets_match_is_geodetic_on_census(census):
    checked = 0
    for order in range(1, 7):
        for g in census(order):
            _assert_sets_match_is_geodetic(g)
            checked += 1
    assert checked == 143


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_geodetic_sets_match_is_geodetic_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    tree = [(data.draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    _assert_sets_match_is_geodetic(from_edge_list(n, sorted(set(tree) | set(extra))))


def _assert_first_set_is_geodetic_number(g):
    """The first set of ``geodetic_sets``, by cardinality then lexicographic
    order, is ``geodetic_number``'s value and witness, and its rank with the
    extreme vertices forced is ``explored``; ``least_size`` reads the value."""
    geo = geodetic_sets(g)
    first = first_set(geo, g.n)
    r = geodetic_number(g)
    assert (first.bit_count(), vertex_tuple(first)) == (r.value, r.witness), encode_graph6(g)
    assert candidate_rank(first, g.full_mask, extreme_vertices(g)) == r.explored
    assert least_size(geo, g.n) == r.value


def _assert_first_k_set_is_k_geodetic_number(g, k):
    """The same for the k-family of ``geodetic_families`` and
    ``k_geodetic_number``: the first set is its value and witness, and 0 is
    its ``value is None``."""
    geo = geodetic_families(g, k)[1]
    r = k_geodetic_number(g, k)
    assert least_size(geo, g.n) == r.value, (encode_graph6(g), k)
    if geo:
        first = first_set(geo, g.n)
        assert (first.bit_count(), vertex_tuple(first)) == (r.value, r.witness), (encode_graph6(g), k)
    else:
        assert r.unsatisfiable, (encode_graph6(g), k)


def test_first_geodetic_set_is_geodetic_number_on_census(census):
    checked = 0
    for order in range(1, 8):
        for g in census(order):
            _assert_first_set_is_geodetic_number(g)
            for k in (2, 3):
                _assert_first_k_set_is_k_geodetic_number(g, k)
            checked += 1
    assert checked == 996


def test_first_geodetic_set_is_geodetic_number_on_corona_products(census):
    checked = 0
    for g in (g for order in range(1, 5) for g in census(order)):
        for h in (h for order in range(1, 6) for h in census(order)):
            if g.n * (h.n + 1) <= 20:
                product, _ = corona(g, h)
                _assert_first_set_is_geodetic_number(product)
                checked += 1
    assert checked == 184


def test_corona_products_by_their_families(census):
    """Every product G ⊙ H of a census G of order <= 4 and a census H of
    order <= 7, up to order 16: ``geodetic_number`` is the least size and the
    first set of ``geodetic_sets``, and the paper's formulas hold on the
    families alone, with no minimum-set search: s(G ⊙ H) = n1·n2 for
    n1 >= 2, and g(G ⊙ H) = n1·g(K1 ⊙ H) for H not complete, so g <= s."""
    hub_g = {}  # g(K1 ⊙ H) by H, read when G is K1, the first census graph
    checked = 0
    for g in (g for order in range(1, 5) for g in census(order)):
        for h in (h for order in range(1, 8) for h in census(order)):
            if g.n * (h.n + 1) > 16:
                continue
            product, _ = corona(g, h)
            geo = geodetic_sets(product)
            value, r = least_size(geo, product.n), geodetic_number(product)
            label = (encode_graph6(g), encode_graph6(h))
            assert (value, vertex_tuple(first_set(geo, product.n))) == (r.value, r.witness), label
            if g.n == 1:
                hub_g[h] = value
            elif not is_complete(h):
                assert value == g.n * hub_g[h], label
            if g.n >= 2:
                s = least_size(steiner_sets(product), product.n)
                assert s == g.n * h.n and value <= s, label
            checked += 1
    assert checked == 2036


def test_geodetic_sets_errors():
    with pytest.raises(DomainError):
        geodetic_sets(empty(3))
    with pytest.raises(CapExceeded):
        geodetic_sets(wheel(6), cap=6)
    with pytest.raises(CapExceeded):
        geodetic_sets(path(21))
    assert geodetic_sets(complete(1)) == 1 << 0b1
    assert geodetic_sets(path(3)) == 1 << 0b101 | 1 << 0b111  # {0, 2} and {0, 1, 2}


def test_k_geodetic_sets_errors_and_empty_results():
    """The k-geodetic sets are the second family of ``geodetic_families``;
    ``geodetic_sets`` takes no k."""
    with pytest.raises(DomainError, match="k-geodetic sets need k >= 2, got 1"):
        geodetic_families(path(3), 1)
    with pytest.raises(DomainError):
        geodetic_families(empty(3), 2)
    with pytest.raises(CapExceeded, match="geodetic search capped at n <= 6, got 7"):
        geodetic_families(wheel(6), 2, cap=6)
    assert geodetic_families(complete(5), 2)[1] == 0  # no pair at distance 2
    assert geodetic_families(path(4), 4)[1] == 0  # the diameter is 3
    assert least_size(geodetic_families(complete(5), 2)[1], 5) is None
    # in P4 the pairs at distance 2 are (0, 2) and (1, 3), so the sets
    # holding both ends, 0 and 3, with 1 or 2 beside them are 2-geodetic
    assert geodetic_families(path(4), 2)[1] == 1 << 0b1011 | 1 << 0b1101 | 1 << 0b1111
    with pytest.raises(TypeError):
        geodetic_sets(path(4), 2)


def test_geodetic_families_edge_cases():
    """No pair at distance k leaves the k-family 0 beside the full family,
    and the errors are those of ``geodetic_sets``, with k checked too."""
    assert geodetic_families(complete(5), 2) == (geodetic_sets(complete(5)), 0)
    assert geodetic_families(path(4), 4) == (geodetic_sets(path(4)), 0)
    assert geodetic_families(path(4), 2) == (1 << 0b1001 | 1 << 0b1011 | 1 << 0b1101 | 1 << 0b1111,
                                             1 << 0b1011 | 1 << 0b1101 | 1 << 0b1111)
    with pytest.raises(DomainError, match="search requires a connected graph"):
        geodetic_families(empty(3), 2)
    with pytest.raises(DomainError, match="k-geodetic sets need k >= 2, got 1"):
        geodetic_families(path(3), 1)
    with pytest.raises(CapExceeded, match="geodetic search capped at n <= 6, got 7"):
        geodetic_families(wheel(6), 2, cap=6)


def test_search_errors_come_connected_then_k_then_cap():
    """On a disconnected graph above the cap with a bad k, the graph is
    refused as disconnected; a connected one above the cap is refused for
    its k, and only a good k meets the cap.  ``is_geodetic`` tests
    connectivity, then the empty set, then a set outside the graph."""
    apart, above = empty(21), path(21)  # the default cap is 20
    for search in (geodetic_families, k_geodetic_number):
        with pytest.raises(DomainError, match="^search requires a connected graph$"):
            search(apart, 1)
        with pytest.raises(DomainError, match="^k-geodetic sets need k >= 2, got 1$"):
            search(above, 1)
        with pytest.raises(CapExceeded, match="search capped at n <= 20, got 21$"):
            search(above, 2)
    with pytest.raises(DomainError, match="^search requires a connected graph$"):
        geodetic_families(apart, None)
    with pytest.raises(DomainError, match="^geodetic sets are defined for connected graphs$"):
        is_geodetic(apart, 0)
    with pytest.raises(DomainError, match="^geodetic sets are defined for connected graphs$"):
        is_geodetic(apart, 1 << 40)
    with pytest.raises(DomainError, match="^geodetic sets are nonempty$"):
        is_geodetic(above, 0)
    with pytest.raises(DomainError, match="^vertex set is not within the graph$"):
        is_geodetic(above, 1 << 21 | 1)


# --- families of vertex sets as 2^n-bit ints --------------------------------------


def test_size_layers_hold_each_set_at_its_popcount():
    for n in range(11):
        layers = subsets._size_layers(n)
        assert len(layers) == n + 1
        assert sum(layers) == (1 << (1 << n)) - 1  # disjoint, and every set is in one
        for j, layer in enumerate(layers):
            assert [w for w in range(1 << n) if layer >> w & 1] == \
                [w for w in range(1 << n) if w.bit_count() == j], (n, j)


def test_least_size_reads_the_smallest_set():
    assert least_size(0, 4) is None
    assert least_size(1 << 0b1110 | 1 << 0b1000, 4) == 1
    assert least_size(1 << 0b1111, 4) == 4
    assert least_size(1 << 0b0101 | 1 << 0b0111, 4) == 2


def _first_set_brute(sets, n):
    members = [w for w in range(1 << n) if sets >> w & 1]
    return min(members, key=lambda w: (w.bit_count(), vertex_tuple(w)), default=None)


def test_first_set_matches_brute_minimum():
    rng = random.Random(20)
    for n in range(1, 9):
        everything = (1 << (1 << n)) - 1
        families = [0, everything, everything & ~1]
        families += [1 << w for w in range(1 << n)]  # every single set, the empty one too
        for density in (0.02, 0.2, 0.6):
            families += [sum(1 << w for w in range(1 << n) if rng.random() < density) for _ in range(20)]
        for sets in families:
            assert first_set(sets, n) == _first_set_brute(sets, n), (n, sets)
    assert first_set(0, 4) is None
    assert first_set(1 << 0b1010 | 1 << 0b0110 | 1 << 0b0011, 4) == 0b0011


def test_searches_leave_no_reference_cycles(census):
    """Each call's tables are freed by reference counting when it returns,
    not left for the cyclic collector."""
    calls = (geodetic_number, lambda g: k_geodetic_number(g, 2), steiner_number,
             geodetic_sets, check_diam2_steiner_geodetic)
    sample = census(7)[:40]
    for call in calls:  # fill the per-order caches first
        call(sample[0])
    gc.collect()
    gc.disable()
    try:
        for g in sample:
            for call in calls:
                call(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
