import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronageo.errors import CapExceeded, DomainError
from coronageo.formats import encode_graph6
from coronageo.graphs import (
    bfs_distances,
    complete,
    corona,
    cycle,
    empty,
    from_edge_list,
    is_complete,
    mask_of,
    path,
    star,
    vertex_tuple,
    wheel,
)
from coronageo.steiner import (
    _levels,
    steiner_distance,
    steiner_hull,
    steiner_number,
    steiner_sets,
)
from coronageo import graphs, subsets
from coronageo.subsets import ascending_subsets, candidate_rank, first_set

from oracles import (
    is_steiner_set_by_dp,
    oracle_steiner_trees,
    steiner_distance_brute,
    steiner_distance_by_dp,
    steiner_distance_table_by_marking,
    steiner_hull_brute,
    steiner_number_brute,
    steiner_number_by_dp,
    steiner_sets_by_table,
)


# --- Steiner distance ---------------------------------------------------------


def test_two_terminal_degeneration_is_the_distance(census):
    for order in (2, 3, 4, 5):
        for g in census(order):
            D = bfs_distances(g)[0]
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert steiner_distance(g, mask_of([u, v])) == D[u][v]


def test_star_leaves_need_the_center():
    assert steiner_distance(star(3), mask_of([1, 2, 3])) == 3


def test_c6_alternating_terminals():
    # brute-force over connected supersets confirms 4
    g = cycle(6)
    W = mask_of([0, 2, 4])
    assert steiner_distance(g, W) == 4
    assert steiner_distance_brute(g, [0, 2, 4]) == 4


def test_singleton_terminal_set():
    assert steiner_distance(cycle(5), 0b1) == 0
    assert steiner_hull(cycle(5), 0b1) == 0b1


def test_steiner_distance_errors():
    with pytest.raises(DomainError):
        steiner_distance(path(3), 0)
    with pytest.raises(DomainError):
        steiner_distance(empty(2), 0b11)
    with pytest.raises(DomainError):
        steiner_distance(path(3), 0b1000)
    with pytest.raises(CapExceeded):
        steiner_distance(complete(6), complete(6).full_mask, cap=4)
    # empty set, set outside the graph, disconnected graph, then the order cap
    for members, message in ((0, "terminal set is empty"),
                             (1 << 20, "terminal set is not within the graph"),
                             (0b11, "Steiner distance is defined for connected graphs")):
        for query in (steiner_distance, steiner_hull):
            with pytest.raises(DomainError, match=message):
                query(empty(20), members, cap=4)
    with pytest.raises(CapExceeded, match="Steiner search capped at n <= 16, got 17"):
        steiner_hull(path(17), 0b101)


def test_disconnected_graph_with_built_tables_is_refused(monkeypatch):
    """With the tables built, the connectivity test reads row 0 of the
    distance table instead of a reachability pass, and still refuses a
    disconnected graph, whichever component vertex 0 is in."""
    monkeypatch.setattr(graphs, "reachable_set", None)  # any call fails
    for g in (empty(3), from_edge_list(4, [(1, 2), (2, 3)]),
              from_edge_list(5, [(0, 1), (1, 2), (3, 4)])):
        assert g.distances
        with pytest.raises(DomainError, match="Steiner sets are defined for connected graphs"):
            steiner_sets(g)
        with pytest.raises(DomainError, match="Steiner number is defined for connected graphs"):
            steiner_number(g)


def test_steiner_distance_matches_brute_oracle(census):
    for order in (2, 3, 4, 5):
        for g in census(order):
            for size in (2, 3):
                for combo in itertools.combinations(range(g.n), size):
                    assert steiner_distance(g, mask_of(combo)) == steiner_distance_brute(g, combo)


def test_distance_hits_floor_iff_terminals_induce_connected(census):
    from coronageo.graphs import induced_subgraph, is_connected

    for g in census(5):
        for size in (2, 3):
            for combo in itertools.combinations(range(g.n), size):
                W = mask_of(combo)
                floor_hit = steiner_distance(g, W) == size - 1
                assert floor_hit == is_connected(induced_subgraph(g, W))


def test_steiner_distance_bounds_and_monotonicity(census):
    for g in census(5):
        full = g.full_mask
        for size in (2, 3):
            for combo in itertools.combinations(range(g.n), size):
                W = mask_of(combo)
                d = steiner_distance(g, W)
                assert size - 1 <= d <= g.n - 1
                for v in range(g.n):
                    assert steiner_distance(g, W | 1 << v) >= d
        assert steiner_distance(g, full) == g.n - 1


def test_terminal_dp_oracle_matches_brute_oracle(census):
    for order in (1, 2, 3, 4, 5):
        for g in census(order):
            for members in range(1, 1 << g.n):
                combo = vertex_tuple(members)
                assert steiner_distance_by_dp(g, members) == steiner_distance_brute(g, combo)


def test_steiner_distance_matches_brute_on_random_graphs_large_terminal_sets():
    import random

    from coronageo.graphs import from_edge_list, is_connected

    rng = random.Random(2024)
    produced = 0
    while produced < 12:
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.35]
        g = from_edge_list(8, edges)
        if not is_connected(g):
            continue
        produced += 1
        for _ in range(4):
            size = rng.randint(4, 6)
            combo = tuple(sorted(rng.sample(range(8), size)))
            assert steiner_distance(g, mask_of(combo)) == steiner_distance_brute(g, combo)


# --- hulls ----------------------------------------------------------------------


def test_pair_hulls_equal_intervals_small_census(census):
    for order in (2, 3, 4, 5):
        for g in census(order):
            I = bfs_distances(g)[1]
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert steiner_hull(g, mask_of([u, v])) == I[u][v]


def test_hull_of_everything_is_everything():
    g = cycle(5)
    assert steiner_hull(g, g.full_mask) == g.full_mask


def test_hull_c6_antipodal():
    # both antipodal paths are minimum trees; tree enumeration confirms
    g = cycle(6)
    W = mask_of([0, 3])
    assert steiner_hull(g, W) == g.full_mask
    union = 0
    for support in oracle_steiner_trees(g, W):
        union |= support
    assert union == g.full_mask


def test_hull_matches_brute_oracle(census):
    for order in (2, 3, 4, 5):
        for g in census(order):
            for size in (2, 3):
                for combo in itertools.combinations(range(g.n), size):
                    ours = vertex_tuple(steiner_hull(g, mask_of(combo)))
                    assert ours == tuple(sorted(steiner_hull_brute(g, combo)))


# --- Steiner sets and the Steiner number -------------------------------------------


def test_full_vertex_set_is_steiner():
    assert steiner_hull(cycle(5), cycle(5).full_mask) == cycle(5).full_mask


def test_complete_graphs_have_no_proper_steiner_sets():
    g = complete(5)
    for size in range(1, 5):
        for combo in itertools.combinations(range(5), size):
            assert steiner_hull(g, mask_of(combo)) != g.full_mask


@pytest.mark.parametrize("g,h", [(path(2), complete(2)), (path(2), path(2)), (cycle(3), path(2))])
def test_copies_union_is_steiner_in_corona(g, h):
    prod, layout = corona(g, h)
    assert steiner_hull(prod, layout.copies_mask) == prod.full_mask


@pytest.mark.parametrize("n", range(1, 7))
def test_steiner_number_complete(n):
    r = steiner_number(complete(n))
    assert r.value == n
    assert r.witness == tuple(range(n))


def test_steiner_number_wheel6():
    assert steiner_number(corona(complete(1), cycle(6))[0]).value == 4


def test_steiner_number_p2_corona_p2():
    prod, _ = corona(path(2), path(2))
    r = steiner_number(prod)
    assert (r.value, r.witness) == (4, (2, 3, 4, 5))


def test_steiner_number_errors():
    with pytest.raises(DomainError):
        steiner_number(empty(2))
    with pytest.raises(CapExceeded):
        steiner_number(corona(complete(1), cycle(16))[0])


def _table_bytes(g):
    """d(W) for every vertex set W, one byte each: the number of levels
    D_0, ..., D_{n-2} that miss W."""
    rows = [format(level, f"0{1 << g.n}b")[::-1] for level in _levels(g)]
    return bytes(sum(row[w] == "0" for row in rows) for w in range(1 << g.n))


def test_subset_table_is_steiner_distance(census):
    # sd[X | 1 << v] is d(X + v), the quantity the Steiner hull compares
    for order in (1, 2, 3, 4, 5):
        for g in census(order):
            sd = _table_bytes(g)
            assert len(sd) == 1 << g.n and sd[0] == 0
            for members in range(1, 1 << g.n):
                assert sd[members] == steiner_distance_by_dp(g, members)


def test_subset_table_is_steiner_distance_on_random_graphs():
    # n = 9..11, past the census orders
    rng = random.Random(11)
    for n in (9, 9, 10, 10, 11, 11):
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.15}
        g = from_edge_list(n, sorted(edges))
        sd = _table_bytes(g)
        small = [mask_of(c) for size in (1, 2, 3) for c in itertools.combinations(range(n), size)]
        large = [mask_of(rng.sample(range(n), rng.randint(4, 6))) for _ in range(30)]
        for members in small + large:
            assert sd[members] == steiner_distance_by_dp(g, members), (encode_graph6(g), vertex_tuple(members))


def _connected_graphs(data, max_n):
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    tree = [(data.draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edge_list(n, sorted(set(tree) | set(extra)))


def _assert_levels_match_byte_table(g):
    assert _table_bytes(g) == steiner_distance_table_by_marking(g), encode_graph6(g)
    assert steiner_sets(g) == steiner_sets_by_table(g), encode_graph6(g)


def test_levels_match_byte_table(census):
    checked = 0
    for order in range(1, 8):
        for g in census(order):
            _assert_levels_match_byte_table(g)
            checked += 1
    assert checked == 996


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_levels_match_byte_table_hypothesis(data):
    _assert_levels_match_byte_table(_connected_graphs(data, 12))


def test_levels_match_byte_table_order_16():
    prod, _ = corona(path(2), cycle(7))
    assert prod.n == 16
    _assert_levels_match_byte_table(prod)


def _warm_patterns(n):
    subsets.set_patterns(n)
    subsets._size_layers(n)


def test_steiner_sets_memory_at_order_20():
    # the cached set patterns and size layers hold 2n + 1 ints of 2^n bits
    # (5.1 MiB here); on top of them the family build keeps one more list of
    # n such ints, the sets where v has a neighbour, and a few temporaries
    g = wheel(19)
    _warm_patterns(g.n)
    tracemalloc.start()
    try:
        steiner_sets(g, cap=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"{peak / (1 << 20):.1f} MiB"


def test_steiner_queries_stop_at_order_24_whatever_the_cap():
    """No cap reaches above ``FAMILY_MAX_ORDER``: at order 25 the table
    alone would be 32 MiB and ``steiner_sets`` would peak above 2 GiB, so
    every query is refused before it allocates one."""
    g = wheel(24)  # order 25
    queries = [lambda: steiner_sets(g, cap=62), lambda: steiner_number(g, cap=62),
               lambda: steiner_hull(g, 0b11, cap=62), lambda: steiner_distance(g, 0b11, cap=62)]
    tracemalloc.start()
    try:
        for query in queries:
            with pytest.raises(CapExceeded, match="^Steiner search capped at n <= 24, got 25$"):
                query()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak / (1 << 20):.1f} MiB"


def test_pattern_caches_keep_the_two_latest_orders():
    """A run over many orders holds the per-order masks of two of them,
    not of every order it has seen."""
    caches = (subsets.set_patterns, subsets._size_layers)
    for n in range(14, 21):
        assert steiner_number(wheel(n - 1), cap=20).value == n - 3
        for cache in caches:
            assert cache.cache_info().currsize <= 2, cache
    for cache in caches:  # the latest order is still kept
        hits = cache.cache_info().hits
        cache(20)
        assert cache.cache_info().hits == hits + 1, cache


def test_steiner_number_memory_at_order_20():
    # on top of the cached set patterns and size layers, the search holds
    # the family build, the 2^n-bit family of Steiner sets and the pick's
    # few temporaries
    g = wheel(19)
    _warm_patterns(g.n)
    tracemalloc.start()
    try:
        steiner_number(g, cap=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"{peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize("n", range(1, 7))
def test_pick_ranks_every_set_as_ascending_subsets_does(n):
    """With every set from the k-th of the canonical order on in the family,
    the pick is the k-th set and its ``candidate_rank`` is k."""
    full = (1 << n) - 1
    order = [m for m in ascending_subsets(full) if m]
    for k, members in enumerate(order, 1):
        sets = sum(1 << later for later in order[k - 1:])
        first = first_set(sets, n)
        assert (first, candidate_rank(first, full)) == (members, k)


def _assert_steiner_sets_match_dp(g):
    sets = steiner_sets(g)
    assert sets >> (1 << g.n) == 0 and sets & 1 == 0  # 2^n bits, the empty set not among them
    for members in range(1, 1 << g.n):
        assert sets >> members & 1 == is_steiner_set_by_dp(g, members), (encode_graph6(g), vertex_tuple(members))


def test_steiner_sets_match_single_set_dp(census):
    checked = 0
    for order in range(1, 7):
        for g in census(order):
            _assert_steiner_sets_match_dp(g)
            checked += 1
    assert checked == 143


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_steiner_sets_match_single_set_dp_hypothesis(data):
    _assert_steiner_sets_match_dp(_connected_graphs(data, 9))


def test_steiner_sets_errors():
    with pytest.raises(DomainError):
        steiner_sets(empty(2))
    with pytest.raises(CapExceeded):
        steiner_sets(path(5), cap=4)
    with pytest.raises(CapExceeded):
        steiner_sets(corona(complete(1), cycle(16))[0])


def test_steiner_number_matches_per_candidate_dp_search(census):
    checked = 0
    for order in range(1, 7):
        for g in census(order):
            r = steiner_number(g)
            assert (r.value, r.witness, r.explored) == steiner_number_by_dp(g), encode_graph6(g)
            checked += 1
    assert checked == 143


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_steiner_number_matches_brute_oracle_hypothesis(data):
    g = _connected_graphs(data, 8)
    r = steiner_number(g)
    assert (r.value, r.witness) == steiner_number_brute(g)


def test_steiner_k1_corona_lower_bound(census):
    for order in range(1, 7):
        for g in census(order):
            s_g = steiner_number(g).value
            s_k1 = steiner_number(corona(complete(1), g)[0]).value
            assert s_k1 >= s_g


def test_steiner_number_is_n_iff_complete(census):
    for order in range(1, 7):
        for g in census(order):
            assert (steiner_number(g).value == g.n) == is_complete(g)


# --- tree-support oracle -------------------------------------------------------------


def test_oracle_unique_geodesic():
    assert oracle_steiner_trees(path(3), mask_of([0, 2])) == (0b111,)


def test_oracle_c4_two_supports():
    supports = oracle_steiner_trees(cycle(4), mask_of([0, 2]))
    assert set(supports) == {mask_of([0, 1, 2]), mask_of([0, 2, 3])}


def test_oracle_cap():
    big, _ = corona(complete(1), cycle(10))
    with pytest.raises(CapExceeded):
        oracle_steiner_trees(big, 0b11)


def test_hull_equals_union_of_oracle_supports_small(census):
    for order in (2, 3, 4, 5):
        for g in census(order):
            for size in (2, 3):
                for combo in itertools.combinations(range(g.n), size):
                    W = mask_of(combo)
                    union = 0
                    for support in oracle_steiner_trees(g, W):
                        union |= support
                    assert union == steiner_hull(g, W)


def test_minimum_steiner_witness_is_canonical():
    # first candidate in size-then-lex order: C4 yields {0, 2}
    r = steiner_number(cycle(4))
    assert (r.value, r.witness) == (2, (0, 2))
