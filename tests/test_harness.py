import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest

from coronageo import cli, graphs, harness
from coronageo.corpus import CorpusSpec, random_connected_graph
from coronageo.errors import DomainError
from coronageo.formats import encode_graph6, parse_graph6
from coronageo.geodesic import geodetic_sets
from coronageo.graphs import (
    complete,
    corona,
    cycle,
    diameter,
    empty,
    from_edge_list,
    mask_of,
    path,
    vertex_tuple,
)
from coronageo.harness import (
    THEOREMS,
    THEOREM_IDS,
    build_items,
    check_corona_g_le_s,
    check_corona_structure_geo,
    check_corona_structure_steiner,
    check_diam2_g_le_s,
    check_diam2_geo_eq,
    check_diam2_steiner_geodetic,
    check_extreme_in_geodetic,
    check_fan_geo,
    check_fan_steiner,
    check_g2_corona_equiv,
    check_g2_equivalence,
    check_geo_bounds,
    check_geo_corona_eq,
    check_geo_k1_lb,
    check_geo_kn,
    check_geo_lower_minus1,
    check_pendant_corollary,
    check_steiner_corona_eq,
    check_steiner_k1_iff_diam2,
    check_steiner_k1_lb,
    check_steiner_kn,
    check_wheel_geo,
    check_wheel_steiner,
    check_corona_cycle_path,
    run_corpus,
    summarize,
    summary_json,
)
from coronageo.steiner import steiner_sets
from coronageo.subsets import DEFAULT_CAP

from oracles import (
    closure_vertices,
    diam2_tier_a_by_dp,
    geodetic_number_brute,
    in_every_steiner_tree_by_dp,
    steiner_hull_brute,
    steiner_number_brute,
    to_nx,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


# --- geodetic checkers -------------------------------------------------------


def test_geo_corona_eq_examples():
    r = check_geo_corona_eq(path(2), path(3))
    assert r.verdict == "PASS"
    assert r.computed == {"g_product": 4, "g_k1_h": 2, "expected": 4}

    r = check_geo_corona_eq(complete(1), complete(2))
    assert r.verdict == "SKIPPED" and r.reason == "h-complete"

    r = check_geo_corona_eq(cycle(3), empty(2))
    assert r.verdict == "PASS"
    assert r.computed["g_product"] == 6


def test_geo_corona_eq_disconnected_g_is_skipped():
    r = check_geo_corona_eq(empty(2), path(3))
    assert r.verdict == "SKIPPED" and r.reason == "g-not-connected"


def test_geo_bounds_examples():
    r = check_geo_bounds(path(2), complete(3))
    assert r.verdict == "PASS"
    assert r.computed["g_product"] == 6 and r.computed["upper"] == 6

    r = check_geo_bounds(path(2), path(3))
    assert r.verdict == "PASS"
    assert r.computed["g_product"] <= 4  # sharpened bound n1(n2-1)
    assert r.computed["sharp_checked"] == 1

    r = check_geo_bounds(complete(2), cycle(4))
    assert r.verdict == "PASS"
    assert r.computed["lower"] == 4 and r.computed["upper"] == 8
    assert r.computed["g_product"] == 4

    r = check_geo_bounds(complete(1), complete(3))
    assert r.verdict == "SKIPPED" and r.reason == "h-complete"


def test_geo_bounds_handles_disconnected_h():
    r = check_geo_bounds(complete(2), empty(2))
    assert r.verdict == "PASS"
    assert r.computed["g_h"] == 2
    assert r.computed["g_product"] == 4  # equality case: all components complete

    # mixed components: K2 + K1, still a disjoint union of completes
    h = from_edge_list(3, [(0, 1)])
    r = check_geo_bounds(path(2), h)
    assert r.verdict == "PASS"
    assert r.computed["g_h"] == 3
    assert r.computed["g_product"] == 6 and r.computed["upper"] == 6

    # one non-complete component: the sharpened bound applies
    h = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    r = check_geo_bounds(path(2), h)
    assert r.verdict == "PASS"
    assert r.computed["sharp_checked"] == 0  # K2 component is complete
    assert r.computed["g_product"] < r.computed["upper"]


def test_corona_structure_geo():
    r = check_corona_structure_geo(path(2), path(3))
    assert r.verdict == "PASS"
    assert r.computed["part_i"] == r.computed["part_ii"] == 1
    assert r.computed["part_iii"] == r.computed["part_iv"] == 1

    r = check_corona_structure_geo(complete(1), complete(2))
    assert r.verdict == "PASS"
    assert r.reason == "skipped-parts:part_iii,part_iv"

    r = check_corona_structure_geo(cycle(3), cycle(4))
    assert r.verdict == "PASS"
    assert r.computed["part_iv"] == 1


def test_corona_structure_geo_part_i_fails_with_an_edge_between_copies(monkeypatch):
    """Edge 2-5 joins the two copies of P3 in P2 ⊙ P3, so copy vertex 2 lies
    on the geodesic 0-2-5 between two vertices outside its copy."""

    def bridged(G, H):
        prod, layout = corona(G, H)
        if G.n == 2:
            prod = from_edge_list(prod.n, [*prod.edges(), (2, 5)])
        return prod, layout

    monkeypatch.setattr(harness, "corona", bridged)
    r = check_corona_structure_geo(path(2), path(3))
    assert r.computed["part_i"] == 0
    assert r.verdict == "FAIL"


def test_corona_structure_geo_reports_a_witness_missing_a_copy(monkeypatch):
    """A witness with an empty slice in copy 1 fails parts (ii) and (iv)
    rather than raising on the empty slice."""
    search = harness.geodetic_number

    def skewed(G, *, cap):
        r = search(G, cap=cap)
        return r if G.n != 8 else r._replace(witness=(2, 4), value=2)

    monkeypatch.setattr(harness, "geodetic_number", skewed)
    r = check_corona_structure_geo(path(2), path(3))
    assert r.computed["part_ii"] == r.computed["part_iv"] == 0
    assert r.verdict == "FAIL"


def test_g2_equivalence_both_branches():
    r = check_g2_equivalence(cycle(4))
    assert r.verdict == "PASS"
    assert r.computed["left"] == 1 and r.computed["right"] == 1

    r = check_g2_equivalence(path(4))
    assert r.verdict == "PASS"
    assert r.computed["left"] == 0 and r.computed["right"] == 0

    assert check_g2_equivalence(complete(3)).verdict == "SKIPPED"
    assert check_g2_equivalence(empty(2)).verdict == "SKIPPED"


def test_g2_corona_equiv():
    r = check_g2_corona_equiv(path(2), cycle(4))
    assert r.verdict == "PASS" and r.computed["left"] == 1

    r = check_g2_corona_equiv(path(2), path(4))
    assert r.verdict == "PASS" and r.computed["left"] == 0 and r.computed["right"] == 0


def test_diam2_geo_eq():
    r = check_diam2_geo_eq(path(3), cycle(4))
    assert r.verdict == "PASS"
    r = check_diam2_geo_eq(path(3), path(4))
    assert r.verdict == "SKIPPED" and r.reason == "diameter-ne-2"


def test_pendant_corollary_examples():
    r = check_pendant_corollary(path(2), path(2), 2)
    assert r.verdict == "PASS"
    assert r.computed["g_product"] == 8
    assert r.computed["g_hnk"] == r.computed["g2_hnk"] == 4

    r = check_pendant_corollary(complete(1), path(2), 2)
    assert r.verdict == "PASS" and r.computed["n1_is_1"] == 1

    assert check_pendant_corollary(path(2), path(2), 1).verdict == "SKIPPED"


def test_geo_lower_minus1():
    r = check_geo_lower_minus1(path(2), path(4))
    assert r.verdict == "PASS"
    assert r.computed["g_product"] == 6 and r.computed["bound"] == 2

    r = check_geo_lower_minus1(path(2), cycle(4))
    assert r.verdict == "SKIPPED" and r.reason == "g-equals-g2"

    r = check_geo_lower_minus1(complete(2), path(5))
    assert r.verdict == "PASS"
    assert r.computed["g2_h"] == 3  # brute-force confirmed in the geodesic tests


def test_geo_k1_lb_accepts_disconnected_h():
    r = check_geo_k1_lb(empty(2))
    assert r.verdict == "PASS"
    assert r.computed == {"g_h": 2, "g_k1_h": 2}


def test_extreme_in_geodetic():
    assert check_extreme_in_geodetic(complete(4)).verdict == "PASS"
    assert check_extreme_in_geodetic(empty(2)).verdict == "SKIPPED"


def test_geo_kn_census(census):
    for order in (1, 2, 3, 4):
        for g in census(order):
            assert check_geo_kn(g).verdict == "PASS"


def test_wheel_fan_geo_ranges():
    assert check_wheel_geo(7).computed == {"g": 4, "expected": 4}
    assert check_wheel_geo(3).verdict == "SKIPPED"
    assert check_fan_geo(3).computed == {"g": 2, "expected": 2}
    assert check_fan_geo(2).verdict == "SKIPPED"


def test_corona_cycle_path():
    r = check_corona_cycle_path(path(2), 4)
    assert r.verdict == "PASS"
    assert r.computed["g_corona_cycle"] == 4 and r.computed["g_corona_path"] == 6

    r = check_corona_cycle_path(path(2), 3)
    assert r.verdict == "PASS"
    assert r.computed["cycle_checked"] == 0

    assert check_corona_cycle_path(path(2), 2).verdict == "SKIPPED"


# --- Steiner checkers ---------------------------------------------------------


def test_steiner_corona_eq_examples():
    r = check_steiner_corona_eq(path(2), complete(2))
    assert r.verdict == "PASS" and r.computed["s_product"] == 4

    r = check_steiner_corona_eq(path(3), path(2))
    assert r.verdict == "PASS" and r.computed["s_product"] == 6

    assert check_steiner_corona_eq(complete(1), path(3)).verdict == "SKIPPED"


def test_steiner_corona_eq_disconnected_h():
    r = check_steiner_corona_eq(path(2), empty(3))
    assert r.verdict == "PASS" and r.computed["s_product"] == 6


def test_corona_structure_steiner():
    r = check_corona_structure_steiner(path(2), path(3))
    assert r.verdict == "PASS"
    assert r.computed["part_i"] == r.computed["part_ii"] == r.computed["part_iii"] == 1

    r = check_corona_structure_steiner(complete(1), complete(2))
    assert r.verdict == "PASS"
    assert r.reason == "skipped-parts:part_i,part_iii"

    r = check_corona_structure_steiner(complete(1), path(3))
    assert r.verdict == "PASS"
    assert r.computed["part_iii"] == 1 and "part_i" not in r.computed


def test_separates_is_a_cut_test():
    assert harness._separates(path(3), 0b101, 1)
    assert not harness._separates(cycle(5), 0b101, 1)
    # 0-1-2 plus the detour 0-3-4-2: vertex 1 is on the one minimum tree of
    # {0, 2}, but deleting it leaves the terminals connected
    detour = from_edge_list(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
    assert in_every_steiner_tree_by_dp(detour, 0b101, 1)
    assert not harness._separates(detour, 0b101, 1)


def test_separates_matches_the_dp_on_part_i_candidates(census, monkeypatch):
    """Every (terminal set, base vertex) the checker tests on census G of
    order 2..3 x H of order 1..3, and on P2 x H of order 4."""
    cases = []
    separates = harness._separates

    def spy(prod, A, v):
        cases.append((prod, A, v))
        return separates(prod, A, v)

    monkeypatch.setattr(harness, "_separates", spy)
    pairs = [(g, h) for order in (2, 3) for g in census(order)
             for h_order in (1, 2, 3) for h in census(h_order)]
    pairs += [(path(2), h) for h in census(4)]
    for g, h in pairs:
        assert check_corona_structure_steiner(g, h).verdict == "PASS"
    assert len({prod for prod, _, _ in cases}) == 18 and len(cases) == 44
    for prod, A, v in cases:
        assert separates(prod, A, v) == in_every_steiner_tree_by_dp(prod, A, v), (prod, A, v)


def test_steiner_kn_census(census):
    for order in (1, 2, 3, 4):
        for g in census(order):
            assert check_steiner_kn(g).verdict == "PASS"


def test_steiner_k1_lb():
    assert check_steiner_k1_lb(complete(3)).verdict == "PASS"
    assert check_steiner_k1_lb(path(4)).verdict == "PASS"
    assert check_steiner_k1_lb(empty(2)).verdict == "SKIPPED"


def test_wheel_fan_steiner_ranges():
    assert check_wheel_steiner(6).computed == {"s": 4, "expected": 4}
    assert check_wheel_steiner(3).verdict == "SKIPPED"
    r = check_fan_steiner(5)
    assert r.verdict == "PASS"
    assert r.computed["s_fan"] == 4 and r.computed["g_fan"] == 3
    assert r.computed["s_matches"] == 1 and r.computed["g_matches"] == 0


def test_steiner_k1_iff_diam2_examples():
    r = check_steiner_k1_iff_diam2(cycle(4))
    assert r.verdict == "PASS" and r.computed["s_k1_h"] == 2

    r = check_steiner_k1_iff_diam2(path(4))
    assert r.verdict == "PASS" and r.computed["s_k1_h"] == 3 and r.computed["s_h"] == 2

    r = check_steiner_k1_iff_diam2(cycle(5))
    assert r.verdict == "PASS" and r.computed["s_k1_h"] == 3


def test_steiner_k1_iff_diam2_counterexamples():
    """Two order-6, diameter-2 graphs break the claimed biconditional.

    For H = "EyUG" the unique minimum Steiner set of H is {2,3,5} (size 3,
    Steiner distance 4, three 5-vertex tree supports covering V).  Attaching
    a dominating hub drops the set's Steiner distance to 3, so the hub star
    becomes the only minimum tree and the hull stalls at 4 vertices; no 3-set
    works in K1 ⊙ H and s rises to 4.  The checker must report this honestly
    as FAIL, with the instance re-ingestible from the report.
    """
    from itertools import combinations

    from coronageo.formats import parse_graph6
    from coronageo.steiner import steiner_number
    from oracles import oracle_steiner_trees

    for code in ("EyUG", "EyuG"):
        h = parse_graph6(code)
        r = check_steiner_k1_iff_diam2(h)
        assert r.verdict == "FAIL"
        assert r.computed["diameter"] == 2
        assert r.computed["s_h"] == 3 and r.computed["s_k1_h"] == 4
        assert r.instance["g6"] == [code]
        assert parse_graph6(r.instance["g6"][0]) == h

    # independent confirmation for EyUG via exhaustive tree enumeration
    h = parse_graph6("EyUG")
    assert steiner_number(h).value == 3
    k1h, _ = corona(complete(1), h)
    covered_by_some_3set = False
    for combo in combinations(range(7), 3):
        union = 0
        for support in oracle_steiner_trees(k1h, mask_of(combo)):
            union |= support
        if union == k1h.full_mask:
            covered_by_some_3set = True
    assert not covered_by_some_3set
    assert steiner_number(k1h).value == 4


# --- geodetic vs Steiner --------------------------------------------------------


def test_diam2_steiner_geodetic_runs_full_enumeration_at_small_order():
    r = check_diam2_steiner_geodetic(cycle(4))
    assert r.verdict == "PASS"
    assert r.computed["tier_a"] == 1
    assert r.computed["steiner_sets_checked"] == 3  # {0,2}, {1,3}, V

    assert check_diam2_steiner_geodetic(path(4)).verdict == "SKIPPED"


def _assert_tier_a_matches_dp(g):
    checked, offender = diam2_tier_a_by_dp(g)
    r = check_diam2_steiner_geodetic(g)
    assert r.computed["tier_a"] == 1
    assert r.computed["steiner_sets_checked"] == checked, encode_graph6(g)
    if offender is not None:
        assert r.verdict == "FAIL" and r.witness == [list(vertex_tuple(offender))], encode_graph6(g)
    return offender


def test_diam2_steiner_geodetic_tier_a_matches_single_set_dp(census):
    checked = 0
    for order in range(1, 7):
        for g in census(order):
            if diameter(g) == 2:
                assert _assert_tier_a_matches_dp(g) is None
                checked += 1
    assert checked > 0


def test_diam2_steiner_geodetic_tier_a_matches_single_set_dp_order_8():
    rng = random.Random(2)
    graphs = [g for g in (random_connected_graph(8, 0.6, rng) for _ in range(12)) if diameter(g) == 2]
    offenders = [_assert_tier_a_matches_dp(g) for g in graphs]
    assert len(graphs) == 6 and sum(o is not None for o in offenders) == 1


def test_diam2_steiner_geodetic_counterexample_gvxi():
    r = check_diam2_steiner_geodetic(parse_graph6("Gvxi]?"))
    assert r.verdict == "FAIL"
    assert r.witness == [[2, 6, 7]]
    assert r.computed == {"g": 4, "s": 3, "tier_a": 1, "steiner_sets_checked": 1,
                          "min_steiner_witness_geodetic": 0}
    # the brute-force oracles agree: {2, 6, 7} is a Steiner set and not a geodetic set
    g, everything = parse_graph6("Gvxi]?"), set(range(8))
    assert steiner_hull_brute(g, [2, 6, 7]) == everything
    assert closure_vertices(g, [2, 6, 7]) != everything
    assert geodetic_number_brute(g)[0] == 4
    assert steiner_number_brute(g)[0] == 3


def test_diam2_steiner_geodetic_bitset_holds_only_the_counterexample():
    g = parse_graph6("Gvxi]?")
    assert steiner_sets(g) & ~geodetic_sets(g) == 1 << mask_of([2, 6, 7])


def test_diam2_steiner_geodetic_petersen_full_check():
    r = check_diam2_steiner_geodetic(petersen())
    assert r.verdict == "PASS"
    assert r.computed["tier_a"] == 1
    assert r.computed["steiner_sets_checked"] == 21  # every Steiner set, at order 10
    assert r.computed["g"] <= r.computed["s"]


@pytest.mark.parametrize("code, checked, offender", [
    ("Ithp^a?Zw", 1, [1, 3, 6, 8]),
    ("K~Pc[LGeEZsh", 2, [2, 3, 6, 7, 8]),
])
def test_diam2_steiner_geodetic_counterexamples_above_order_8(code, checked, offender):
    """Orders 9 and up get the same full check as order 8 and below; these
    two graphs pass a test of g <= s and of the minimum Steiner witness
    alone."""
    g = parse_graph6(code)
    r = check_diam2_steiner_geodetic(g)
    assert r.verdict == "FAIL" and r.computed["min_steiner_witness_geodetic"] == 1
    assert r.computed["g"] <= r.computed["s"]
    assert _assert_tier_a_matches_dp(g) == mask_of(offender)
    assert r.computed["steiner_sets_checked"] == checked


def test_diam2_golden_fail_lines_are_confirmed_by_networkx():
    """Every FAIL line of a golden DIAM2_STEINER_GEODETIC run names a
    diameter-2 graph and a vertex set that the brute-force oracles find to
    be a Steiner set and not a geodetic set, and its g is the brute-force
    one.  Up to order 10, s and whether the first minimum Steiner set is
    geodetic are recomputed by brute force too (0.27 s per g at order 12).
    Every FAIL line of the golden STEINER_K1_IFF_DIAM2 run names a
    diameter-2 graph H with s(H) = 3 and s(K1 ⊙ H) = 4 by brute force."""
    fails = []
    for path_ in sorted(GOLDEN.glob("*.jsonl")):
        if path_.stem == "census_6_table":  # a census table, not JSON Lines
            continue
        for line in path_.read_text().splitlines():
            report = json.loads(line)
            if (report.get("theorem") in ("DIAM2_STEINER_GEODETIC", "STEINER_K1_IFF_DIAM2")
                    and report["verdict"] == "FAIL"):
                fails.append(report)
    brute_s = 0
    for report in fails:
        code, computed = report["instance"]["g6"][0], report["computed"]
        g = parse_graph6(code)
        everything = set(range(g.n))
        assert nx.diameter(to_nx(g)) == 2, code
        if report["theorem"] == "STEINER_K1_IFF_DIAM2":
            assert computed["s_h"] == steiner_number_brute(g)[0] == 3, code
            assert computed["s_k1_h"] == steiner_number_brute(corona(complete(1), g)[0])[0] == 4, code
            continue
        members = report["witness"][0]
        assert steiner_hull_brute(g, members) == everything, code
        assert closure_vertices(g, members) != everything, code
        assert computed["g"] == geodetic_number_brute(g)[0], code
        if g.n <= 10:
            s, least = steiner_number_brute(g)
            assert computed["s"] == s, code
            assert computed["min_steiner_witness_geodetic"] == (closure_vertices(g, least) == everything), code
            brute_s += 1
    # the orders 8, 10 and 12 random runs, then EyUG and EyuG
    assert len(fails) == 5 + 4 + 8 + 2
    k1_fails = [r["instance"]["g6"][0] for r in fails if r["theorem"] == "STEINER_K1_IFF_DIAM2"]
    assert k1_fails == ["EyUG", "EyuG"]
    assert brute_s == 5 + 4


def test_diam2_g_le_s():
    assert check_diam2_g_le_s(cycle(5)).verdict == "PASS"
    assert check_diam2_g_le_s(path(5)).verdict == "SKIPPED"


def test_diam2_g_le_s_fails_on_13_census_graphs_of_order_7():
    reports = list(run_corpus("DIAM2_G_LE_S", corpus=CorpusSpec.parse("all-connected:7..7")))
    fails = [r.instance["g6"][0] for r in reports if r.verdict == "FAIL"]
    assert fails == ["FhayG", "FhcYG", "Fhctg", "FhdYG", "Fhf_g", "FhtOw", "FjsYG",
                     "Flu]?", "Fl}SO", "FnwpO", "Fn}SO", "FxeKo", "FxecW"]
    g = parse_graph6("FhayG")  # the counterexample the checker's docstring names
    assert nx.diameter(to_nx(g)) == 2
    assert geodetic_number_brute(g) == (4, (1, 3, 4, 5))
    assert steiner_number_brute(g) == (3, (1, 3, 4))


def test_diam2_steiner_geodetic_fails_on_the_same_13_census_graphs_of_order_7():
    """The smallest counterexamples: the census up to order 6 has none
    (criterion 9), and at order 7 the least Steiner set of each graph that
    fails g <= s is not geodetic."""
    order_7 = CorpusSpec.parse("all-connected:7..7")
    reports = list(run_corpus("DIAM2_STEINER_GEODETIC", corpus=order_7))
    fails = [r.instance["g6"][0] for r in reports if r.verdict == "FAIL"]
    assert fails == [r.instance["g6"][0] for r in run_corpus("DIAM2_G_LE_S", corpus=order_7)
                     if r.verdict == "FAIL"]
    assert [sum(r.verdict == v for r in reports) for v in ("FAIL", "PASS", "SKIPPED")] == [13, 360, 480]
    for g in map(parse_graph6, fails):
        assert nx.diameter(to_nx(g)) == 2
        assert (steiner_number_brute(g)[0], geodetic_number_brute(g)[0]) == (3, 4)


def test_corona_g_le_s_examples():
    r = check_corona_g_le_s(path(2), path(3))
    assert r.verdict == "PASS"
    assert r.computed["g_product"] == 4 and r.computed["s_product"] == 6

    r = check_corona_g_le_s(path(2), cycle(4))
    assert r.verdict == "PASS"
    assert r.computed["g_product"] == 4 and r.computed["s_product"] == 8

    r = check_corona_g_le_s(cycle(3), complete(2))
    assert r.verdict == "SKIPPED" and r.reason == "h-complete"


# --- support machinery -----------------------------------------------------------


def test_geodetic_number_sum_over_components():
    assert check_geo_k1_lb(empty(3)).computed["g_h"] == 3
    h = from_edge_list(5, [(0, 1), (2, 3), (3, 4)])
    assert check_geo_k1_lb(h).computed["g_h"] == 4
    assert check_geo_k1_lb(cycle(4)).computed["g_h"] == 2


def test_registry_covers_all_claims():
    assert len(THEOREM_IDS) == 24
    for info in THEOREMS.values():
        assert info.kind in ("single", "pair", "range", "g_range", "pendant")
        assert callable(info.checker)


def test_build_items_argument_validation():
    with pytest.raises(DomainError, match="GEO_KN needs corpus$"):
        build_items("GEO_KN")
    with pytest.raises(DomainError, match="GEO_CORONA_EQ needs corpus_h$"):
        build_items("GEO_CORONA_EQ", corpus=CorpusSpec.exhaustive(1, 2))
    with pytest.raises(DomainError, match="WHEEL_GEO needs n_range$"):
        build_items("WHEEL_GEO")
    with pytest.raises(DomainError, match="PENDANT_COROLLARY needs k$"):
        build_items("PENDANT_COROLLARY", corpus=CorpusSpec.exhaustive(1, 1),
                    corpus_h=CorpusSpec.exhaustive(1, 1))
    with pytest.raises(DomainError, match="PENDANT_COROLLARY needs corpus, corpus_h, k$"):
        build_items("PENDANT_COROLLARY")
    with pytest.raises(DomainError, match="unknown theorem id"):
        build_items("NO_SUCH_CLAIM", corpus=CorpusSpec.exhaustive(1, 1))


def test_build_items_bounds_count_the_graphs_each_kind_builds():
    """A "range" instance K1 ⊙ rim(n) has n + 1 vertices and N_k has k, so a
    range ending above 61 or a k above 62 is refused before any report; at
    the limit the instance is built, and its search is capped."""
    one = CorpusSpec.exhaustive(1, 1)
    with pytest.raises(DomainError, match="^WHEEL_GEO range ends at 62; its graphs exceed 62 vertices$"):
        build_items("WHEEL_GEO", n_range=(60, 62))
    with pytest.raises(DomainError, match="^PENDANT_COROLLARY k = 63 is above the 62-vertex limit$"):
        build_items("PENDANT_COROLLARY", corpus=one, corpus_h=one, k=63)
    assert len(build_items("CORONA_CYCLE_PATH", corpus=one, n_range=(62, 62))) == 1  # path(62)
    reports = [*run_corpus("WHEEL_GEO", n_range=(61, 61)),
               *run_corpus("PENDANT_COROLLARY", corpus=one, corpus_h=one, k=62)]
    assert [(r.verdict, r.reason.split(":")[0]) for r in reports] == [("SKIPPED", "cap-exceeded")] * 2


@pytest.mark.parametrize("theorem, corpus", [("WHEEL_GEO", None),
                                             ("CORONA_CYCLE_PATH", CorpusSpec.exhaustive(2, 2))])
def test_build_items_refuses_a_range_that_starts_below_0(theorem, corpus):
    """The start of a range is bounded beside its end, before any item is
    built, so a range reaching far below 0 costs nothing; 0 is a valid start."""
    with pytest.raises(DomainError, match=f"^{theorem} range starts at -1; a range starts at 0 or above$"):
        build_items(theorem, corpus=corpus, n_range=(-1, 3))
    assert len(build_items(theorem, corpus=corpus, n_range=(0, 3))) == 4


def test_run_corpus_geo_corona_eq_small_grid():
    reports = list(run_corpus(
        "GEO_CORONA_EQ",
        corpus=CorpusSpec.exhaustive(1, 3),
        corpus_h=CorpusSpec.exhaustive(1, 3),
    ))
    counts = summarize(reports)
    assert counts == {"pass": 4, "fail": 0, "skipped": 12}
    assert json.loads(summary_json(summarize(reports))) == {"summary": counts}


def test_run_corpus_is_deterministic_and_parallel_safe():
    kwargs = dict(
        corpus=CorpusSpec.exhaustive(1, 3),
        corpus_h=CorpusSpec.exhaustive(1, 3),
    )
    a = [r.to_json() for r in run_corpus("GEO_CORONA_EQ", **kwargs)]
    b = [r.to_json() for r in run_corpus("GEO_CORONA_EQ", **kwargs)]
    c = [r.to_json() for r in run_corpus("GEO_CORONA_EQ", parallel=2, **kwargs)]
    assert a == b == c


def test_run_corpus_reports_file_parse_failures_in_place(tmp_path):
    target = tmp_path / "corpus.g6"
    target.write_text("A_\n~zzz\nBw\n")
    reports = list(run_corpus("GEO_KN", corpus=CorpusSpec.from_file(str(target))))
    assert [r.verdict for r in reports] == ["PASS", "SKIPPED", "PASS"]
    assert reports[1].reason.startswith("parse-error:")


def test_report_json_schema():
    r = check_geo_corona_eq(path(2), path(3))
    payload = json.loads(r.to_json())
    assert set(payload) == {"theorem", "instance", "computed", "verdict", "witness"}
    assert payload["instance"]["g6"] == ["A_", "Bg"]
    assert payload["instance"]["params"] == {"n1": 2, "n2": 3}
    assert all(w == sorted(w) for w in payload["witness"])
    timed = json.loads(r.to_json(timing=True))
    assert set(timed) == set(payload) | {"elapsed_ms"}


def test_report_json_skipped_schema():
    r = check_geo_corona_eq(complete(1), complete(2))
    payload = json.loads(r.to_json())
    assert payload["verdict"] == "SKIPPED"
    assert payload["reason"] == "h-complete"
    assert "witness" not in payload


def test_caps_propagate_to_skips():
    r = check_geo_corona_eq(path(2), path(3), 4)
    assert r.verdict == "SKIPPED"
    assert r.reason.startswith("cap-exceeded")


def test_run_corpus_range_kind():
    reports = run_corpus("WHEEL_GEO", n_range=(4, 8))
    assert summarize(reports) == {"pass": 5, "fail": 0, "skipped": 0}


def test_run_corpus_steiner_kn_on_complete_family():
    reports = list(run_corpus("STEINER_KN", corpus=CorpusSpec.from_family("complete", 2, 8)))
    assert summarize(reports) == {"pass": 7, "fail": 0, "skipped": 0}
    assert [r.computed["s"] for r in reports] == list(range(2, 9))


def test_wheel_fan_formulas_bundle():
    reports = [
        r
        for theorem in ("WHEEL_GEO", "FAN_GEO", "WHEEL_STEINER", "FAN_STEINER")
        for r in run_corpus(theorem, n_range=(4, 6))
    ]
    assert len(reports) == 12
    assert summarize(reports) == {"pass": 12, "fail": 0, "skipped": 0}


# --- the claim decorator and the runner ------------------------------------------


def test_run_corpus_calls_the_registered_checker(monkeypatch):
    calls = []
    info = THEOREMS["GEO_KN"]

    def spy(*args):
        calls.append(args)
        return info.checker(*args)

    monkeypatch.setitem(THEOREMS, "GEO_KN", dataclasses.replace(info, checker=spy))
    reports = list(run_corpus("GEO_KN", corpus=CorpusSpec.from_family("complete", 1, 3)))
    assert [args[0] for args in calls] == [complete(1), complete(2), complete(3)]
    assert all(args[1] == DEFAULT_CAP for args in calls)
    assert summarize(reports) == {"pass": 3, "fail": 0, "skipped": 0}


def test_checkers_accept_keyword_arguments():
    positional = check_geo_corona_eq(path(2), path(3), DEFAULT_CAP)
    keyword = check_geo_corona_eq(H=path(3), G=path(2), cap=DEFAULT_CAP)
    assert keyword.to_json() == positional.to_json()
    assert check_wheel_geo(n=3).instance == check_wheel_geo(3).instance


def test_cap_exceeded_after_the_first_search_is_a_skip():
    # s(C4) is found within the cap; the search of K1 ⊙ C4 that follows
    # is one vertex above it.
    r = check_steiner_k1_lb(cycle(4), 4)
    assert r.verdict == "SKIPPED"
    assert r.reason == "cap-exceeded: Steiner search capped at n <= 4, got 5"
    assert r.computed == {} and r.witness is None
    assert check_steiner_k1_lb(cycle(4), 5).verdict == "PASS"


# the searches a claim may run, each taking a ``cap=`` keyword
_CAPPED_SEARCHES = ("geodetic_number", "k_geodetic_number", "geodetic_sets", "steiner_number", "steiner_sets")
# a small corpus of each kind, whose every claim runs at least one search
_SMALL_CORPORA = {
    "single": {"corpus": CorpusSpec.exhaustive(1, 5)},
    "pair": {"corpus": CorpusSpec.exhaustive(1, 2), "corpus_h": CorpusSpec.exhaustive(1, 3)},
    "range": {"n_range": (0, 6)},
    "g_range": {"corpus": CorpusSpec.exhaustive(1, 2), "n_range": (0, 6)},
    "pendant": {"corpus": CorpusSpec.exhaustive(1, 2), "corpus_h": CorpusSpec.exhaustive(1, 3), "k": 2},
}


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_every_claim_passes_its_cap_to_every_search(theorem, monkeypatch):
    caps = []
    for name in _CAPPED_SEARCHES:
        def spy(*args, _search=getattr(harness, name), **kwargs):
            caps.append(kwargs.get("cap"))
            return _search(*args, **kwargs)
        monkeypatch.setattr(harness, name, spy)
    reports = list(run_corpus(theorem, cap=19, **_SMALL_CORPORA[THEOREMS[theorem].kind]))
    assert reports and caps, "the claim ran no capped search"
    assert set(caps) == {19}  # no default cap is 19


class _FakeContext:
    """Stands in for ``multiprocessing.get_context()``: records the pool
    size and chunk size asked for and the pool's exits, and maps lazily in
    this process."""

    def __init__(self):
        self.sizes = []
        self.chunksizes = []
        self.exits = 0

    def __call__(self):
        return self

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.exits += 1
        return False

    def imap(self, fn, items, chunksize):
        self.chunksizes.append(chunksize)
        return map(fn, items)


@pytest.mark.parametrize("parallel, cpus, expected", [
    (100_000, 2, [2]),   # clamped to the CPU count
    (100_000, None, []),  # unknown CPU count: one worker, no pool
    (3, 8, [3]),
    (8, 8, [4]),         # never more workers than the 4 items
    (1, 8, []),
])
def test_run_corpus_pool_size_is_bounded(monkeypatch, parallel, cpus, expected):
    fake = _FakeContext()
    monkeypatch.setattr(harness, "get_context", fake)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    reports = list(run_corpus("WHEEL_GEO", n_range=(4, 7), parallel=parallel))
    assert fake.sizes == expected
    assert [r.to_json() for r in reports] == [r.to_json() for r in run_corpus("WHEEL_GEO", n_range=(4, 7))]


@pytest.mark.parametrize("parallel", [0, -1])
def test_run_corpus_rejects_parallel_below_one(monkeypatch, parallel):
    fake = _FakeContext()
    monkeypatch.setattr(harness, "get_context", fake)
    with pytest.raises(DomainError, match="at least 1"):
        run_corpus("WHEEL_GEO", n_range=(4, 7), parallel=parallel)
    assert fake.sizes == []


def test_run_corpus_refuses_an_unknown_keyword_before_loading_a_corpus(monkeypatch):
    monkeypatch.setattr(CorpusSpec, "load", lambda self: pytest.fail("corpus loaded"))
    with pytest.raises(TypeError, match="unexpected keyword argument 'corpus_g'"):
        run_corpus("GEO_KN", corpus=CorpusSpec.exhaustive(1, 3), corpus_g=CorpusSpec.exhaustive(1, 3))


@pytest.mark.parametrize("parallel, chunksize", [
    (2, 5),  # ceil(37 / 8)
    (3, 4),  # ceil(37 / 12)
    (8, 2),  # ceil(37 / 32)
])
def test_run_corpus_hands_the_pool_chunks_of_a_quarter_per_worker(monkeypatch, parallel, chunksize):
    fake = _FakeContext()
    monkeypatch.setattr(harness, "get_context", fake)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    reports = list(run_corpus("WHEEL_GEO", n_range=(4, 40), parallel=parallel))
    assert len(reports) == 37
    assert fake.sizes == [parallel]
    assert fake.chunksizes == [chunksize]


def test_closing_the_report_generator_exits_the_pool(monkeypatch):
    fake = _FakeContext()
    monkeypatch.setattr(harness, "get_context", fake)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    reports = run_corpus("WHEEL_GEO", n_range=(4, 7), parallel=2)
    assert next(reports).instance["params"] == {"n": 4}
    assert fake.exits == 0
    reports.close()
    assert fake.exits == 1


@pytest.mark.parametrize("theorem, kwargs, match", [
    ("NO_SUCH_CLAIM", dict(corpus=CorpusSpec.exhaustive(1, 1)), "unknown theorem"),
    ("GEO_CORONA_EQ", dict(corpus=CorpusSpec.exhaustive(1, 2)), "needs corpus_h"),
    ("GEO_KN", dict(corpus=CorpusSpec.from_file("missing-corpus.g6")), "missing-corpus.g6"),
    ("WHEEL_GEO", dict(n_range=(4, 7), parallel=0), "at least 1"),
])
def test_run_corpus_raises_at_the_call_before_any_report(theorem, kwargs, match):
    with pytest.raises((DomainError, OSError), match=match):
        run_corpus(theorem, **kwargs)  # no next(): the call itself raises


@pytest.mark.parametrize("flags", [
    ["--theorem", "GEO_CORONA_EQ", "--family-g", "path:1..2"],
    ["--theorem", "GEO_KN", "--family-g", "file:missing-corpus.g6"],
    ["--theorem", "WHEEL_GEO", "--range", "4..7", "--parallel", "0"],
])
def test_verify_argument_errors_leave_stdout_empty(capsys, flags):
    assert cli.main(["verify", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_verify_writes_each_report_before_the_next_check(monkeypatch):
    out = io.StringIO()
    lines_at_call = []
    info = THEOREMS["GEO_KN"]

    def spy(*args):
        lines_at_call.append(out.getvalue().count("\n"))
        return info.checker(*args)

    monkeypatch.setitem(THEOREMS, "GEO_KN", dataclasses.replace(info, checker=spy))
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "--theorem", "GEO_KN", "--family-g", "complete:1..5"])
    assert rc == 0
    assert lines_at_call == [0, 1, 2, 3, 4]
    assert json.loads(out.getvalue().splitlines()[-1]) == {
        "summary": {"pass": 5, "fail": 0, "skipped": 0}}


def test_verify_error_mid_run_keeps_the_reports_before_it(monkeypatch, capsys):
    fake = _FakeContext()
    monkeypatch.setattr(harness, "get_context", fake)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    info = THEOREMS["GEO_KN"]

    def checker(G, cap):
        if G.n == 3:
            raise OSError("disk gone")
        return info.checker(G, cap)

    monkeypatch.setitem(THEOREMS, "GEO_KN", dataclasses.replace(info, checker=checker))
    rc = cli.main(["verify", "--theorem", "GEO_KN", "--family-g", "complete:1..5",
                   "--parallel", "2"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert [json.loads(line)["instance"]["params"] for line in out.splitlines()] == [
        {"n": 1}, {"n": 2}]
    assert err == "error: disk gone\n"
    assert fake.exits == 1


def test_verify_closes_the_report_generator_when_a_write_fails(monkeypatch, capsys):
    fake = _FakeContext()
    monkeypatch.setattr(harness, "get_context", fake)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    kept = []  # holds the generator, so only an explicit close exits the pool

    def keep(*args, **kwargs):
        kept.append(run_corpus(*args, **kwargs))
        return kept[-1]

    class OneLineStdout(io.StringIO):
        def write(self, text):
            if self.getvalue():
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

    monkeypatch.setattr(harness, "run_corpus", keep)  # cmd_verify imports it when it runs
    out = OneLineStdout()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "--theorem", "WHEEL_GEO", "--range", "4..7", "--parallel", "2"])
    assert rc == 2
    assert out.getvalue().count("\n") == 1
    assert len(kept) == 1 and fake.exits == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_verify_closes_the_pool_when_stdout_closes(tmp_path):
    # 995 reports, about 150 KB: more than a pipe holds, so the run cannot
    # finish before the reader closes its end
    code_root = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "coronageo", "verify", "--theorem", "EXTREME_IN_GEODETIC",
             "--family-g", "all-connected:1..7", "--parallel", "2"],
            stdout=subprocess.PIPE, stderr=err, text=True,
            env=dict(os.environ, PYTHONPATH=code_root))
        try:
            first = json.loads(proc.stdout.readline())
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
        finally:
            proc.kill()
            proc.wait()
        err.seek(0)
        assert err.read() == "error: [Errno 32] Broken pipe\n"
    assert first["instance"]["g6"] == ["@"]


def test_run_corpus_frees_each_graphs_tables_once_it_is_checked():
    # DIAM2_G_LE_S tests its hypothesis on each order-62 graph without a
    # table and then hits the cap, so it builds none; a run that built and
    # kept every graph's tables until the last report (the distance rows
    # alone are about 34 KB, against 3 KB for the graph) would peak about
    # ten times above the corpus
    spec = CorpusSpec.random(62, 0.5, 40, 1)
    tracemalloc.start()
    try:
        items = harness.build_items("DIAM2_G_LE_S", corpus=spec)
        corpus_peak = tracemalloc.get_traced_memory()[1]
        del items
        tracemalloc.reset_peak()
        reports = list(run_corpus("DIAM2_G_LE_S", corpus=spec))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 40
    assert run_peak < 2 * corpus_peak


def test_execute_frees_the_tables_of_a_checked_diameter_two_graph(monkeypatch):
    built = []
    bfs = graphs.bfs_distances
    monkeypatch.setattr(graphs, "bfs_distances", lambda g: built.append(g) or bfs(g))
    items = build_items("DIAM2_STEINER_GEODETIC", corpus=CorpusSpec.random(8, 0.6, 40, 1))
    item = next(it for it in items if graphs.is_diameter_two(it[1][0]))
    G = item[1][0]
    report = harness._execute(item)
    assert report.verdict != "SKIPPED" and built == [G]  # the check built both tables
    assert "distances" not in vars(G) and "intervals" not in vars(G)


@pytest.mark.parametrize("theorem,spec,expected", [
    ("DIAM2_STEINER_GEODETIC", CorpusSpec.random(8, 0.6, 40, 1), 27),
    ("DIAM2_G_LE_S", CorpusSpec.parse("all-connected:7..7"), 362),
    ("DIAM2_STEINER_GEODETIC", CorpusSpec.parse("all-connected:7..7"), 373),
])
def test_diam2_hypotheses_build_no_table(monkeypatch, theorem, spec, expected):
    """Work guard: a DIAM2 hypothesis is tested without a table, so a graph
    that fails it runs no ``bfs_distances``.  DIAM2_STEINER_GEODETIC runs one
    pass for both tables of each diameter-2 graph (27 of the 40 random ones,
    373 of the order-7 census); DIAM2_G_LE_S builds no table on the graph
    itself, and its 362 passes are the block picks' misses."""
    calls = 0
    bfs = graphs.bfs_distances

    def counted_bfs(G):
        nonlocal calls
        calls += 1
        return bfs(G)

    monkeypatch.setattr(graphs, "bfs_distances", counted_bfs)
    reports = list(run_corpus(theorem, corpus=spec))
    assert calls == expected, (theorem, len(reports))


def test_multiprocessing_is_imported_only_when_a_pool_starts():
    code = "import sys, coronageo.cli; sys.exit('multiprocessing' in sys.modules)"
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=package_root), timeout=60)
    assert res.returncode == 0, res.stderr


def test_structure_lemmas_hold_on_small_grid(census):
    gs = [g for order in (1, 2) for g in census(order)]
    hs = [h for order in (1, 2, 3) for h in census(order)]
    for g in gs:
        for h in hs:
            geo = check_corona_structure_geo(g, h)
            steiner = check_corona_structure_steiner(g, h)
            assert geo.verdict == "PASS", (g, h, geo.computed)
            assert steiner.verdict == "PASS", (g, h, steiner.computed)
            # canonical minimum witnesses avoid the base and meet every copy
            assert geo.computed["part_ii"] == 1
            assert steiner.computed["part_ii"] == 1
