"""Acceptance suite: every criterion is exact (integer equality, zero
tolerance) and prints one PASS line when it holds."""

import itertools

import networkx as nx

from coronageo.formats import encode_graph6
from coronageo.geodesic import geodetic_number
from coronageo.graphs import (
    bfs_distances,
    complete,
    corona,
    cycle,
    diameter,
    empty,
    from_edge_list,
    is_complete,
    mask_of,
    path,
)
from coronageo.harness import (
    check_diam2_steiner_geodetic,
    check_fan_steiner,
    check_geo_corona_eq,
    check_g2_equivalence,
    check_pendant_corollary,
    check_steiner_corona_eq,
    check_steiner_k1_iff_diam2,
)
from coronageo.steiner import steiner_hull, steiner_number
from oracles import (
    geodetic_search_by_closure,
    oracle_steiner_trees,
    steiner_number_brute,
    steiner_number_by_dp,
    to_nx,
)

ALL_ORDER_LE_3 = [
    complete(1),
    complete(2), empty(2),
    complete(3), path(3), from_edge_list(3, [(0, 1)]), empty(3),
]


def _report(label: str) -> None:
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_01_wheel_geodetic():
    for n in range(4, 11):
        w, _ = corona(complete(1), cycle(n))
        assert geodetic_number(w).value == (n + 1) // 2, f"wheel {n}"
    _report("1 wheel geodetic g(W_1,n) = ceil(n/2), n = 4..10")


def test_criterion_02_fan_geodetic():
    for n in range(3, 11):
        f, _ = corona(complete(1), path(n))
        assert geodetic_number(f).value == (n + 2) // 2, f"fan {n}"
    _report("2 fan geodetic g(F_1,n) = ceil((n+1)/2), n = 3..10")


def test_criterion_03_wheel_steiner():
    for n in range(4, 10):
        w, _ = corona(complete(1), cycle(n))
        assert steiner_number(w).value == n - 2, f"wheel {n}"
    _report("3 wheel Steiner s(W_1,n) = n-2, n = 4..9")


def test_criterion_04_fan_steiner_disambiguation():
    for n in range(3, 10):
        r = check_fan_steiner(n)
        s_fan, g_fan = r.computed["s_fan"], r.computed["g_fan"]
        matches = "s" if r.computed["s_matches"] else ("g" if r.computed["g_matches"] else "neither")
        print(f"  fan n={n}: g={g_fan}, s={s_fan}; n-1 matched by: {matches}")
        assert r.verdict == "PASS"
        assert s_fan == n - 1
    _report("4 fan disambiguation: s(F_1,n) = n-1 matches for n = 3..9")


def test_criterion_05_corona_geodetic_theorem(census):
    gs = [g for order in (1, 2, 3) for g in census(order)]
    hs = [h for order in (1, 2, 3) for h in census(order) if not is_complete(h)]
    assert hs  # P3 is the only connected non-complete graph of order <= 3
    count = 0
    for g in gs:
        for h in hs:
            r = check_geo_corona_eq(g, h)
            assert r.verdict == "PASS", (encode_graph6(g), encode_graph6(h), r.computed)
            count += 1
    _report(f"5 corona geodetic g(G⊙H) = n1·g(K1⊙H) on {count} instances")


def test_criterion_06_corona_steiner_proposition(census):
    gs = [g for order in (2, 3) for g in census(order)]
    count = cross_checked = 0
    for g in gs:
        for h in ALL_ORDER_LE_3:
            r = check_steiner_corona_eq(g, h)
            assert r.verdict == "PASS", (encode_graph6(g), encode_graph6(h), r.computed)
            assert r.computed["s_product"] == g.n * h.n
            prod, _ = corona(g, h)
            if prod.n <= 10:
                value, witness, _ = steiner_number_by_dp(prod)
                assert (r.computed["s_product"], r.witness[0]) == (value, list(witness))
                cross_checked += 1
            count += 1
    assert cross_checked == 13
    _report(f"6 corona Steiner s(G⊙H) = n1·n2 on {count} instances, {cross_checked} matched by the DP search")


def test_criterion_07_g2_biconditional(census):
    checked = 0
    for order in range(1, 7):
        for h in census(order):
            if is_complete(h):
                continue
            r = check_g2_equivalence(h)
            assert r.verdict == "PASS", (encode_graph6(h), r.computed)
            checked += 1
    assert checked == 137
    _report(f"7 biconditional g(H)=g(K1⊙H) <=> g(H)=g2(H) on {checked} graphs")


def test_criterion_08_steiner_k1_biconditional(census):
    # The claimed biconditional s(K1⊙H) = s(H) <=> D(H) = 2 is false.  The
    # networkx oracle computes both Steiner numbers and the diameter of every
    # connected non-complete graph of order <= 6: the reverse direction holds
    # on all of them, and the forward one fails on exactly "EyUG" and "EyuG"
    # (diameter 2, s(H) = 3, s(K1⊙H) = 4; see
    # test_harness.py::test_steiner_k1_iff_diam2_counterexamples).  The checker
    # must agree with the oracle on every value and flag exactly those graphs.
    forward_failures = set()
    reverse_failures = set()
    flagged = set()
    checked = 0
    for order in range(1, 7):
        for h in census(order):
            if is_complete(h):
                continue
            code = encode_graph6(h)
            s_h, _ = steiner_number_brute(h)
            s_k1_h, _ = steiner_number_brute(corona(complete(1), h)[0])
            diam = nx.diameter(to_nx(h))
            if diam == 2 and s_k1_h != s_h:
                forward_failures.add(code)
            if s_k1_h == s_h and diam != 2:
                reverse_failures.add(code)
            r = check_steiner_k1_iff_diam2(h)
            computed = (r.computed["s_h"], r.computed["s_k1_h"], r.computed["diameter"])
            assert computed == (s_h, s_k1_h, diam), (code, r.computed)
            if r.verdict != "PASS":
                assert r.verdict == "FAIL", (code, r.verdict, r.computed)
                assert computed == (3, 4, 2), (code, r.computed)
                flagged.add(code)
            checked += 1
    assert checked == 137
    assert not reverse_failures, sorted(reverse_failures)
    assert forward_failures == flagged == {"EyUG", "EyuG"}, (sorted(forward_failures), sorted(flagged))
    _report(
        f"8 biconditional s(K1⊙H)=s(H) <=> D(H)=2 refuted on {checked} graphs by "
        f"{len(flagged)} oracle-confirmed counterexamples; reverse direction holds"
    )


def test_criterion_09_diam2_steiner_sets_are_geodetic(census):
    checked = 0
    for order in range(1, 7):
        for g in census(order):
            if diameter(g) != 2:
                continue
            r = check_diam2_steiner_geodetic(g)
            assert r.verdict == "PASS", (encode_graph6(g), r.computed)
            assert r.computed["tier_a"] == 1
            assert r.computed["steiner_sets_checked"] >= 1
            assert r.computed["g"] <= r.computed["s"]
            checked += 1
    assert checked > 0
    _report(f"9 diameter-2 Steiner => geodetic, full enumeration on {checked} graphs")


def test_criterion_10_pendant_corollary():
    for h in (path(2), path(3), cycle(3)):
        r = check_pendant_corollary(path(2), h, 2)
        assert r.verdict == "PASS", (encode_graph6(h), r.computed)
        assert r.computed["g_product"] == 2 * h.n * 2
    _report("10 pendant corollary g(P2⊙(H⊙N2)) = 2·n2·2 for H in {P2, P3, C3}")


def test_criterion_11a_hull_equals_tree_support_union(census):
    mismatches = 0
    for order in range(1, 8):
        for g in census(order):
            for size in range(1, min(4, g.n) + 1):
                for combo in itertools.combinations(range(g.n), size):
                    W = mask_of(combo)
                    union = 0
                    for support in oracle_steiner_trees(g, W):
                        union |= support
                    if union != steiner_hull(g, W):
                        mismatches += 1
    assert mismatches == 0
    _report("11a steiner_hull = union of enumerated tree supports, order <= 7, |W| <= 4")


def test_criterion_11b_pruned_geodetic_equals_unpruned(census):
    for order in range(1, 8):
        for g in census(order):
            a = geodetic_number(g)
            b = geodetic_search_by_closure(g, 0)
            assert (a.value, a.witness) == (b.value, b.witness), encode_graph6(g)
    _report("11b pruned geodetic search = unpruned search, order <= 7")


def test_criterion_11c_pair_hulls_are_intervals(census):
    for order in range(1, 8):
        for g in census(order):
            I = bfs_distances(g)[1]
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert steiner_hull(g, mask_of([u, v])) == I[u][v], encode_graph6(g)
    _report("11c S[{u,v}] = I[u,v] for all pairs, order <= 7")


def test_criterion_12_complete_graph_characterizations(census):
    for order in range(1, 7):
        for g in census(order):
            comp = is_complete(g)
            assert (geodetic_number(g).value == g.n) == comp, encode_graph6(g)
            assert (steiner_number(g).value == g.n) == comp, encode_graph6(g)
    _report("12 g(G)=n iff complete and s(G)=n iff complete, order <= 6")


def test_criterion_13_determinism_including_parallel(run_cli):
    base = ("--theorem", "GEO_CORONA_EQ",
            "--family-g", "all-connected:1..3", "--family-h", "all-connected:1..3")
    first = run_cli("verify", *base)
    second = run_cli("verify", *base)
    parallel = run_cli("verify", *base, "--parallel", "4")
    assert first.returncode == second.returncode == parallel.returncode == 0
    assert first.stdout == second.stdout == parallel.stdout

    seeded = ("--theorem", "DIAM2_G_LE_S", "--random", "n=7,p=0.4,count=5", "--seed", "1234")
    r1 = run_cli("verify", *seeded)
    r2 = run_cli("verify", *seeded, "--parallel", "4")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    _report("13 byte-identical verify output across runs and under --parallel 4")
