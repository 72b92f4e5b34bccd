import dataclasses
import json

import pytest

from coronageo import harness
from coronageo.corpus import CorpusSpec
from coronageo.errors import DomainError
from coronageo.graphs import (
    complete,
    corona,
    cycle,
    empty,
    from_edge_list,
    mask_of,
    path,
)
from coronageo.harness import (
    Caps,
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
    geodetic_number_sum,
    run_corpus,
    summarize,
    summary_json,
)


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
    from coronageo.steiner import oracle_steiner_trees, steiner_number

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


def test_diam2_steiner_geodetic_petersen_tier_b():
    r = check_diam2_steiner_geodetic(petersen())
    assert r.verdict == "PASS"
    assert r.computed["tier_a"] == 0
    assert r.computed["g"] <= r.computed["s"]


def test_diam2_g_le_s():
    assert check_diam2_g_le_s(cycle(5)).verdict == "PASS"
    assert check_diam2_g_le_s(path(5)).verdict == "SKIPPED"


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
    assert geodetic_number_sum(empty(3)) == 3
    h = from_edge_list(5, [(0, 1), (2, 3), (3, 4)])
    assert geodetic_number_sum(h) == 4
    assert geodetic_number_sum(cycle(4)) == 2


def test_registry_covers_all_claims():
    assert len(THEOREM_IDS) == 24
    for tid, info in THEOREMS.items():
        assert info.id == tid
        assert info.kind in ("single", "pair", "range", "g_range", "pendant")
        assert callable(info.checker)


def test_build_items_argument_validation():
    with pytest.raises(DomainError):
        build_items("GEO_KN")
    with pytest.raises(DomainError):
        build_items("GEO_CORONA_EQ", corpus=CorpusSpec.exhaustive(1, 2))
    with pytest.raises(DomainError):
        build_items("WHEEL_GEO")
    with pytest.raises(DomainError):
        build_items("PENDANT_COROLLARY", corpus=CorpusSpec.exhaustive(1, 1),
                    corpus_h=CorpusSpec.exhaustive(1, 1))
    with pytest.raises(DomainError):
        build_items("NO_SUCH_CLAIM", corpus=CorpusSpec.exhaustive(1, 1))


def test_run_corpus_geo_corona_eq_small_grid():
    reports = run_corpus(
        "GEO_CORONA_EQ",
        corpus=CorpusSpec.exhaustive(1, 3),
        corpus_h=CorpusSpec.exhaustive(1, 3),
    )
    counts = summarize(reports)
    assert counts == {"pass": 4, "fail": 0, "skipped": 12}
    assert json.loads(summary_json(reports)) == {"summary": counts}


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
    reports = run_corpus("GEO_KN", corpus=CorpusSpec.from_file(str(target)))
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
    assert "elapsed_ms" in timed


def test_report_json_skipped_schema():
    r = check_geo_corona_eq(complete(1), complete(2))
    payload = json.loads(r.to_json())
    assert payload["verdict"] == "SKIPPED"
    assert payload["reason"] == "h-complete"
    assert "witness" not in payload


def test_caps_propagate_to_skips():
    caps = Caps(geodetic=4, steiner=4, terminals=4)
    r = check_geo_corona_eq(path(2), path(3), caps)
    assert r.verdict == "SKIPPED"
    assert r.reason.startswith("cap-exceeded")


def test_run_corpus_range_kind():
    reports = run_corpus("WHEEL_GEO", n_range=(4, 8))
    assert summarize(reports) == {"pass": 5, "fail": 0, "skipped": 0}


def test_run_corpus_steiner_kn_on_complete_family():
    reports = run_corpus("STEINER_KN", corpus=CorpusSpec.from_family("complete", 2, 8))
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
    reports = run_corpus("GEO_KN", corpus=CorpusSpec.from_family("complete", 1, 3))
    assert [args[0] for args in calls] == [complete(1), complete(2), complete(3)]
    assert all(args[1] == Caps() for args in calls)
    assert summarize(reports) == {"pass": 3, "fail": 0, "skipped": 0}


def test_checkers_accept_keyword_arguments():
    positional = check_geo_corona_eq(path(2), path(3), Caps())
    keyword = check_geo_corona_eq(H=path(3), G=path(2), caps=Caps())
    assert keyword.to_json() == positional.to_json()
    assert check_wheel_geo(n=3).instance == check_wheel_geo(3).instance


def test_cap_exceeded_after_the_first_search_is_a_skip():
    # s(P2 ⊙ P3) is found within the Steiner cap; part (i) then asks for the
    # Steiner distance of all six copy vertices, beyond a terminal cap of 5.
    r = check_corona_structure_steiner(path(2), path(3), Caps(terminals=5))
    assert r.verdict == "SKIPPED"
    assert r.reason == "cap-exceeded: terminal sets capped at 5, got 6"
    assert r.computed == {} and r.witness is None
    assert check_corona_structure_steiner(path(2), path(3), Caps(terminals=6)).verdict == "PASS"


class _FakeContext:
    """Stands in for ``multiprocessing.get_context()``: records the pool
    size asked for and maps in this process."""

    def __init__(self):
        self.sizes = []

    def __call__(self):
        return self

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


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
    reports = run_corpus("WHEEL_GEO", n_range=(4, 7), parallel=parallel)
    assert fake.sizes == expected
    assert [r.to_json() for r in reports] == [r.to_json() for r in run_corpus("WHEEL_GEO", n_range=(4, 7))]


@pytest.mark.parametrize("parallel", [0, -1])
def test_run_corpus_rejects_parallel_below_one(monkeypatch, parallel):
    fake = _FakeContext()
    monkeypatch.setattr(harness, "get_context", fake)
    with pytest.raises(DomainError, match="at least 1"):
        run_corpus("WHEEL_GEO", n_range=(4, 7), parallel=parallel)
    assert fake.sizes == []


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
