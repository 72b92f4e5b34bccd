"""Executable verification of the corona-product geodetic/Steiner claims.

Every claim has a checker producing a ``VerificationReport`` with verdict
PASS, FAIL, or SKIPPED (hypothesis not met / resource cap), the computed
values, and canonical witnesses.  Checkers are registered in ``THEOREMS`` by
the ``claim`` decorator, which also times them, records the instance and
builds the report.  ``run_corpus`` drives a checker over a deterministic
corpus and yields the reports in canonical order, each serialized as one
JSON Lines record by ``VerificationReport.to_json``.

Hypothesis discipline: a checker never asserts a claim outside its stated
hypotheses; out-of-hypothesis instances are SKIPPED with a reason code,
never PASS.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import time
from collections.abc import Callable, Generator, Iterable, Sequence
from dataclasses import dataclass

from .corpus import CorpusEntry, CorpusSpec
from .errors import CapExceeded, DomainError
from .formats import encode_graph6, jsonline
from .geodesic import (
    geodetic_number,
    geodetic_sets,
    is_geodetic,
    k_geodetic_number,
)
from .graphs import (
    MAX_VERTICES,
    CoronaLayout,
    Graph,
    Mask,
    complete,
    components,
    corona,
    cycle,
    diameter,
    empty,
    extreme_vertices,
    fan,
    induced_subgraph,
    is_complete,
    is_connected,
    is_diameter_two,
    mask_of,
    path,
    reachable_set,
    vertex_tuple,
    wheel,
)
from .steiner import steiner_number, steiner_sets
from .subsets import DEFAULT_CAP, first_set, least_size

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

# reason codes for SKIPPED verdicts
R_G_DISCONNECTED = "g-not-connected"
R_H_DISCONNECTED = "h-not-connected"
R_H_COMPLETE = "h-complete"
R_N1_LT_2 = "n1-lt-2"
R_DIAM_NE_2 = "diameter-ne-2"
R_G_EQ_G2 = "g-equals-g2"
R_N_BELOW_MIN = "n-below-min"
R_K_LT_2 = "k-lt-2"
R_CAP = "cap-exceeded"
R_PARSE = "parse-error"


@dataclass
class VerificationReport:
    theorem: str
    instance: dict
    computed: dict
    verdict: str
    reason: str | None = None
    witness: list[list[int]] | None = None
    elapsed_ms: int = 0

    def to_json(self, *, timing: bool = False) -> str:
        """One JSON line of the fields, less any that is None, and less
        ``elapsed_ms`` unless ``timing``."""
        return jsonline({key: value for key, value in vars(self).items()
                         if value is not None and (timing or key != "elapsed_ms")})


def summarize(reports: Iterable[VerificationReport]) -> dict:
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        counts[r.verdict.lower()] += 1
    return counts


def summary_json(counts: dict) -> str:
    """The summary line of a ``summarize`` tally."""
    return jsonline({"summary": counts})


# ---------------------------------------------------------------------------
# Claim registry and checker plumbing.


@dataclass(frozen=True)
class TheoremInfo:
    kind: str  # "single" | "pair" | "range" | "g_range" | "pendant"
    checker: Callable[..., VerificationReport]


THEOREMS: dict[str, TheoremInfo] = {}

# What a claim body returns: ok, computed values, witness vertex sets, reason.
Outcome = tuple[bool, dict, list[Sequence[int]] | None, str | None]


class _Skip(Exception):
    """A SKIPPED verdict; its one argument is the reason."""


def _need(condition: bool, reason: str) -> None:
    if not condition:
        raise _Skip(reason)


# each kind's leading checker arguments, in order, as (the ``build_items``
# argument that gives it, the instance param it is recorded as, the ``verify``
# flags that may supply it)
KINDS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "single": (("corpus", "n", ("family_g", "family_h", "random")),),
    "pair": (("corpus", "n1", ("family_g",)), ("corpus_h", "n2", ("family_h", "random"))),
    "range": (("n_range", "n", ("range",)),),
    "g_range": (("corpus", "n1", ("family_g",)), ("n_range", "n2", ("range",))),
    "pendant": (("corpus", "n1", ("family_g",)), ("corpus_h", "n2", ("family_h", "random")),
                ("k", "k", ("k",))),
}


def claim(theorem: str, kind: str, family: tuple[Callable[[int], Graph], int] | None = None):
    """Register the decorated claim body as the checker of ``theorem``.

    The checker takes the body's arguments, times the call, records the
    instance, and builds a PASS or FAIL report from the body's ``Outcome``.
    A ``_Skip`` or a ``CapExceeded`` raised anywhere in the body gives a
    SKIPPED report instead.  The instance records each leading argument
    under its ``KINDS`` param (a graph's order, or the int itself) and the
    graphs among them; with ``family = (rim, least)`` the graph of
    parameter n is K1 ⊙ rim(n) instead, recorded from n >= least.
    """
    names = [param for _, param, _ in KINDS[kind]]

    def register(body: Callable[..., Outcome]) -> Callable[..., VerificationReport]:
        signature = inspect.signature(body)

        @functools.wraps(body)
        def checker(*args, **kwargs) -> VerificationReport:
            start = time.perf_counter()
            leading = dict(zip(names, signature.bind(*args, **kwargs).arguments.values()))
            if family is None:
                graphs = [a for a in leading.values() if isinstance(a, Graph)]
            else:
                rim, least = family
                graphs = [corona(complete(1), rim(leading["n"]))[0]] if leading["n"] >= least else []
            params = {name: a.n if isinstance(a, Graph) else a for name, a in leading.items()}
            inst = {"g6": [encode_graph6(g) for g in graphs], "params": params}
            try:
                ok, computed, witness, reason = body(*args, **kwargs)
                verdict = PASS if ok else FAIL
            except _Skip as s:
                verdict, computed, witness, reason = SKIPPED, {}, None, s.args[0]
            except CapExceeded as exc:
                verdict, computed, witness, reason = SKIPPED, {}, None, f"{R_CAP}: {exc}"
            return VerificationReport(
                theorem, inst, computed, verdict, reason=reason,
                witness=None if witness is None else [list(w) for w in witness],
                elapsed_ms=int((time.perf_counter() - start) * 1000),
            )

        THEOREMS[theorem] = TheoremInfo(kind, checker)
        return checker

    return register


def _build_corona(G: Graph, H: Graph) -> tuple[Graph, CoronaLayout]:
    try:
        return corona(G, H)
    except DomainError as exc:  # product order beyond the 62-vertex limit
        raise _Skip(f"{R_CAP}: {exc}") from None


def _k1_corona(H: Graph) -> Graph:
    return _build_corona(complete(1), H)[0]


# ---------------------------------------------------------------------------
# Geodetic checkers.


@claim("GEO_KN", "single")
def check_geo_kn(G: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """g(G) = n exactly when G is complete."""
    _need(is_connected(G), R_G_DISCONNECTED)
    r = geodetic_number(G, cap=cap)
    comp = is_complete(G)
    computed = {"g": r.value, "n": G.n, "complete": int(comp)}
    return (r.value == G.n) == comp, computed, [r.witness], None


@claim("CORONA_GEO_STRUCT", "pair")
def check_corona_structure_geo(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """Structural facts about geodetic sets of G ⊙ H:
    (i) no copy vertex is geodominated by a pair leaving its copy,
    (ii) the minimum witness meets every copy,
    (iii) it avoids the base vertices (n1 >= 2, or n1 = 1 with H non-complete),
    (iv) each per-copy slice is geodetic in K1 ⊙ H (H non-complete)."""
    _need(is_connected(G), R_G_DISCONNECTED)
    prod, layout = _build_corona(G, H)
    r = geodetic_number(prod, cap=cap)

    I = prod.intervals
    blocks = [layout.copy_mask(i) for i in range(layout.n1)]
    part_i = not any(
        I[a][b] & block & ~(1 << a | 1 << b)
        for block in blocks
        for a in range(prod.n)
        for b in range(a + 1, prod.n)
        if (1 << a | 1 << b) & ~block  # a and b not both in the copy
    )

    W = mask_of(r.witness)
    parts = {"part_i": part_i, "part_ii": all(W & block for block in blocks)}
    if G.n >= 2 or not is_complete(H):
        parts["part_iii"] = W & layout.g_mask == 0
    if not is_complete(H):
        k1h = _k1_corona(H)
        parts["part_iv"] = all(  # copy i's slice, shifted onto the copy of H in K1 ⊙ H
            W & block and is_geodetic(k1h, (W & block) >> (layout.n1 + i * layout.n2) << 1)
            for i, block in enumerate(blocks)
        )
    computed = {"g_product": r.value, **{p: int(v) for p, v in parts.items()}}
    skipped = [p for p in ("part_iii", "part_iv") if p not in parts]
    reason = f"skipped-parts:{','.join(skipped)}" if skipped else None
    return all(parts.values()), computed, [r.witness], reason


@claim("GEO_K1_LB", "single")
def check_geo_k1_lb(H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """g(K1 ⊙ H) >= g(H) for any graph H (components summed when disconnected)."""
    g_h = sum(geodetic_number(induced_subgraph(H, c), cap=cap).value
              for c in components(H))
    r = geodetic_number(_k1_corona(H), cap=cap)
    computed = {"g_h": g_h, "g_k1_h": r.value}
    return r.value >= g_h, computed, [r.witness], None


@claim("EXTREME_IN_GEODETIC", "single")
def check_extreme_in_geodetic(G: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """The canonical minimum geodetic witness contains every extreme vertex."""
    _need(is_connected(G), R_G_DISCONNECTED)
    r = geodetic_number(G, cap=cap)
    ext = extreme_vertices(G)
    computed = {"g": r.value, "extreme_count": ext.bit_count()}
    ok = ext & ~mask_of(r.witness) == 0
    return ok, computed, [r.witness], None


@claim("GEO_BOUNDS", "pair")
def check_geo_bounds(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """n1·g(H) <= g(G ⊙ H) <= n1·n2; equality on the right exactly when every
    component of H is complete; <= n1(n2-1) when no component is complete."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(G.n >= 2 or not is_complete(H), R_H_COMPLETE)
    prod, _ = _build_corona(G, H)
    r = geodetic_number(prod, cap=cap)
    comps = [induced_subgraph(H, c) for c in components(H)]
    g_h = sum(geodetic_number(c, cap=cap).value for c in comps)
    all_complete = all(is_complete(c) for c in comps)
    none_complete = not any(is_complete(c) for c in comps)
    lower = G.n * g_h
    upper = G.n * H.n
    lower_ok = lower <= r.value
    upper_ok = r.value <= upper
    equality_ok = (r.value == upper) == all_complete
    sharp_ok = r.value <= G.n * (H.n - 1) if none_complete else True
    computed = {
        "g_product": r.value,
        "g_h": g_h,
        "lower": lower,
        "upper": upper,
        "lower_ok": int(lower_ok),
        "upper_ok": int(upper_ok),
        "equality_iff_ok": int(equality_ok),
        "sharp_checked": int(none_complete),
        "sharp_ok": int(sharp_ok),
    }
    ok = lower_ok and upper_ok and equality_ok and sharp_ok
    return ok, computed, [r.witness], None


@claim("GEO_CORONA_EQ", "pair")
def check_geo_corona_eq(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """g(G ⊙ H) = n1 · g(K1 ⊙ H) for connected G and non-complete H."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(not is_complete(H), R_H_COMPLETE)
    prod, _ = _build_corona(G, H)
    rp = geodetic_number(prod, cap=cap)
    rh = geodetic_number(_k1_corona(H), cap=cap)
    expected = G.n * rh.value
    computed = {"g_product": rp.value, "g_k1_h": rh.value, "expected": expected}
    return rp.value == expected, computed, [rp.witness, rh.witness], None


@claim("WHEEL_GEO", "range", family=(cycle, 3))
def check_wheel_geo(n: int, cap: int = DEFAULT_CAP) -> Outcome:
    """g(wheel with rim n) = ceil(n / 2) for n >= 4."""
    _need(n >= 4, R_N_BELOW_MIN)
    r = geodetic_number(wheel(n), cap=cap)
    expected = (n + 1) // 2
    computed = {"g": r.value, "expected": expected}
    return r.value == expected, computed, [r.witness], None


@claim("FAN_GEO", "range", family=(path, 1))
def check_fan_geo(n: int, cap: int = DEFAULT_CAP) -> Outcome:
    """g(fan over a path of n) = ceil((n + 1) / 2) for n >= 3."""
    _need(n >= 3, R_N_BELOW_MIN)
    r = geodetic_number(fan(n), cap=cap)
    expected = (n + 2) // 2
    computed = {"g": r.value, "expected": expected}
    return r.value == expected, computed, [r.witness], None


@claim("CORONA_CYCLE_PATH", "g_range")
def check_corona_cycle_path(G: Graph, n2: int, cap: int = DEFAULT_CAP) -> Outcome:
    """g(G ⊙ C_n2) = n1·ceil(n2/2) for n2 >= 4 and
    g(G ⊙ P_n2) = n1·ceil((n2+1)/2) for n2 >= 3."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(n2 >= 3, R_N_BELOW_MIN)
    prod_path, _ = _build_corona(G, path(n2))
    r_path = geodetic_number(prod_path, cap=cap)
    cycle_checked = n2 >= 4
    expected_path = G.n * ((n2 + 2) // 2)
    computed = {
        "g_corona_path": r_path.value,
        "expected_path": expected_path,
        "cycle_checked": int(cycle_checked),
    }
    ok = r_path.value == expected_path
    witness = [r_path.witness]
    if cycle_checked:
        prod_cycle, _ = _build_corona(G, cycle(n2))
        r_cycle = geodetic_number(prod_cycle, cap=cap)
        expected_cycle = G.n * ((n2 + 1) // 2)
        computed["g_corona_cycle"] = r_cycle.value
        computed["expected_cycle"] = expected_cycle
        ok = ok and r_cycle.value == expected_cycle
        witness.append(r_cycle.witness)
    return ok, computed, witness, None


@claim("G2_EQUIV", "single")
def check_g2_equivalence(H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """g(H) = g(K1 ⊙ H) exactly when g(H) = g2(H), for connected non-complete H."""
    _need(is_connected(H), R_H_DISCONNECTED)
    _need(not is_complete(H), R_H_COMPLETE)
    g_h = geodetic_number(H, cap=cap)
    g2_h = k_geodetic_number(H, 2, cap=cap)
    g_k1 = geodetic_number(_k1_corona(H), cap=cap)
    left = g_h.value == g_k1.value
    right = g2_h.value is not None and g_h.value == g2_h.value
    computed = {
        "g_h": g_h.value,
        "g2_h": -1 if g2_h.value is None else g2_h.value,
        "g_k1_h": g_k1.value,
        "left": int(left),
        "right": int(right),
    }
    return left == right, computed, None, None


@claim("G2_CORONA_EQUIV", "pair")
def check_g2_corona_equiv(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """g(G ⊙ H) = n1·g(H) exactly when g(H) = g2(H), for connected G and
    connected non-complete H."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(is_connected(H), R_H_DISCONNECTED)
    _need(not is_complete(H), R_H_COMPLETE)
    prod, _ = _build_corona(G, H)
    g_prod = geodetic_number(prod, cap=cap)
    g_h = geodetic_number(H, cap=cap)
    g2_h = k_geodetic_number(H, 2, cap=cap)
    left = g_prod.value == G.n * g_h.value
    right = g2_h.value is not None and g_h.value == g2_h.value
    computed = {
        "g_product": g_prod.value,
        "g_h": g_h.value,
        "g2_h": -1 if g2_h.value is None else g2_h.value,
        "left": int(left),
        "right": int(right),
    }
    return left == right, computed, None, None


@claim("DIAM2_GEO_EQ", "pair")
def check_diam2_geo_eq(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """If H has diameter 2, then g(G ⊙ H) = n1·g(H)."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(is_diameter_two(H), R_DIAM_NE_2)
    prod, _ = _build_corona(G, H)
    g_prod = geodetic_number(prod, cap=cap)
    g_h = geodetic_number(H, cap=cap)
    computed = {"g_product": g_prod.value, "g_h": g_h.value, "expected": G.n * g_h.value}
    return g_prod.value == G.n * g_h.value, computed, [g_prod.witness], None


@claim("PENDANT_COROLLARY", "pendant")
def check_pendant_corollary(G: Graph, H: Graph, k: int, cap: int = DEFAULT_CAP) -> Outcome:
    """g(G ⊙ (H ⊙ N_k)) = n1·n2·k for connected G, H and k >= 2; the pendants
    of H ⊙ N_k form both a geodetic and a 2-geodetic minimum set."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(is_connected(H), R_H_DISCONNECTED)
    _need(k >= 2, R_K_LT_2)
    hnk, _ = _build_corona(H, empty(k))
    prod, _ = _build_corona(G, hnk)
    g_prod = geodetic_number(prod, cap=cap)
    g_hnk = geodetic_number(hnk, cap=cap)
    g2_hnk = k_geodetic_number(hnk, 2, cap=cap)
    expected = G.n * H.n * k
    pendants = H.n * k
    computed = {
        "g_product": g_prod.value,
        "expected": expected,
        "g_hnk": g_hnk.value,
        "g2_hnk": -1 if g2_hnk.value is None else g2_hnk.value,
        "pendants": pendants,
        "n1_is_1": int(G.n == 1),
    }
    ok = g_prod.value == expected and g_hnk.value == pendants and g2_hnk.value == pendants
    return ok, computed, [g_prod.witness], None


@claim("GEO_LOWER_MINUS1", "pair")
def check_geo_lower_minus1(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """If g(H) != g2(H), then g(G ⊙ H) >= n1·(g(H) - 1); H connected non-complete."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(is_connected(H), R_H_DISCONNECTED)
    _need(not is_complete(H), R_H_COMPLETE)
    g_h = geodetic_number(H, cap=cap)
    g2_h = k_geodetic_number(H, 2, cap=cap)
    _need(g2_h.value is None or g_h.value != g2_h.value, R_G_EQ_G2)
    prod, _ = _build_corona(G, H)
    g_prod = geodetic_number(prod, cap=cap)
    bound = G.n * (g_h.value - 1)
    computed = {
        "g_product": g_prod.value,
        "g_h": g_h.value,
        "g2_h": -1 if g2_h.value is None else g2_h.value,
        "bound": bound,
    }
    return g_prod.value >= bound, computed, [g_prod.witness], None


# ---------------------------------------------------------------------------
# Steiner checkers.


@claim("STEINER_KN", "single")
def check_steiner_kn(G: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """s(G) = n exactly when G is complete."""
    _need(is_connected(G), R_G_DISCONNECTED)
    r = steiner_number(G, cap=cap)
    comp = is_complete(G)
    computed = {"s": r.value, "n": G.n, "complete": int(comp)}
    return (r.value == G.n) == comp, computed, [r.witness], None


def _separates(prod: Graph, terminals: Mask, v: int) -> bool:
    """Whether deleting vertex v leaves some terminal out of the lowest
    terminal's component, which puts v on every tree spanning the set."""
    start_vertex = (terminals & -terminals).bit_length() - 1
    reach = reachable_set(prod, start_vertex, within=prod.full_mask & ~(1 << v))
    return terminals & ~reach != 0


@claim("STEINER_CORONA_STRUCT", "pair")
def check_corona_structure_steiner(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """Structural facts about Steiner sets of G ⊙ H:
    (i) for n1 >= 2, terminal sets inside the copies meeting every copy force
        every base vertex onto every minimum tree,
    (ii) the minimum witness meets every copy,
    (iii) it avoids the base vertices (n1 >= 2, or n1 = 1 with H non-complete).
    Part (i) is a cut test: copy i meets the rest of G ⊙ H only at base vertex
    i, and deleting it must separate the terminals (no Steiner DP, no cap).
    The witness comes from an unrestricted search of the whole product, so
    part (iii) tests it rather than following from the search.
    """
    _need(is_connected(G), R_G_DISCONNECTED)
    prod, layout = _build_corona(G, H)
    r = steiner_number(prod, cap=cap)

    U = mask_of(r.witness)
    parts = {"part_ii": all(U & layout.copy_mask(i) for i in range(layout.n1))}
    if G.n >= 2:
        candidates = {layout.copies_mask}
        if U & layout.g_mask == 0 and parts["part_ii"]:
            candidates.add(U)
        parts["part_i"] = all(_separates(prod, A, v)
                              for A in candidates for v in range(layout.n1))
    if G.n >= 2 or not is_complete(H):
        parts["part_iii"] = U & layout.g_mask == 0
    computed = {"s_product": r.value, **{p: int(v) for p, v in parts.items()}}
    skipped = [p for p in ("part_i", "part_iii") if p not in parts]
    reason = f"skipped-parts:{','.join(skipped)}" if skipped else None
    return all(parts.values()), computed, [r.witness], reason


@claim("STEINER_K1_LB", "single")
def check_steiner_k1_lb(G: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """s(K1 ⊙ G) >= s(G) for connected G."""
    _need(is_connected(G), R_G_DISCONNECTED)
    s_g = steiner_number(G, cap=cap)
    s_k1 = steiner_number(_k1_corona(G), cap=cap)
    computed = {"s_g": s_g.value, "s_k1_g": s_k1.value}
    return s_k1.value >= s_g.value, computed, [s_k1.witness], None


@claim("STEINER_CORONA_EQ", "pair")
def check_steiner_corona_eq(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """s(G ⊙ H) = n1·n2 for connected G of order >= 2 and arbitrary H, by an
    unrestricted search of the product."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(G.n >= 2, R_N1_LT_2)
    prod, _ = _build_corona(G, H)
    r = steiner_number(prod, cap=cap)
    expected = G.n * H.n
    computed = {"s_product": r.value, "expected": expected}
    return r.value == expected, computed, [r.witness], None


@claim("WHEEL_STEINER", "range", family=(cycle, 3))
def check_wheel_steiner(n: int, cap: int = DEFAULT_CAP) -> Outcome:
    """s(wheel with rim n) = n - 2 for n >= 4."""
    _need(n >= 4, R_N_BELOW_MIN)
    r = steiner_number(wheel(n), cap=cap)
    computed = {"s": r.value, "expected": n - 2}
    return r.value == n - 2, computed, [r.witness], None


@claim("FAN_STEINER", "range", family=(path, 2))
def check_fan_steiner(n: int, cap: int = DEFAULT_CAP) -> Outcome:
    """s(fan over a path of n) = n - 1 for n >= 3.

    Both s and g of the fan are computed and reported: the claim names the
    formula n - 1, and the report records which invariant actually matches.
    """
    _need(n >= 3, R_N_BELOW_MIN)
    f = fan(n)
    rs = steiner_number(f, cap=cap)
    rg = geodetic_number(f, cap=cap)
    formula = n - 1
    s_matches = rs.value == formula
    g_matches = rg.value == formula
    computed = {
        "s_fan": rs.value,
        "g_fan": rg.value,
        "formula": formula,
        "s_matches": int(s_matches),
        "g_matches": int(g_matches),
    }
    reason = "g-matches-formula-instead" if g_matches and not s_matches else None
    return s_matches, computed, [rs.witness], reason


@claim("STEINER_K1_IFF_DIAM2", "single")
def check_steiner_k1_iff_diam2(H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """Checks s(K1 ⊙ H) = s(H) exactly when H has diameter 2, for connected
    non-complete H.  The claim is false: ``EyUG`` and ``EyuG`` have diameter 2,
    s(H) = 3 and s(K1 ⊙ H) = 4."""
    _need(is_connected(H), R_H_DISCONNECTED)
    _need(not is_complete(H), R_H_COMPLETE)
    s_h = steiner_number(H, cap=cap)
    s_k1 = steiner_number(_k1_corona(H), cap=cap)
    diam = diameter(H)
    left = s_k1.value == s_h.value
    right = diam == 2
    computed = {
        "s_h": s_h.value,
        "s_k1_h": s_k1.value,
        "diameter": diam,
        "left": int(left),
        "right": int(right),
    }
    return left == right, computed, None, None


# ---------------------------------------------------------------------------
# Geodetic-vs-Steiner checkers.


@claim("DIAM2_STEINER_GEODETIC", "single")
def check_diam2_steiner_geodetic(G: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """Checks that on diameter-2 graphs every Steiner set is geodetic, at
    every order within the cap.

    ``steiner_sets`` and ``geodetic_sets`` hold one bit per vertex set, so
    the Steiner sets that are not geodetic are the bits of one AND NOT.  The
    offender is the lowest of them, the first in increasing mask order, and
    ``steiner_sets_checked`` counts the Steiner sets up to and including it
    (all of them when there is none).  s and its witness are
    ``subsets.first_set`` of the Steiner sets, and g is the least size in
    ``geodetic_sets``.
    ``tier_a`` is always 1.  The claim is false.  The census up to order 6
    has no counterexample; the smallest are the 13 graphs of order 7 that
    fail ``DIAM2_G_LE_S``, ``FhayG`` first, each with s = 3 < g = 4.  In
    ``Gvxi]?`` (order 8) the set {2, 6, 7} is a Steiner set but not a
    geodetic set, and so are {1, 3, 6, 8} in ``Ithp^a?Zw`` (order 10) and
    {2, 3, 6, 7, 8} in ``K~Pc[LGeEZsh`` (order 12).
    """
    _need(is_diameter_two(G), R_DIAM_NE_2)
    geo = geodetic_sets(G, cap=cap)
    steiner = steiner_sets(G, cap=cap)
    least = first_set(steiner, G.n)
    bad = steiner & ~geo
    first = bad & -bad  # 0 when every Steiner set is geodetic
    computed = {
        "g": least_size(geo, G.n),
        "s": least.bit_count(),
        "tier_a": 1,
        "steiner_sets_checked": (steiner & ((first << 1) - 1)).bit_count(),
        "min_steiner_witness_geodetic": geo >> least & 1,
    }
    ok = not bad  # the least Steiner set is then geodetic, so g <= s and its bit follow
    witness = [vertex_tuple(first.bit_length() - 1 if bad else least)]
    return ok, computed, witness, None


@claim("DIAM2_G_LE_S", "single")
def check_diam2_g_le_s(G: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """Checks g(G) <= s(G) on diameter-2 graphs.  The claim is false:
    ``FhayG`` has g = 4 > s = 3, one of 13 failing census graphs of order 7."""
    _need(is_diameter_two(G), R_DIAM_NE_2)
    rg = geodetic_number(G, cap=cap)
    rs = steiner_number(G, cap=cap)
    computed = {"g": rg.value, "s": rs.value}
    return rg.value <= rs.value, computed, [rg.witness, rs.witness], None


@claim("CORONA_G_LE_S", "pair")
def check_corona_g_le_s(G: Graph, H: Graph, cap: int = DEFAULT_CAP) -> Outcome:
    """g(G ⊙ H) <= s(G ⊙ H) for connected G of order >= 2 and non-complete H,
    replaying the chain g = n1·g(K1⊙H) <= n1·s(K1⊙H) <= n1·n2 = s."""
    _need(is_connected(G), R_G_DISCONNECTED)
    _need(G.n >= 2, R_N1_LT_2)
    _need(not is_complete(H), R_H_COMPLETE)
    prod, _ = _build_corona(G, H)
    g_prod = geodetic_number(prod, cap=cap)
    s_prod = steiner_number(prod, cap=cap)
    k1h = _k1_corona(H)
    g_k1h = geodetic_number(k1h, cap=cap)
    s_k1h = steiner_number(k1h, cap=cap)
    sub1 = g_prod.value == G.n * g_k1h.value
    sub2 = g_k1h.value <= s_k1h.value
    sub3 = s_k1h.value <= H.n
    sub4 = s_prod.value == G.n * H.n
    main = g_prod.value <= s_prod.value
    computed = {
        "g_product": g_prod.value,
        "s_product": s_prod.value,
        "g_k1_h": g_k1h.value,
        "s_k1_h": s_k1h.value,
        "chain_g_eq": int(sub1),
        "chain_g_le_s_k1": int(sub2),
        "chain_s_k1_le_n2": int(sub3),
        "chain_s_eq": int(sub4),
    }
    ok = main and sub1 and sub2 and sub3 and sub4
    return ok, computed, [g_prod.witness, s_prod.witness], None


# ---------------------------------------------------------------------------
# Corpus runner.


THEOREM_IDS = tuple(sorted(THEOREMS))


def _execute(item: tuple) -> VerificationReport:
    """Checks one item, then frees the tables its graphs built: a corpus
    run holds every item until the last report."""
    theorem, args, cap = item
    for a in args:
        if isinstance(a, CorpusEntry):
            return VerificationReport(theorem, {"g6": [], "params": {"source": a.source}}, {},
                                      SKIPPED, reason=f"{R_PARSE}: {a.error}")
    report = THEOREMS[theorem].checker(*args, cap)
    for a in args:
        if isinstance(a, Graph):
            a.drop_tables()
    return report


def build_items(
    theorem: str,
    *,
    corpus: CorpusSpec | None = None,
    corpus_h: CorpusSpec | None = None,
    n_range: tuple[int, int] | None = None,
    k: int | None = None,
    cap: int = DEFAULT_CAP,
) -> list[tuple]:
    """Materialize the work items for a corpus run, in canonical order: the
    product of the kind's argument axes, the first axis outermost."""
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem id {theorem!r}")
    given = {"corpus": corpus, "corpus_h": corpus_h, "n_range": n_range, "k": k}
    names = [name for name, _, _ in KINDS[THEOREMS[theorem].kind]]
    missing = [name for name in names if given[name] is None]
    if missing:
        raise DomainError(f"{theorem} needs {', '.join(missing)}")
    # each bound counts the largest graph built: K1 ⊙ rim(n) has n + 1 vertices
    if "n_range" in names and n_range[1] + (THEOREMS[theorem].kind == "range") > MAX_VERTICES:
        raise DomainError(f"{theorem} range ends at {n_range[1]}; its graphs exceed {MAX_VERTICES} vertices")
    if "n_range" in names and n_range[0] < 0:
        raise DomainError(f"{theorem} range starts at {n_range[0]}; a range starts at 0 or above")
    if "k" in names and k > MAX_VERTICES:
        raise DomainError(f"{theorem} k = {k} is above the {MAX_VERTICES}-vertex limit")
    axes = {
        "corpus": lambda: corpus.load(),
        "corpus_h": lambda: corpus_h.load(),
        "n_range": lambda: range(n_range[0], n_range[1] + 1),
        "k": lambda: (k,),
    }
    return [(theorem, args, cap) for args in itertools.product(*(axes[name]() for name in names))]


def get_context():
    """``multiprocessing.get_context()``, imported only when a pool starts."""
    import multiprocessing

    return multiprocessing.get_context()


def run_corpus(theorem: str, *, parallel: int = 1, **axes) -> Generator[VerificationReport, None, None]:
    """Run one checker over a corpus, yielding each report in canonical
    instance order as soon as its item is checked.

    ``axes`` are ``build_items``' keywords.  The arguments are checked and
    the items built at the call, so a bad argument raises before any
    report.  ``parallel`` must be at least 1; the pool never has more
    workers than CPUs or work items, and takes the items in chunks of
    ceil(items / (4 * workers)), ``Pool.map``'s default.  Closing the
    generator early terminates the pool."""
    if parallel < 1:
        raise DomainError(f"parallel worker count must be at least 1, got {parallel}")
    items = build_items(theorem, **axes)
    return _reports(items, min(parallel, os.cpu_count() or 1, len(items)))


def _reports(items: list[tuple], workers: int) -> Generator[VerificationReport, None, None]:
    if workers > 1:
        with get_context().Pool(workers) as pool:
            yield from pool.imap(_execute, items, math.ceil(len(items) / (4 * workers)))
    else:
        for item in items:
            yield _execute(item)
