"""Named mutants of the library, each with the tests that must catch it.

    python scripts/mutants.py          # run every mutant
    python scripts/mutants.py NAME...  # run the named mutants only

For each mutant, one at a time, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, replaces the mutant's text,
which must occur exactly once in its file, and runs the mutant's tests
there in one pytest subprocess.  The mutant is killed when every one of
its tests fails, and survives otherwise, also when its tests run past
``TIMEOUT_S``.  The checkout is never edited.
The script prints one line per mutant and exits 1 if any survives (2 on a
name it does not know or a text it cannot place).

``tests/test_mutants.py`` checks, without running a mutant, that every
text still occurs exactly once and every test still exists, so an edit
that moves a mutant's text shows up in the suite, not in a silent
survivor.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per mutant; each takes a few seconds at most

Mutant = namedtuple("Mutant", "name file text replacement tests")

MUTANTS = (
    Mutant(
        "block-pick-keyed-without-forced",
        "src/coronageo/geodesic.py",
        "@lru_cache(maxsize=_BLOCK_PICK_CACHE_SIZE)\ndef _block_pick(rows: tuple[Mask, ...], forced: Mask) -> Mask:",
        "def _block_pick(rows, forced, _picks={}):\n"
        "    return _picks.setdefault(rows, _pick(rows, forced))\n\n\n"
        "_block_pick.cache_clear = lambda: None\n\n\n"
        "def _pick(rows: tuple[Mask, ...], forced: Mask) -> Mask:",
        ("tests/test_geodesic.py::test_block_picks_are_keyed_by_the_forced_vertices_too",
         "tests/test_geodesic.py::test_block_search_matches_flat_search_on_census"),
    ),
    Mutant(
        "geodetic-number-drops-the-last-block",
        "src/coronageo/geodesic.py",
        "    for b in parts:\n        free = b & ~(cut | ext)",
        "    for b in parts[:-1]:\n        free = b & ~(cut | ext)",
        ("tests/test_geodesic.py::test_corona_products_by_their_families",
         "tests/test_geodesic.py::test_block_search_matches_flat_search_on_census"),
    ),
    Mutant(
        "one-pass-table-unites-the-first-predecessor-only",
        "src/coronageo/graphs.py",
        "                pred = adj[v] & frontier\n",
        "                pred = adj[v] & frontier\n                pred &= -pred\n",
        ("tests/test_graphs.py::test_one_pass_tables_match_the_layer_formula_on_the_census",
         "tests/test_cli.py::test_compute_interval_replays_its_record"),
    ),
    Mutant(
        "is-connected-trusts-the-distance-rows",
        "src/coronageo/graphs.py",
        "        return G.n not in D[0]\n",
        "        return True\n",
        ("tests/test_geodesic.py::test_search_errors_come_connected_then_k_then_cap",
         "tests/test_steiner.py::test_disconnected_graph_with_built_tables_is_refused"),
    ),
    Mutant(
        "is-diameter-two-without-is-complete",
        "src/coronageo/graphs.py",
        "    if is_complete(G):\n        return False\n    adj, full = G.adj, G.full_mask\n",
        "    adj, full = G.adj, G.full_mask\n",
        ("tests/test_graphs.py::test_is_diameter_two_agrees_with_diameter_on_the_census",),
    ),
    Mutant(
        "is-diameter-two-closed-neighbourhoods-only",
        "src/coronageo/graphs.py",
        "        for u in vertex_tuple(nb):\n            ball |= adj[u]\n",
        "",
        ("tests/test_graphs.py::test_is_diameter_two_agrees_with_diameter_on_the_census",),
    ),
    Mutant(
        "claim-without-its-cap-clause",
        "src/coronageo/harness.py",
        "            except CapExceeded as exc:\n"
        "                verdict, computed, witness, reason = SKIPPED, {}, None, f\"{R_CAP}: {exc}\"\n",
        "",
        ("tests/test_harness.py::test_caps_propagate_to_skips",),
    ),
    Mutant(
        "run-corpus-without-its-cpu-clamp",
        "src/coronageo/harness.py",
        "min(parallel, os.cpu_count() or 1, len(items))",
        "min(parallel, len(items))",
        ("tests/test_harness.py::test_run_corpus_pool_size_is_bounded[100000-2-expected0]",),
    ),
    Mutant(
        "run-corpus-without-its-parallel-check",
        "src/coronageo/harness.py",
        "    if parallel < 1:\n",
        "    if parallel < 0:\n",
        ("tests/test_harness.py::test_run_corpus_rejects_parallel_below_one[0]",
         "tests/test_cli.py::test_verify_parallel_below_one_exits_2"),
    ),
    Mutant(
        "criterion-8-passes-eyug",
        "src/coronageo/harness.py",
        "    right = diam == 2\n",
        "    right = diam == 2 and encode_graph6(H) != \"EyUG\"\n",
        ("tests/test_acceptance.py::test_criterion_08_steiner_k1_biconditional",),
    ),
    Mutant(
        "build-items-without-its-start-bound",
        "src/coronageo/harness.py",
        "    if \"n_range\" in names and n_range[0] < 0:\n",
        "    if \"n_range\" in names and n_range[0] < -1:\n",
        ("tests/test_harness.py::test_build_items_refuses_a_range_that_starts_below_0[WHEEL_GEO-None]",),
    ),
    Mutant(
        "from-edge-list-sets-one-row-per-edge",
        "src/coronageo/graphs.py",
        "        rows[u] |= 1 << v\n        rows[v] |= 1 << u\n",
        "        rows[u] |= 1 << v\n",
        ("tests/test_graphs.py::test_from_edge_list_passes_the_graph_check_hypothesis",
         "tests/test_graphs.py::test_generators_pass_the_graph_check_over_their_whole_range[path]"),
    ),
    Mutant(
        "search-result-ranked-without-forced",
        "src/coronageo/subsets.py",
        "candidate_rank(witness, universe, forced))",
        "candidate_rank(witness, universe))",
        ("tests/test_geodesic.py::test_block_search_matches_flat_search_on_census",),
    ),
    Mutant(
        "geodetic-families-without-the-ceiling",
        "src/coronageo/geodesic.py",
        "    if G.n > (cap := min(cap, FAMILY_MAX_ORDER)):\n",
        "    if G.n > cap:\n",
        ("tests/test_geodesic.py::test_geodetic_sets_stop_at_order_24_whatever_the_cap",),
    ),
    Mutant(
        "compute-interval-without-its-component-test",
        "src/coronageo/cli.py",
        "        if g.distances[u][v] == g.n:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_compute_interval_replays_its_record",
         "tests/test_geodesic.py::test_interval_cross_component_is_domain_error"),
    ),
    Mutant(
        "pair-takes-h-only-from-family-h",
        "src/coronageo/harness.py",
        '    "pair": (("corpus", "n1", ("family_g",)), ("corpus_h", "n2", ("family_h", "random"))),\n',
        '    "pair": (("corpus", "n1", ("family_g",)), ("corpus_h", "n2", ("family_h",))),\n',
        ("tests/test_cli.py::test_verify_flag_routes_give_the_same_reports[pair-h-from-random]",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Edit the mutant into the copy at ``root``; ``ValueError`` unless its
    text occurs exactly once."""
    path = root / mutant.file
    source = path.read_text(encoding="utf-8")
    if (count := source.count(mutant.text)) != 1:
        raise ValueError(f"{mutant.name}: its text occurs {count} times in {mutant.file}")
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")


def failed_tests(output: str) -> set[str]:
    """The node ids of pytest's ``-rf`` summary lines."""
    return {line[len("FAILED "):].split(" - ")[0]
            for line in output.splitlines() if line.startswith("FAILED ")}


def run(mutant: Mutant) -> bool:
    """True when every test of the mutant fails on it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        # wide enough that no summary line is cut short
        env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="10000")
        env.pop("CORONA_CENSUS_DIR", None)
        try:
            res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                                  *mutant.tests], cwd=root, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False  # a mutant that hangs its tests is not caught by them
    return failed_tests(res.stdout) >= set(mutant.tests)


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    if unknown := [a for a in argv if a not in by_name]:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(by_name)}", file=sys.stderr)
        return 2
    survived = 0
    start = time.perf_counter()
    for mutant in [by_name[a] for a in argv] or MUTANTS:
        t0 = time.perf_counter()
        try:
            killed = run(mutant)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED':<8} {mutant.name} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
    print(f"{survived} of {len(argv) or len(MUTANTS)} survived in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
