"""The three fixed coronageo workloads: the CLI arguments each one runs, the
inputs it builds through the public API, and how its stdout is checked.

Only ``diam2-hull`` draws its corpus from the seed (see ``corpus_seed``);
the other two are fixed corpora, so every seed gives them the same inputs.
"""

from __future__ import annotations

import json

DEFAULT_SEED = 1

# reports (verify) or rows (census) each workload prints
EXPECTED_ITEMS = {"geo-pairs": 310, "census-7": 853, "diam2-hull": 40}

NAMES = tuple(EXPECTED_ITEMS)

_GEO_G = "all-connected:1..4"
_GEO_H = "all-connected:1..5"
_DIAM2 = {"n": 8, "p": 0.6, "count": 40}


# diam2-hull draws corpus seeds 1 to DRAWS, each once per cycle; a set runs
# whole cycles (see run.py)
DRAWS = 6
CYCLE = {"geo-pairs": 1, "census-7": 1, "diam2-hull": DRAWS}


def corpus_seed(seed: int, k: int) -> int:
    """Seed of the ``--random`` corpus for the k-th CLI run of a set.

    One draw of 40 graphs is not a steady unit of work: over corpus seeds 1
    to 10 the ``steiner_hull`` queries of ``diam2-hull`` ranged from 5,725 to
    7,341, and a set that drew its own corpora from the benchmark seed
    inherited that spread.  So every set runs the same ``DRAWS`` recorded
    corpora, each once per cycle, in an order that starts at the benchmark
    seed; as a set runs whole cycles, its median rests on the same draws
    however fast the program is.
    """
    return (seed - 1 + k) % DRAWS + 1


def theorem(name: str) -> str | None:
    return {"geo-pairs": "GEO_CORONA_EQ", "diam2-hull": "DIAM2_STEINER_GEODETIC"}.get(name)


def cli_argv(name: str, seed: int) -> list[str]:
    """Arguments after ``coronageo``; ``--parallel 1`` keeps one process."""
    if name == "geo-pairs":
        return ["verify", "--theorem", "GEO_CORONA_EQ", "--family-g", _GEO_G,
                "--family-h", _GEO_H, "--parallel", "1"]
    if name == "census-7":
        return ["census", "--order", "7", "--json"]
    if name == "diam2-hull":
        spec = ",".join(f"{k}={v}" for k, v in _DIAM2.items())
        return ["verify", "--theorem", "DIAM2_STEINER_GEODETIC", "--random", spec,
                "--seed", str(seed), "--parallel", "1"]
    raise ValueError(f"unknown workload {name!r}")


def build_inputs(name: str, seed: int) -> list:
    """The workload's inputs, built as the CLI builds them, before any search."""
    from coronageo import corpus, formats, harness

    if name == "geo-pairs":
        return harness.build_items(
            "GEO_CORONA_EQ",
            corpus=corpus.CorpusSpec.parse(_GEO_G),
            corpus_h=corpus.CorpusSpec.parse(_GEO_H),
        )
    if name == "census-7":
        return [formats.parse_graph6(code) for code in corpus.census_lines(7)]
    if name == "diam2-hull":
        spec = corpus.CorpusSpec.random(_DIAM2["n"], _DIAM2["p"], _DIAM2["count"], seed)
        return harness.build_items("DIAM2_STEINER_GEODETIC", corpus=spec)
    raise ValueError(f"unknown workload {name!r}")


def check_stdout(name: str, rc: int, out: bytes) -> str | None:
    """Seed-independent shape check of one run's stdout; None when it holds."""
    lines = out.decode().splitlines()
    want = EXPECTED_ITEMS[name]
    try:
        rows = [json.loads(ln) for ln in lines]
    except ValueError as exc:
        return f"stdout is not JSON Lines: {exc}"
    if name == "census-7":
        if rc != 0:
            return f"census exited {rc}"
        if len(rows) != want:
            return f"{len(rows)} census rows, expected {want}"
        keys = {"g6", "g", "g2", "s", "diameter", "g_le_s"}
        bad = [r for r in rows if set(r) != keys]
        return f"census row with keys {sorted(bad[0])}" if bad else None
    *reports, summary = rows or [{}]
    if len(reports) != want:
        return f"{len(reports)} reports, expected {want}"
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        if r.get("theorem") != theorem(name) or r.get("verdict", "").lower() not in counts:
            return f"unexpected report {r!r}"
        counts[r["verdict"].lower()] += 1
    if summary != {"summary": counts}:
        return f"summary {summary!r} does not match the reports {counts!r}"
    if rc != (1 if counts["fail"] else 0):
        return f"exit code {rc} with {counts['fail']} FAIL reports"
    return None
