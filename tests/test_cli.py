import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coronageo import cli, graphs
from coronageo.corpus import CorpusSpec, census_lines
from coronageo.formats import encode_graph6, parse_edge_list, parse_graph6
from coronageo.geodesic import geodetic_number, k_geodetic_number
from coronageo.graphs import complete, corona, cycle, mask_of, path, vertex_tuple
from coronageo.harness import THEOREM_IDS
from coronageo.steiner import steiner_number

from oracles import steiner_hull_by_dp


def wheel_code(n: int) -> str:
    return encode_graph6(corona(complete(1), cycle(n))[0])


def test_compute_geodetic_number_of_wheel(run_cli):
    res = run_cli("compute", "--g6", wheel_code(6), "--measure", "g")
    assert res.returncode == 0
    assert "g = 3" in res.stdout


def test_compute_g2_from_edge_list_file(run_cli, tmp_path):
    target = tmp_path / "path4.txt"
    target.write_text("4 3\n0 1\n1 2\n2 3\n")
    res = run_cli("compute", "--edges", str(target), "--measure", "g2")
    assert res.returncode == 0
    assert "g2 = 3" in res.stdout


def test_compute_g6_file_with_multiple_graphs(run_cli, tmp_path):
    target = tmp_path / "batch.g6"
    target.write_text("A_\nBw\n")
    res = run_cli("compute", "--g6-file", str(target), "--measure", "g", "--json")
    assert res.returncode == 0
    rows = [json.loads(ln) for ln in res.stdout.splitlines()]
    assert [(r["g6"], r["value"]) for r in rows] == [("A_", 2), ("Bw", 3)]


def test_compute_g6_file_parse_error_names_the_line(run_cli, tmp_path):
    target = tmp_path / "batch.g6"
    target.write_text("A_\n~bad\n")
    res = run_cli("compute", "--g6-file", str(target), "--measure", "g")
    assert res.returncode == 2
    assert "line 2" in res.stderr
    assert "Traceback" not in res.stderr


def test_compute_steiner_number_of_k4(run_cli):
    res = run_cli("compute", "--g6", encode_graph6(complete(4)), "--measure", "s")
    assert res.returncode == 0
    assert "s = 4" in res.stdout


def test_compute_multiple_measures_json(run_cli):
    res = run_cli("compute", "--g6", wheel_code(4), "--measure", "g,s,diameter", "--json")
    assert res.returncode == 0
    lines = [json.loads(ln) for ln in res.stdout.splitlines()]
    by_measure = {ln["measure"]: ln for ln in lines}
    assert by_measure["g"]["value"] == 2
    assert by_measure["s"]["value"] == 2
    assert by_measure["diameter"]["value"] == 2


def test_compute_interval_and_hull_measures(run_cli):
    res = run_cli("compute", "--g6", encode_graph6(cycle(6)), "--measure",
                  "interval,steiner-distance,steiner-hull", "--vertices", "0,3")
    assert res.returncode == 0
    assert "interval = 6" in res.stdout
    assert "steiner-distance = 3" in res.stdout
    assert "steiner-hull = 6" in res.stdout


def test_compute_g2_unsatisfiable_output(run_cli):
    res = run_cli("compute", "--g6", encode_graph6(complete(3)), "--measure", "g2")
    assert res.returncode == 0
    assert "unsatisfiable" in res.stdout


def test_compute_usage_errors(run_cli):
    assert run_cli("compute", "--measure", "g").returncode == 2
    assert run_cli("compute", "--g6", "not-a-code!", "--measure", "g").returncode == 2
    assert run_cli("compute", "--g6", "A_", "--measure", "nope").returncode == 2
    assert run_cli("compute", "--g6", "A_", "--measure", "gk").returncode == 2


_C6 = encode_graph6(cycle(6))


@pytest.mark.parametrize("argv", [
    pytest.param(("compute", "--g6-file", "{dir}", "--measure", "g"), id="g6-file-dir"),
    pytest.param(("compute", "--edges", "{dir}", "--measure", "g"), id="edges-dir"),
    pytest.param(("corona", "--edges", "{dir}", "--g6-h", "@"), id="corona-edges-dir"),
    pytest.param(("verify", "--theorem", "GEO_KN", "--family-g", "file:{dir}"), id="file-corpus-dir"),
    pytest.param(("compute", "--g6-file", "{bin}", "--measure", "g"), id="g6-file-not-utf8"),
    pytest.param(("compute", "--edges", "{bin}", "--measure", "g"), id="edges-not-utf8"),
    pytest.param(("verify", "--theorem", "GEO_KN", "--family-g", "file:{bin}"),
                 id="file-corpus-not-utf8"),
    pytest.param(("compute", "--g6", _C6, "--measure", "steiner-distance", "--vertices", "0,-2"),
                 id="steiner-distance-negative-vertex"),
    pytest.param(("compute", "--g6", _C6, "--measure", "steiner-hull", "--vertices", "0,-2"),
                 id="steiner-hull-negative-vertex"),
    # a range is checked against the vertex limit before it is materialized
    pytest.param(("verify", "--theorem", "WHEEL_GEO", "--range", "3..100000000000"),
                 id="range-above-vertex-limit"),
    pytest.param(("verify", "--theorem", "CORONA_CYCLE_PATH", "--family-g", "path:2..3",
                  "--range", "1..63"), id="g_range-above-vertex-limit"),
    # K1 ⊙ rim(n) has n + 1 vertices, so the range ends at 61 at most
    pytest.param(("verify", "--theorem", "WHEEL_GEO", "--range", "60..62"),
                 id="range-instance-above-vertex-limit"),
    pytest.param(("verify", "--theorem", "PENDANT_COROLLARY", "--family-g", "path:1..1",
                  "--family-h", "path:1..1", "--k", "63"), id="k-above-vertex-limit"),
    pytest.param(("verify", "--theorem", "GEO_KN", "--random", "n=5,p=0.5,count=-1",
                  "--seed", "1"), id="random-count-negative"),
    pytest.param(("verify", "--theorem", "GEO_KN", "--random", "n=5,p=0.5,count=0",
                  "--seed", "1"), id="random-count-zero"),
    # a random corpus is built whole, so its count is bounded before any graph is drawn
    pytest.param(("verify", "--theorem", "GEO_KN", "--random", "n=5,p=0.5,count=100000000000",
                  "--seed", "1"), id="random-count-above-ceiling"),
])
def test_unreadable_input_exits_2_without_traceback(run_cli, tmp_path, argv):
    """Input the CLI cannot read or accept is a usage error (exit 2) with
    no output, not a crash."""
    not_utf8 = tmp_path / "latin1.g6"
    not_utf8.write_bytes(b"A_\n\xff\xfe\n")
    res = run_cli(*(a.format(dir=tmp_path, bin=not_utf8) for a in argv))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error: "), res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("measure", ["interval", "steiner-distance", "steiner-hull"])
def test_vertices_beyond_the_order_exit_2(run_cli, measure):
    """An index past the graph's order is rejected before a bitmask of that
    many bits is built."""
    res = run_cli("compute", "--g6", "EhEG", "--measure", measure, "--vertices", "0,80000000")
    assert res.returncode == 2, res.stderr
    assert "not in the graph" in res.stderr
    assert "Traceback" not in res.stderr


INTERVAL_RECORD = Path(__file__).resolve().parent / "golden" / "compute_interval_runs.json"


def _interval_runs() -> list[tuple[str, int, int]]:
    """(graph6, U, V) for every ordered vertex pair, U = V included, of every
    census graph of order <= 5, then of ``C?``, four isolated vertices,
    whose distinct pairs are all in different components."""
    codes = [code for order in range(1, 6) for code in census_lines(order)] + ["C?"]
    return [(code, u, v) for code in codes for n in [parse_graph6(code).n]
            for u in range(n) for v in range(n)]


def _cli_in_process(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_compute_interval_replays_its_record(monkeypatch):
    """``compute --json --measure interval`` on every run of ``_interval_runs``
    gives the exit code, stdout and stderr recorded in ``INTERVAL_RECORD``
    byte for byte.  The record was made with the interval computed from two
    distance rows, before ``compute`` read it off ``Graph.intervals``."""
    monkeypatch.delenv("CORONA_CENSUS_DIR", raising=False)
    got = [[code, u, v, *_cli_in_process("compute", "--g6", code, "--json", "--measure",
                                         "interval", "--vertices", f"{u},{v}")]
           for code, u, v in _interval_runs()]
    assert got == json.loads(INTERVAL_RECORD.read_text())
    assert [run[3] for run in got].count(2) == 12  # the distinct pairs of C?


def test_compute_cap_exit_code(run_cli):
    res = run_cli("compute", "--g6", wheel_code(10), "--measure", "g", "--max-n", "5")
    assert res.returncode == 3


_P8 = "GhCGGC"  # the path 0-1-...-7


def test_compute_terminal_cap_follows_max_n(run_cli):
    """The single-set measures are under the Steiner order cap, which
    --max-n sets like every other cap."""
    res = run_cli("compute", "--g6", _P8, "--measure", "steiner-distance",
                  "--vertices", "0,1,2,3,4,5", "--max-n", "5")
    assert res.returncode == 3
    assert res.stderr.strip() == "error: Steiner search capped at n <= 5, got 8"


def test_compute_steiner_hull_past_the_order_cap_needs_max_n(run_cli):
    p17 = path(17)
    argv = ("compute", "--g6", encode_graph6(p17), "--measure", "steiner-hull",
            "--vertices", "0,5,16", "--json")
    res = run_cli(*argv)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.strip() == "error: Steiner search capped at n <= 16, got 17"
    res = run_cli(*argv, "--max-n", "17")
    assert res.returncode == 0, res.stderr
    expected = vertex_tuple(steiner_hull_by_dp(p17, mask_of([0, 5, 16])))
    assert json.loads(res.stdout)["witness"] == list(expected) == list(range(17))


def test_compute_steiner_hull_and_distance_at_the_default_terminal_cap(run_cli):
    res = run_cli("compute", "--g6", _P8, "--measure", "steiner-hull,steiner-distance",
                  "--vertices", "0,2,7", "--json")
    assert res.returncode == 0
    by_measure = {r["measure"]: r for r in map(json.loads, res.stdout.splitlines())}
    assert by_measure["steiner-hull"]["value"] == 8
    assert by_measure["steiner-distance"]["value"] == 7


def test_corona_of_k1_and_c5_is_the_wheel(run_cli):
    res = run_cli("corona", "--g6", "@", "--g6-h", encode_graph6(cycle(5)))
    assert res.returncode == 0
    body, layout_line = res.stdout.rsplit("\n", 2)[0:2]
    prod = parse_edge_list(body + "\n")
    assert prod == corona(complete(1), cycle(5))[0]
    assert prod.n == 6
    layout = json.loads(layout_line)["layout"]
    assert layout["n1"] == 1 and layout["n2"] == 5


def test_corona_size_law_p2_k2(run_cli):
    res = run_cli("corona", "--g6", "A_", "--g6-h", "A_", "--format", "g6")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    prod = parse_graph6(lines[0])
    assert prod.n == 6 and prod.edge_count() == 7
    assert json.loads(lines[1])["layout"]["copies"] == [[2, 3], [4, 5]]


def test_corona_rejects_disconnected_first_factor(run_cli):
    res = run_cli("corona", "--g6", "A?", "--g6-h", "@")
    assert res.returncode == 2


def test_verify_steiner_corona_eq_family_grid(run_cli):
    res = run_cli("verify", "--theorem", "STEINER_CORONA_EQ",
                  "--family-g", "path:2..3", "--family-h", "all-connected:2..3")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary == {"pass": 6, "fail": 0, "skipped": 0}


def test_verify_wheel_geo_range(run_cli):
    res = run_cli("verify", "--theorem", "WHEEL_GEO", "--range", "4..10")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    reports = [json.loads(ln) for ln in lines[:-1]]
    assert len(reports) == 7
    assert all(r["verdict"] == "PASS" for r in reports)
    assert json.loads(lines[-1])["summary"]["pass"] == 7


def test_verify_steiner_above_order_24_is_skipped_whatever_the_cap(run_cli):
    # P4 ⊙ P7 has order 32: its geodetic number is found under --max-n 62,
    # and its Steiner number meets the order-24 ceiling before any table
    res = run_cli("verify", "--theorem", "CORONA_G_LE_S", "--family-g", "path:4..4",
                  "--family-h", "path:7..7", "--max-n", "62")
    assert res.returncode == 0 and res.stderr == ""
    report, summary = map(json.loads, res.stdout.splitlines())
    assert report["verdict"] == "SKIPPED"
    assert report["reason"] == "cap-exceeded: Steiner search capped at n <= 24, got 32"
    assert summary == {"summary": {"fail": 0, "pass": 0, "skipped": 1}}


def test_verify_unknown_theorem_exits_2(run_cli):
    res = run_cli("verify", "--theorem", "NOPE")
    assert res.returncode == 2
    assert res.stdout == ""
    message = " ".join(res.stderr.split())
    assert "argument --theorem: invalid choice: 'NOPE' (choose from " in message, res.stderr
    named = message.split("(choose from ", 1)[1].rstrip(")")
    assert [ident.strip("'") for ident in named.split(", ")] == list(THEOREM_IDS)


def test_verify_help_lists_every_theorem(run_cli):
    res = run_cli("verify", "--help")
    assert res.returncode == 0, res.stderr
    assert "one of: " + ", ".join(THEOREM_IDS) in " ".join(res.stdout.split())
    assert len(THEOREM_IDS) == 24


_RANDOM_H = ("--random", "n=4,p=0.5,count=1", "--seed", "1")


@pytest.mark.parametrize("theorem, flags, missing", [
    pytest.param("GEO_KN", (), "needs corpus", id="single-no-corpus"),
    pytest.param("GEO_KN", ("--family-g", "path:2..3", "--family-h", "path:2..3"),
                 "exactly one corpus", id="single-two-corpora"),
    pytest.param("GEO_KN", ("--family-g", "path:2..3", "--family-h", "path:2..3", *_RANDOM_H),
                 "exactly one corpus", id="single-three-corpora"),
    pytest.param("GEO_CORONA_EQ", (), "needs corpus, corpus_h", id="pair-no-corpus"),
    pytest.param("GEO_CORONA_EQ", ("--family-g", "path:2..3"), "needs corpus_h", id="pair-no-h"),
    pytest.param("GEO_CORONA_EQ", ("--family-g", "path:2..3", "--family-h", "path:2..3", *_RANDOM_H),
                 "exactly one corpus_h from --family-h, --random", id="pair-h-twice"),
    pytest.param("WHEEL_GEO", (), "needs n_range", id="range-no-range"),
    pytest.param("CORONA_CYCLE_PATH", ("--family-g", "path:2..3"), "needs n_range",
                 id="g_range-no-range"),
    pytest.param("PENDANT_COROLLARY", ("--family-g", "path:2..3", "--family-h", "path:2..3"),
                 "needs k", id="pendant-no-k"),
    # a flag the claim does not take is refused, not dropped
    pytest.param("GEO_KN", ("--family-g", "all-connected:1..3", "--range", "1..2"),
                 "does not take --range", id="single-takes-no-range"),
    pytest.param("GEO_BOUNDS", ("--family-g", "path:2..3", "--family-h", "path:2..3", "--k", "2"),
                 "does not take --k", id="pair-takes-no-k"),
    pytest.param("PENDANT_COROLLARY", ("--family-g", "path:2..3", "--family-h", "path:2..3",
                                       "--k", "2", "--range", "1..3"),
                 "does not take --range", id="pendant-takes-no-range"),
    pytest.param("WHEEL_GEO", ("--range", "3..5", "--family-g", "path:2..3"),
                 "does not take --family-g", id="range-takes-no-corpus"),
    pytest.param("CORONA_CYCLE_PATH", ("--family-g", "path:2..3", "--range", "1..2", *_RANDOM_H),
                 "does not take --random", id="g_range-takes-no-random"),
])
def test_verify_argument_errors_name_the_theorem(run_cli, theorem, flags, missing):
    """Every argument path of ``verify`` that lacks or doubles an argument
    exits 2 with a message naming the claim and what is wrong."""
    res = run_cli("verify", "--theorem", theorem, *flags)
    assert res.returncode == 2
    assert res.stdout == ""
    assert theorem in res.stderr and missing in res.stderr, res.stderr
    assert "Traceback" not in res.stderr


_RANDOM_H3 = ("--random", "n=4,p=0.5,count=3", "--seed", "1")


@pytest.mark.parametrize("theorem, flags, route, counterpart", [
    pytest.param("G2_EQUIV", (), ("--family-h", "all-connected:1..5"),
                 ("--family-g", "all-connected:1..5"), id="single-from-family-h"),
    pytest.param("GEO_CORONA_EQ", ("--family-g", "path:2..3"), _RANDOM_H3, ("--family-h", "FILE"),
                 id="pair-h-from-random"),
    pytest.param("PENDANT_COROLLARY", ("--family-g", "path:1..1", "--k", "2"), _RANDOM_H3,
                 ("--family-h", "FILE"), id="pendant-h-from-random"),
])
def test_verify_flag_routes_give_the_same_reports(tmp_path, theorem, flags, route, counterpart):
    """Each flag that may supply an argument feeds it: the same corpus through
    another of its flags prints the same stdout bytes.  ``FILE`` holds the
    graph6 codes of the ``--random`` corpus, in its order."""
    target = tmp_path / "random.g6"
    target.write_text("".join(encode_graph6(g) + "\n" for g in CorpusSpec.random(4, 0.5, 3, 1).load()))
    counterpart = tuple(f"file:{target}" if a == "FILE" else a for a in counterpart)
    rc, out, err = _cli_in_process("verify", "--theorem", theorem, *flags, *route)
    assert (rc, err) == (0, "") and out.count("\n") > 1
    assert _cli_in_process("verify", "--theorem", theorem, *flags, *counterpart) == (rc, out, err)


@pytest.mark.parametrize("theorem, flags", [("WHEEL_GEO", ()),
                                            ("CORONA_CYCLE_PATH", ("--family-g", "path:2..3"))])
def test_verify_range_starting_below_0_exits_2(run_cli, theorem, flags):
    """``--range=-1..3`` passes a negative start through argparse; it is
    refused before any output, with a message naming the claim and the start."""
    res = run_cli("verify", "--theorem", theorem, *flags, "--range=-1..3")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {theorem} range starts at -1; a range starts at 0 or above\n"


def test_verify_random_requires_seed(run_cli):
    res = run_cli("verify", "--theorem", "DIAM2_G_LE_S", "--random", "n=6,p=0.5,count=2")
    assert res.returncode == 2


@pytest.mark.parametrize("spec, entry", [
    pytest.param("n=6,p=0.5,count=2,seed=9", "'seed=9'", id="unknown-key"),
    pytest.param("n=6,n=7,p=0.5,count=2", "'n=7'", id="repeated-key"),
])
def test_verify_random_refuses_unknown_and_repeated_keys(run_cli, spec, entry):
    """A --random entry that is not n=, p= or count=, or repeats one, is
    named in the error, not dropped or overwritten."""
    res = run_cli("verify", "--theorem", "DIAM2_G_LE_S", "--random", spec, "--seed", "1")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: bad --random entry " + entry), res.stderr
    assert "Traceback" not in res.stderr


def test_verify_seed_requires_random(run_cli):
    res = run_cli("verify", "--theorem", "GEO_KN", "--family-g", "path:2..3", "--seed", "1")
    assert res.returncode == 2 and res.stdout == ""
    assert "--seed needs --random" in res.stderr


def test_verify_output_is_valid_json_lines(run_cli):
    res = run_cli("verify", "--theorem", "GEO_KN", "--family-g", "all-connected:1..4")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    for ln in lines[:-1]:
        payload = json.loads(ln)
        assert payload["verdict"] in ("PASS", "FAIL", "SKIPPED")
        assert "elapsed_ms" not in payload
    assert json.loads(lines[-1])["summary"]["pass"] == 10


def test_verify_timing_flag_adds_elapsed(run_cli):
    res = run_cli("verify", "--theorem", "WHEEL_GEO", "--range", "4..4", "--timing")
    assert res.returncode == 0
    assert "elapsed_ms" in res.stdout


def test_census_order_4_has_six_rows(run_cli):
    res = run_cli("census", "--order", "4")
    assert res.returncode == 0
    rows = res.stdout.splitlines()[1:]
    assert len(rows) == 6


def test_census_order_1_row(run_cli):
    res = run_cli("census", "--order", "1", "--json")
    assert res.returncode == 0
    row = json.loads(res.stdout.splitlines()[0])
    assert row["g"] == 1 and row["s"] == 1
    assert row["g2"] is None and row["diameter"] == 0


def test_census_diameter_two_rows_have_g_le_s(run_cli):
    res = run_cli("census", "--order", "5", "--json")
    assert res.returncode == 0
    for ln in res.stdout.splitlines():
        row = json.loads(ln)
        if row["diameter"] == 2:
            assert row["g_le_s"] is True


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["table", "json"])
def test_census_cap_error_prints_no_rows(run_cli, fmt):
    """Rows stream as they are computed, but every graph of an order has the
    same n, so a cap error fires on the first one: no header, no row."""
    res = run_cli("census", "--order", "7", "--max-n", "5", *fmt)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert res.stderr.strip() == "error: geodetic search capped at n <= 5, got 7"


def _census_rows(capsys, order):
    assert cli.main(["census", "--order", str(order), "--json"]) == 0
    return [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]


def test_census_values_match_the_searches(capsys):
    """census reads g and g2 off ``geodetic_sets`` and s off ``steiner_sets``;
    each row still holds the values of the three minimum-set searches."""
    checked = 0
    for order in range(1, 8):
        for row in _census_rows(capsys, order):
            g = parse_graph6(row["g6"])
            assert row["g"] == geodetic_number(g).value, row
            assert row["g2"] == k_geodetic_number(g, 2).value, row
            assert row["s"] == steiner_number(g).value, row
            checked += 1
    assert checked == 996


def test_census_runs_one_bfs_and_no_search_per_graph(capsys, monkeypatch):
    """Work guard: a census row builds the graph's distance table once, runs
    no reachability pass (every connectivity test reads the distance rows)
    and runs no minimum-set search."""
    calls = {"bfs": 0, "reach": 0, "search": 0}
    bfs, reach = graphs.bfs_distances, graphs.reachable_set

    def counted_bfs(G, **kwargs):
        calls["bfs"] += 1
        return bfs(G, **kwargs)

    def counted_reach(*args, **kwargs):
        calls["reach"] += 1
        return reach(*args, **kwargs)

    def search(*args, **kwargs):
        calls["search"] += 1
        raise AssertionError("census ran a minimum-set search")

    monkeypatch.setattr(graphs, "bfs_distances", counted_bfs)
    monkeypatch.setattr(graphs, "reachable_set", counted_reach)
    for name in ("geodetic_number", "k_geodetic_number", "steiner_number"):
        monkeypatch.setattr(cli, name, search)
    rows = _census_rows(capsys, 6)
    assert len(rows) == 112
    assert calls == {"bfs": 112, "reach": 0, "search": 0}


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_census_writes_rows_before_the_whole_order_is_parsed(capsys, monkeypatch, fmt):
    """Rows are written a chunk of ``_CENSUS_CHUNK`` graphs at a time: the
    first chunk's rows (after the table header) are out before the 17th
    graph is parsed."""
    assert cli._CENSUS_CHUNK == 16
    out, lines_at_parse = [], []
    parse = cli.parse_graph6

    def counted_parse(code):
        out.append(capsys.readouterr().out)
        lines_at_parse.append("".join(out).count("\n"))
        return parse(code)

    monkeypatch.setattr(cli, "parse_graph6", counted_parse)
    assert cli.main(["census", "--order", "6", *fmt]) == 0
    out.append(capsys.readouterr().out)
    header = 0 if fmt else 1
    assert "".join(out).count("\n") == 112 + header
    assert lines_at_parse[:17] == [0] * 16 + [16 + header]
    assert len(lines_at_parse) == 112


def test_census_and_compute_do_not_load_the_harness():
    """Only ``verify`` needs the claim registry, so the other commands never
    import ``coronageo.harness``."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from coronageo import cli\n"
        "assert cli.main(['census', '--order', '1', '--json']) == 0\n"
        "assert cli.main(['compute', '--g6', 'A_', '--measure', 'g']) == 0\n"
        "print('coronageo.harness' in sys.modules)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    res = subprocess.run([sys.executable, "-S", "-c", code, root],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False", res.stdout


def test_census_missing_order_exits_2(run_cli):
    assert run_cli("census", "--order", "9").returncode == 2


def test_census_env_override_missing_dir(run_cli, tmp_path, monkeypatch):
    monkeypatch.setenv("CORONA_CENSUS_DIR", str(tmp_path / "nowhere"))
    res = run_cli("census", "--order", "2")
    assert res.returncode == 2, res.stderr
    assert "census file not found" in res.stderr
    assert str(tmp_path / "nowhere" / "graph2c.g6") in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_exit_1_on_counterexample(run_cli, tmp_path):
    # "EyUG" breaks the s(K1⊙H) = s(H) <=> D(H) = 2 biconditional
    target = tmp_path / "counterexample.g6"
    target.write_text("EyUG\n")
    res = run_cli("verify", "--theorem", "STEINER_K1_IFF_DIAM2",
                  "--family-g", f"file:{target}")
    assert res.returncode == 1
    lines = [json.loads(ln) for ln in res.stdout.splitlines()]
    assert lines[0]["verdict"] == "FAIL"
    assert lines[0]["instance"]["g6"] == ["EyUG"]
    assert lines[-1]["summary"]["fail"] == 1


def test_verify_parallel_matches_sequential(run_cli):
    args = ("verify", "--theorem", "GEO_KN", "--family-g", "all-connected:1..4")
    seq = run_cli(*args)
    par = run_cli(*args, "--parallel", "3")
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout


def test_verify_parallel_below_one_exits_2(run_cli):
    for value in ("0", "-2"):
        r = run_cli("verify", "--theorem", "WHEEL_GEO", "--range", "4..6", "--parallel", value)
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"parallel worker count must be at least 1, got {value}" in r.stderr
        assert "Traceback" not in r.stderr
