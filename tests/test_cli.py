import json

from coronageo.formats import encode_graph6, parse_edge_list, parse_graph6
from coronageo.graphs import complete, corona, cycle


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


def test_compute_cap_exit_code(run_cli):
    res = run_cli("compute", "--g6", wheel_code(10), "--measure", "g", "--max-n", "5")
    assert res.returncode == 3


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


def test_verify_unknown_theorem_exits_2(run_cli):
    assert run_cli("verify", "--theorem", "BOGUS").returncode == 2


def test_verify_missing_corpus_exits_2(run_cli):
    assert run_cli("verify", "--theorem", "GEO_CORONA_EQ").returncode == 2
    assert run_cli("verify", "--theorem", "WHEEL_GEO").returncode == 2


def test_verify_random_requires_seed(run_cli):
    res = run_cli("verify", "--theorem", "DIAM2_G_LE_S", "--random", "n=6,p=0.5,count=2")
    assert res.returncode == 2


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
