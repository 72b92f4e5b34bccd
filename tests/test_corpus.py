import os
import random

import pytest

from coronageo import corpus
from coronageo.corpus import (
    CENSUS_COUNTS,
    CorpusEntry,
    CorpusSpec,
    census_graphs,
    census_lines,
    parse_range,
    random_connected_graph,
)
from coronageo.errors import DomainError
from coronageo.formats import encode_graph6
from coronageo.graphs import is_connected, path


def test_census_counts_match_published_numbers():
    for order, count in CENSUS_COUNTS.items():
        assert len(census_lines(order)) == count


def test_census_graphs_are_connected_and_roundtrip():
    for order in range(1, 8):
        lines = census_lines(order)
        graphs = census_graphs(order)
        assert len(set(lines)) == len(lines)
        for line, g in zip(lines, graphs):
            assert g.n == order
            assert is_connected(g)
            assert encode_graph6(g) == line


def test_census_rejects_unavailable_orders():
    with pytest.raises(DomainError):
        census_lines(8)


def test_census_env_override(tmp_path, monkeypatch):
    target = tmp_path / "graph2c.g6"
    target.write_text("A_\n")
    monkeypatch.setenv("CORONA_CENSUS_DIR", str(tmp_path))
    assert census_lines(2) == ["A_"]
    monkeypatch.setenv("CORONA_CENSUS_DIR", str(tmp_path / "missing"))
    with pytest.raises(DomainError):
        census_lines(2)


@pytest.mark.parametrize("order", range(1, 8))
def test_census_dir_set_to_the_bundled_data_reads_the_same_lines(order, monkeypatch):
    monkeypatch.delenv("CORONA_CENSUS_DIR", raising=False)
    bundled = census_lines(order)
    data = os.path.join(os.path.dirname(corpus.__file__), "data")
    for override in (data, data + os.sep):
        monkeypatch.setenv("CORONA_CENSUS_DIR", override)
        assert census_lines(order) == bundled


def test_census_missing_file_names_the_joined_path(tmp_path, monkeypatch):
    for override in (str(tmp_path), str(tmp_path) + os.sep):
        monkeypatch.setenv("CORONA_CENSUS_DIR", override)
        with pytest.raises(DomainError) as err:
            census_lines(3)
        assert str(err.value) == f"census file not found: {tmp_path / 'graph3c.g6'}"


def test_parse_range():
    assert parse_range("4..10") == (4, 10)
    assert parse_range("5") == (5, 5)
    with pytest.raises(DomainError):
        parse_range("7..3")
    with pytest.raises(DomainError):
        parse_range("a..b")


def test_corpus_spec_parsing():
    assert CorpusSpec.parse("all-connected:2..4") == CorpusSpec.exhaustive(2, 4)
    assert CorpusSpec.parse("path:2..5") == CorpusSpec.from_family("path", 2, 5)
    assert CorpusSpec.parse("file:/tmp/x.g6") == CorpusSpec.from_file("/tmp/x.g6")
    with pytest.raises(DomainError):
        CorpusSpec.parse("nonsense")
    with pytest.raises(DomainError):
        CorpusSpec.parse("unknown-family:1..2")


def test_exhaustive_corpus_concatenates_orders():
    graphs = CorpusSpec.exhaustive(1, 3).load()
    assert [g.n for g in graphs] == [1, 2, 3, 3]


def test_family_corpus():
    graphs = CorpusSpec.from_family("path", 2, 4).load()
    assert graphs == [path(2), path(3), path(4)]


def test_file_corpus_reports_bad_lines_in_place(tmp_path):
    target = tmp_path / "mixed.g6"
    target.write_text("A_\n~zzz\nBw\n")
    loaded = CorpusSpec.from_file(str(target)).load()
    assert len(loaded) == 3
    assert loaded[0].n == 2
    assert isinstance(loaded[1], CorpusEntry)
    assert "2" in loaded[1].source
    assert loaded[2].n == 3


def test_random_corpus_is_reproducible():
    a = CorpusSpec.random(8, 0.4, 5, seed=17).load()
    b = CorpusSpec.random(8, 0.4, 5, seed=17).load()
    c = CorpusSpec.random(8, 0.4, 5, seed=18).load()
    assert a == b
    assert a != c
    assert all(is_connected(g) for g in a)


def test_random_corpus_needs_seed():
    with pytest.raises(DomainError):
        CorpusSpec(kind="random", order=5, p=0.5, count=1, seed=None).load()


def test_random_corpus_rejects_an_order_above_the_limit():
    """The order is refused when the spec is made, before any pair is sampled."""
    with pytest.raises(DomainError, match="^graph order must be in 1..62, got 1000000000$"):
        CorpusSpec.random(10**9, 0.5, 1, 1)
    assert CorpusSpec.random(62, 0.5, 1, 1).order == 62


def test_random_connected_graph_rejects_bad_parameters():
    rng = random.Random(1)
    with pytest.raises(DomainError):
        random_connected_graph(0, 0.5, rng)
    with pytest.raises(DomainError):
        random_connected_graph(3, 1.5, rng)
    with pytest.raises(DomainError, match=r"^no connected G\(4, 0\.0\) sample in 10000 attempts$"):
        random_connected_graph(4, 0.0, rng)
