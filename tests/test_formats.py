import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronageo.corpus import census_lines
from coronageo.errors import FormatError
from coronageo.formats import (
    encode_graph6,
    format_edge_list,
    jsonline,
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
)
from coronageo.graphs import (
    Graph,
    complete,
    cycle,
    empty,
    fan,
    from_edge_list,
    path,
    star,
    wheel,
)

from oracles import parse_graph6_by_pairs


def test_parse_d_brace_is_star_on_five():
    # hand-decoded: order byte 'D' = 5; '?{' unpacks to 0000001111, i.e. the
    # pairs (0,4), (1,4), (2,4), (3,4)
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_parse_a_underscore_is_k2():
    assert parse_graph6("A_") == complete(2)


def test_encode_k2():
    assert encode_graph6(complete(2)) == "A_"


def test_known_codes():
    # hand-derived from the bit layout
    assert encode_graph6(path(3)) == "Bg"
    assert encode_graph6(complete(3)) == "Bw"
    assert encode_graph6(cycle(4)) == "Cl"
    assert encode_graph6(complete(1)) == "@"


def test_parse_empty_input_fails():
    with pytest.raises(FormatError):
        parse_graph6("")


def test_parse_accepts_header_and_newline():
    assert parse_graph6(">>graph6<<A_") == complete(2)
    assert parse_graph6("A_\n") == complete(2)
    assert parse_graph6("A_\r\n") == complete(2)


def test_parse_rejects_long_form():
    with pytest.raises(FormatError) as exc:
        parse_graph6("~??~?????")
    assert exc.value.offset == 0


def test_parse_rejects_order_zero():
    with pytest.raises(FormatError):
        parse_graph6("?")


def test_parse_rejects_wrong_body_length():
    with pytest.raises(FormatError) as exc:
        parse_graph6("D?")  # order 5 needs 2 data bytes
    assert exc.value.offset == 2
    with pytest.raises(FormatError):
        parse_graph6("A__")


def test_parse_rejects_invalid_data_byte():
    with pytest.raises(FormatError) as exc:
        parse_graph6("B\x1c")
    assert exc.value.offset == 1


def test_parse_rejects_nonzero_padding():
    # K2 has a single pair bit; the trailing five bits must be zero
    bad = "A" + chr(63 + 0b100001)
    with pytest.raises(FormatError):
        parse_graph6(bad)


def _decoded(parse, code):
    """The rows of one decode, or the type, message, offset and line of its error."""
    try:
        return parse(code).adj
    except FormatError as exc:
        return type(exc), exc.message, exc.offset, exc.line


def test_parse_graph6_matches_the_per_pair_decoder():
    """The per-column decode gives the rows, and the same errors, as the
    decoder that tests every pair's bit: on every census code of orders 1-7
    and on seeded random bodies of orders 1-62, half of them holding a byte
    outside 63..126 and a quarter with the padding bits cleared."""
    codes = [code for order in range(1, 8) for code in census_lines(order)]
    rng = random.Random(2004)
    for n in range(1, 63):
        nbits = n * (n - 1) // 2
        nbytes = (nbits + 5) // 6
        for t in range(40):
            body = [rng.randrange(63, 127) for _ in range(nbytes)]
            if t % 2 and body:
                body[rng.randrange(nbytes)] = rng.choice((rng.randrange(63), rng.randrange(127, 400)))
            elif t % 4 == 0 and body:
                body[-1] = 63 + ((body[-1] - 63) & -(1 << (nbytes * 6 - nbits)))
            codes.append(chr(63 + n) + "".join(map(chr, body)))
    outcomes = {}
    for code in codes:
        got = _decoded(parse_graph6, code)
        assert got == _decoded(parse_graph6_by_pairs, code), repr(code)
        key = got[1] if got[0] is FormatError else "rows"
        outcomes[key] = outcomes.get(key, 0) + 1
    assert len(codes) == 996 + 62 * 40
    assert outcomes["rows"] > 996 + 600 and outcomes["nonzero padding bits"] > 300
    assert sum(v for k, v in outcomes.items() if k.startswith("invalid data byte")) > 1000


@pytest.mark.parametrize("g", [
    path(1), path(2), path(5), cycle(3), cycle(7), complete(6),
    empty(4), star(5), wheel(6), fan(5),
])
def test_roundtrip_generators(g):
    assert parse_graph6(encode_graph6(g)) == g


def test_roundtrip_census_orders_1_to_7(census):
    for order in range(1, 8):
        for g in census(order):
            assert parse_graph6(encode_graph6(g)) == g


def test_parsed_graphs_pass_the_public_check():
    """``parse_graph6`` builds its graph through ``Graph._trusted``; every
    census graph it parses would pass ``Graph``'s own check unchanged."""
    parsed = 0
    for order in range(1, 8):
        for code in census_lines(order):
            g = parse_graph6(code)
            assert Graph(g.n, g.adj) == g and encode_graph6(g) == code
            parsed += 1
    assert parsed == 996


def test_roundtrip_random_order_8_graphs():
    rng = random.Random(88)
    for _ in range(60):
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.5]
        g = from_edge_list(8, edges)
        assert parse_graph6(encode_graph6(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_random_graphs_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edge_list(n, chosen)
    assert parse_graph6(encode_graph6(g)) == g


def test_encoding_matches_networkx_on_census(census):
    nx = pytest.importorskip("networkx")
    from oracles import to_nx

    for g in census(5):
        ours = encode_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs


def test_parse_graph6_lines_with_unterminated_final_line():
    text = "A_\nBw"
    graphs = parse_graph6_lines(text)
    assert graphs == [complete(2), complete(3)]


def test_parse_graph6_lines_reports_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_graph6_lines("A_\n~bad\n")
    assert exc.value.line == 2


# --- edge-list format ---------------------------------------------------------


def test_edge_list_roundtrip():
    g = wheel(5)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blank_lines():
    text = "# a path\n\n3 2\n0 1\n# middle comment\n1 2\n"
    assert parse_edge_list(text) == path(3)


def test_edge_list_header_errors():
    with pytest.raises(FormatError):
        parse_edge_list("")
    with pytest.raises(FormatError):
        parse_edge_list("3\n")
    with pytest.raises(FormatError):
        parse_edge_list("x y\n")


def test_edge_list_count_mismatch():
    with pytest.raises(FormatError):
        parse_edge_list("3 2\n0 1\n")


def test_edge_list_bad_edges():
    with pytest.raises(FormatError) as exc:
        parse_edge_list("3 1\n0 3\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_edge_list("3 1\n1 1\n")
    with pytest.raises(FormatError):
        parse_edge_list("3 1\n0 a\n")


def test_edge_list_format_is_sorted_and_lf_terminated():
    text = format_edge_list(cycle(3))
    assert text == "3 3\n0 1\n0 2\n1 2\n"


@pytest.mark.parametrize("payload", [
    {},
    {"b": 1, "a": [True, False, None], "c": {"z": 0.5, "y": -3}},
    {"g6": ["@", "A_"], "computed": {"g": 2, "s": None}, "witness": [[0, 3], [1]]},
    {"text": "G ⊙ H, K₁ \u2014 \"quoted\"\n", "big": 2 ** 70, "neg": -0.0, "inf": float("inf")},
])
def test_jsonline_equals_json_dumps(payload):
    """``jsonline`` reuses one encoder; its lines are byte-identical to a
    fresh ``json.dumps`` with sorted keys and no spaces."""
    assert jsonline(payload) == json.dumps(payload, sort_keys=True, separators=(",", ":"))
