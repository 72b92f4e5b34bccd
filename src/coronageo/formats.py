"""graph6 and edge-list text encodings, and JSON Lines records.

graph6 here is the short form only (order 1..62): one order byte ``n + 63``
followed by the upper-triangle bit vector x(0,1), x(0,2), x(1,2), x(0,3), ...
packed big-endian into 6-bit groups, each offset by 63.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

from .errors import DomainError, FormatError
from .graphs import MAX_VERTICES, Graph, from_edge_list

GRAPH6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; a trailing newline and the optional header are accepted."""
    line = text.rstrip("\r\n")
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise FormatError("empty graph6 input", offset=0)
    if line[0] == "~":
        raise FormatError("long-form graph6 (order > 62) is not supported", offset=0)
    first = ord(line[0])
    if not 63 <= first <= 63 + MAX_VERTICES:
        raise FormatError(f"invalid order byte {line[0]!r}", offset=0)
    n = first - 63
    if n == 0:
        raise FormatError("graph6 order 0; graphs need at least one vertex", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = line[1:]
    if len(body) != nbytes:
        raise FormatError(
            f"graph6 body for order {n} needs {nbytes} bytes, got {len(body)}",
            offset=1 + min(len(body), nbytes),
        )
    packed = 0  # the body's bits, the first one highest
    for i, ch in enumerate(body):
        x = ord(ch) - 63
        if not 0 <= x <= 63:
            raise FormatError(f"invalid data byte {ch!r}", offset=1 + i)
        packed = packed << 6 | x
    pad = nbytes * 6 - nbits  # fewer than 6 bits, all in the last byte
    if packed & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits", offset=nbytes)
    packed >>= pad
    rows = [0] * n
    for j in range(n - 1, 0, -1):  # column j is x(0, j) .. x(j - 1, j), the last one lowest
        col = packed & ((1 << j) - 1)
        packed >>= j
        while col:
            low = col & -col
            i = j - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            col ^= low
    # both directions of each pair i < j < n are set, so the rows pass the check
    return Graph._trusted(tuple(rows))


def encode_graph6(G: Graph) -> str:
    """Encode a graph as one short-form graph6 line (no trailing newline)."""
    if G.n > MAX_VERTICES:
        raise DomainError(f"graph6 short form caps at {MAX_VERTICES} vertices")
    out = [chr(G.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, G.n):
        for i in range(j):
            acc = acc << 1 | (G.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def graph6_records(text: str) -> Iterator[tuple[int, Graph | FormatError]]:
    """(1-based line number, graph or the ``FormatError`` parsing raised) per non-blank line."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            try:
                parsed: Graph | FormatError = parse_graph6(raw)
            except FormatError as exc:
                parsed = exc
            yield ln, parsed


def parse_graph6_lines(text: str) -> list[Graph]:
    """Parse a multi-line graph6 document; blank lines are skipped.

    The final line may or may not be newline-terminated.
    """
    graphs = []
    for ln, parsed in graph6_records(text):
        if isinstance(parsed, FormatError):
            raise FormatError(parsed.message, offset=parsed.offset, line=ln)
        graphs.append(parsed)
    return graphs


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line ``n m`` then m lines ``u v``.

    Lines starting with ``#`` and blank lines are ignored.
    """
    entries: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        entries.append((ln, s.split()))
    if not entries:
        raise FormatError("missing 'n m' header")
    ln0, head = entries[0]
    if len(head) != 2:
        raise FormatError("header must be 'n m'", line=ln0)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("header must be two integers", line=ln0) from None
    if len(entries) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(entries) - 1}")
    edges = []
    for ln, toks in entries[1:]:
        if len(toks) != 2:
            raise FormatError("edge line must be 'u v'", line=ln)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise FormatError("edge endpoints must be integers", line=ln) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge endpoint out of range: {u} {v}", line=ln)
        if u == v:
            raise FormatError(f"self-loop at {u}", line=ln)
        edges.append((u, v))
    try:
        return from_edge_list(n, edges)
    except DomainError as exc:
        raise FormatError(str(exc)) from None


def format_edge_list(G: Graph) -> str:
    lines = [f"{G.n} {G.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


# One JSON Lines record: sorted keys, no spaces.  One encoder serves every
# line; ``json.dumps`` with these options would build one per call.
jsonline = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
