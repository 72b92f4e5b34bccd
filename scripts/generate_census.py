#!/usr/bin/env python3
"""Regenerate the bundled connected-graph census files (orders 1..7).

Sources the graph atlas shipped with networkx (all graphs on up to seven
vertices, one per isomorphism class), filters to connected graphs, encodes
each with this package's graph6 encoder, and writes one file per order to
src/coronageo/data/graph{n}c.g6 with lexicographically sorted lines.

Cross-checks along the way:
  * per-order counts match the published census numbers
    (``corpus.CENSUS_COUNTS``),
  * our encoding agrees with networkx's graph6 writer,
  * every line round-trips through our parser.

Dev-time tool only; the library itself never imports networkx.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coronageo.corpus import CENSUS_COUNTS  # noqa: E402
from coronageo.formats import encode_graph6, parse_graph6  # noqa: E402
from coronageo.graphs import from_edge_list  # noqa: E402


def main() -> int:
    data_dir = Path(__file__).resolve().parent.parent / "src" / "coronageo" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    by_order: dict[int, list[str]] = defaultdict(list)
    for gx in graph_atlas_g():
        n = gx.number_of_nodes()
        if n < 1 or not nx.is_connected(gx):
            continue
        relabel = {node: i for i, node in enumerate(sorted(gx.nodes()))}
        g = from_edge_list(n, [(relabel[u], relabel[v]) for u, v in gx.edges()])
        line = encode_graph6(g)
        assert parse_graph6(line) == g, f"round-trip failed for {line!r}"
        nx_line = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert line == nx_line, f"encoder mismatch: {line!r} vs {nx_line!r}"
        by_order[n].append(line)

    for order, lines in sorted(by_order.items()):
        assert len(lines) == CENSUS_COUNTS[order], (order, len(lines))
        assert len(set(lines)) == len(lines), f"duplicate codes at order {order}"
        target = data_dir / f"graph{order}c.g6"
        target.write_text("\n".join(sorted(lines)) + "\n")
        print(f"wrote {target.name}: {len(lines)} graphs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
