"""Command-line interface: compute invariants, build corona products, run
claim verifications over corpora, and tabulate census invariants.

Exit codes: 0 success; 1 a verification reported FAIL; 2 usage, parse, or
domain errors; 3 a search cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator

from .corpus import CENSUS_MAX_ORDER, Caps, CorpusSpec, census_lines, parse_range, read_text
from .errors import CapExceeded, DomainError, FormatError
from .formats import (encode_graph6, format_edge_list, jsonline, parse_edge_list, parse_graph6,
                      parse_graph6_lines)
from .geodesic import geodetic_families, geodetic_number, interval, k_geodetic_number
from .graphs import Graph, corona, diameter, extreme_vertices, mask_of, vertex_tuple
from .steiner import steiner_distance, steiner_hull, steiner_number, steiner_sets
from .subsets import least_size

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# graphs per census chunk, each phase of ``cmd_census`` run over a whole chunk;
# larger chunks gained little more and wrote the first row later (+8% at 64)
_CENSUS_CHUNK = 16

MEASURES = ("g", "g2", "gk", "s", "diameter", "extreme", "interval",
            "steiner-distance", "steiner-hull")

# the corpus and parameter flags of ``verify`` that each kind of claim takes
VERIFY_FLAGS = {
    "single": ("family_g", "family_h", "random"),
    "pair": ("family_g", "family_h", "random"),
    "pendant": ("family_g", "family_h", "random", "k"),
    "range": ("range",),
    "g_range": ("family_g", "range"),
}


def _load_one_graph(g6: str | None, edges_path: str | None, what: str) -> Graph:
    if (g6 is None) == (edges_path is None):
        raise DomainError(f"provide exactly one source for {what} (graph6 or edge-list file)")
    if g6 is not None:
        return parse_graph6(g6)
    return parse_edge_list(read_text(edges_path))


def _load_compute_graphs(args: argparse.Namespace) -> list[Graph]:
    sources = [s for s in (args.g6, args.g6_file, args.edges) if s is not None]
    if len(sources) != 1:
        raise DomainError("provide exactly one of --g6, --g6-file, --edges")
    if args.g6 is not None:
        return [parse_graph6(args.g6)]
    if args.g6_file is not None:
        return parse_graph6_lines(read_text(args.g6_file))
    return [parse_edge_list(read_text(args.edges))]


def _caps(args: argparse.Namespace) -> Caps:
    if getattr(args, "max_n", None) is not None:
        m = args.max_n
        if m < 1:
            raise DomainError("--max-n must be positive")
        return Caps(geodetic=m, steiner=m)
    return Caps()


def _parse_vertices(text: str | None, n: int) -> list[int]:
    """Vertex indices of ``--vertices``, each checked against the order n
    before any bitmask is built from it."""
    if not text:
        raise DomainError("this measure needs --vertices (comma-separated list)")
    try:
        vs = [int(tok) for tok in text.split(",")]
        if min(vs) < 0:
            raise ValueError
    except ValueError:
        raise DomainError(f"bad --vertices value {text!r}") from None
    for v in vs:
        if v >= n:
            raise DomainError(f"--vertices entry {v} is not in the graph (order {n})")
    return vs


def _measure_payload(g: Graph, measure: str, args: argparse.Namespace, caps: Caps) -> dict:
    if measure == "g":
        r = geodetic_number(g, cap=caps.geodetic)
        return {"value": r.value, "witness": list(r.witness)}
    if measure == "g2":
        r = k_geodetic_number(g, 2, cap=caps.geodetic)
        return {"value": r.value, "witness": None if r.witness is None else list(r.witness)}
    if measure == "gk":
        if args.k is None:
            raise DomainError("measure gk needs --k")
        r = k_geodetic_number(g, args.k, cap=caps.geodetic)
        return {"k": args.k, "value": r.value,
                "witness": None if r.witness is None else list(r.witness)}
    if measure == "s":
        r = steiner_number(g, cap=caps.steiner)
        return {"value": r.value, "witness": list(r.witness)}
    if measure == "diameter":
        return {"value": diameter(g)}
    if measure == "extreme":
        vs = vertex_tuple(extreme_vertices(g))
        return {"value": len(vs), "witness": list(vs)}
    if measure == "interval":
        vs = _parse_vertices(args.vertices, g.n)
        if len(vs) != 2:
            raise DomainError("measure interval needs --vertices U,V (exactly two)")
        out = vertex_tuple(interval(g.distances, vs[0], vs[1]))
        return {"vertices": vs, "value": len(out), "witness": list(out)}
    if measure == "steiner-distance":
        vs = _parse_vertices(args.vertices, g.n)
        return {"vertices": vs, "value": steiner_distance(g, mask_of(vs), cap=caps.steiner)}
    if measure == "steiner-hull":
        vs = _parse_vertices(args.vertices, g.n)
        out = vertex_tuple(steiner_hull(g, mask_of(vs), cap=caps.steiner))
        return {"vertices": vs, "value": len(out), "witness": list(out)}
    raise DomainError(f"unknown measure {measure!r}")


def _human_value(measure: str, value) -> str:
    if value is None:
        return "undefined" if measure == "diameter" else "unsatisfiable"
    return str(value)


def cmd_compute(args: argparse.Namespace) -> int:
    caps = _caps(args)
    measures = [m.strip() for m in args.measure.split(",") if m.strip()]
    for m in measures:
        if m not in MEASURES:
            raise DomainError(f"unknown measure {m!r}; known: {', '.join(MEASURES)}")
    for g in _load_compute_graphs(args):
        code = encode_graph6(g)
        for m in measures:
            payload = _measure_payload(g, m, args, caps)
            if args.json:
                line = {"g6": code, "measure": m}
                line.update(payload)
                print(jsonline(line))
            else:
                text = f"{code} {m} = {_human_value(m, payload['value'])}"
                if payload.get("witness") is not None:
                    text += f" witness={payload['witness']}"
                print(text)
        g.drop_tables()
    return EXIT_OK


def cmd_corona(args: argparse.Namespace) -> int:
    g = _load_one_graph(args.g6, args.edges, "the first factor")
    h = _load_one_graph(args.g6_h, args.edges_h, "the second factor")
    prod, layout = corona(g, h)
    layout_payload = {
        "n1": layout.n1,
        "n2": layout.n2,
        "order": layout.order,
        "g_indices": list(range(layout.n1)),
        "copies": [list(layout.copy_indices(i)) for i in range(layout.n1)],
    }
    if args.format == "g6":
        print(encode_graph6(prod))
    else:
        sys.stdout.write(format_edge_list(prod))
    print(jsonline({"layout": layout_payload}))
    return EXIT_OK


def _corpus_from_flags(args: argparse.Namespace, *, which: str) -> CorpusSpec | None:
    spec = getattr(args, f"family_{which}", None)
    if spec is not None:
        return CorpusSpec.parse(spec)
    return None


def _random_corpus(args: argparse.Namespace) -> CorpusSpec | None:
    if args.random is None:
        return None
    fields = {}
    for part in args.random.split(","):
        key, sep, value = (s.strip() for s in part.partition("="))
        if not sep:
            raise DomainError(f"bad --random entry {part!r}; expected key=value")
        if key not in ("n", "p", "count") or key in fields:
            raise DomainError(f"bad --random entry {part!r}; expected each of n=, p=, count= once")
        fields[key] = value
    if missing := {"n", "p", "count"} - set(fields):
        raise DomainError(f"--random needs n=, p=, count= (missing {sorted(missing)})")
    if args.seed is None:
        raise DomainError("--random corpora need --seed")
    try:
        n, p, count = int(fields["n"]), float(fields["p"]), int(fields["count"])
    except ValueError:
        raise DomainError(f"bad --random value in {args.random!r}") from None
    return CorpusSpec.random(n, p, count, args.seed)


def cmd_verify(args: argparse.Namespace) -> int:
    """Map the corpus flags onto the claim's arguments; a flag the claim
    does not take is an error, and ``build_items`` reports any argument that
    is still missing, both before any output.  Each report is written as it
    arrives and tallied for the summary line and the exit code.  An error
    mid-run leaves the reports before it, with no summary line."""
    from .harness import THEOREMS, run_corpus, summarize, summary_json

    caps = _caps(args)
    kind = THEOREMS[args.theorem].kind
    for flag in ("family_g", "family_h", "random", "range", "k"):
        if getattr(args, flag) is not None and flag not in VERIFY_FLAGS[kind]:
            raise DomainError(f"{args.theorem} does not take --{flag.replace('_', '-')}")
    if args.seed is not None and args.random is None:
        raise DomainError("--seed needs --random")
    corpus = _corpus_from_flags(args, which="g")
    corpus_h = _corpus_from_flags(args, which="h")
    rand = _random_corpus(args)
    n_range = parse_range(args.range) if args.range is not None else None

    if kind == "single":
        picked = [c for c in (corpus, corpus_h, rand) if c is not None]
        if len(picked) != 1:
            raise DomainError(
                f"{args.theorem} takes exactly one corpus (--family-g, --family-h, or --random)"
            )
        corpus, corpus_h = picked[0], None
    elif kind in ("pair", "pendant"):
        if corpus_h is not None and rand is not None:
            raise DomainError(f"{args.theorem} takes H from --family-h or --random, not both")
        if corpus_h is None:
            corpus_h = rand

    reports = run_corpus(
        args.theorem,
        corpus=corpus,
        corpus_h=corpus_h,
        n_range=n_range,
        k=args.k,
        caps=caps,
        parallel=args.parallel,
    )
    try:
        counts = summarize(_written(reports, args.timing))
    finally:
        reports.close()
    _write_line(summary_json(counts))
    return EXIT_FAIL if counts["fail"] else EXIT_OK


def _written(reports: Iterator, timing: bool) -> Iterator:
    """Writes each ``harness.VerificationReport``'s line as it is drawn,
    then passes the report on."""
    for report in reports:
        _write_line(report.to_json(timing=timing))
        yield report


def _write_line(line: str) -> None:
    """One ``write`` for ``line`` and its newline (``print`` makes two when
    stdout is unbuffered); a census chunk's rows go out as one such line."""
    sys.stdout.write(line + "\n")


def cmd_census(args: argparse.Namespace) -> int:
    """Writes the rows a chunk of ``_CENSUS_CHUNK`` graphs at a time, each
    phase (parse, geodetic families, Steiner sets, rows) run over the whole
    chunk.  Every graph of an order has the same n, so a cap error fires in
    the first chunk, before any output.  g and g2 are the least sizes in
    ``geodetic_families(·, 2)``, the values of ``geodetic_number`` and
    ``k_geodetic_number(·, 2)``, and s is the least size in
    ``steiner_sets``, the value of ``steiner_number``.  No witness is
    printed, so no minimum-set search runs."""
    caps = _caps(args)
    codes = census_lines(args.order)
    for start in range(0, len(codes), _CENSUS_CHUNK):
        graphs = [parse_graph6(code) for code in codes[start:start + _CENSUS_CHUNK]]
        families = [geodetic_families(g, 2, cap=caps.geodetic) for g in graphs]
        steiner = [steiner_sets(g, cap=caps.steiner) for g in graphs]
        lines = []
        for i, (g, (fam, fam2), st) in enumerate(zip(graphs, families, steiner), start):
            geo, geo2, s = (least_size(f, g.n) for f in (fam, fam2, st))
            row = {"g6": codes[i], "g": geo, "g2": geo2, "s": s, "diameter": diameter(g),
                   "g_le_s": geo <= s}
            if args.json:
                lines.append(jsonline(row))
                continue
            if i == 0:
                lines.append(f"{'g6':<12} {'g':>3} {'g2':>3} {'s':>3} {'diam':>4}  g<=s")
            g2 = "-" if row["g2"] is None else row["g2"]
            lines.append(f"{row['g6']:<12} {row['g']:>3} {g2:>3} {row['s']:>3} "
                         f"{row['diameter']:>4}  {'yes' if row['g_le_s'] else 'NO'}")
        _write_line("\n".join(lines))
    return EXIT_OK


class _TheoremIDs:
    """``harness.THEOREM_IDS``, read when ``--theorem`` is checked or its
    help is printed, so that only ``verify`` loads the harness."""

    def __iter__(self):
        from .harness import THEOREM_IDS

        return iter(THEOREM_IDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coronageo",
        description="Exact geodetic, k-geodetic and Steiner invariants of small "
                    "graphs, corona products, and claim verification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute invariants of supplied graphs")
    p_compute.add_argument("--g6", help="graph6 code of the input graph")
    p_compute.add_argument("--g6-file", help="file with one graph6 code per line")
    p_compute.add_argument("--edges", help="edge-list file ('n m' header, then 'u v' lines)")
    p_compute.add_argument("--measure", required=True,
                           help=f"comma-separated list from: {', '.join(MEASURES)}")
    p_compute.add_argument("--k", type=int, help="k for the gk measure")
    p_compute.add_argument("--vertices", help="comma-separated vertices for interval / steiner measures")
    p_compute.add_argument("--json", action="store_true", help="emit JSON Lines instead of text")
    p_compute.add_argument("--max-n", type=int, help="override all search caps")
    p_compute.set_defaults(func=cmd_compute)

    p_corona = sub.add_parser("corona", help="build a corona product")
    p_corona.add_argument("--g6", help="graph6 code of the first factor")
    p_corona.add_argument("--edges", help="edge-list file of the first factor")
    p_corona.add_argument("--g6-h", help="graph6 code of the second factor")
    p_corona.add_argument("--edges-h", help="edge-list file of the second factor")
    p_corona.add_argument("--format", choices=("edges", "g6"), default="edges",
                          help="output format for the product (default: edges)")
    p_corona.set_defaults(func=cmd_corona)

    p_verify = sub.add_parser("verify", help="run one claim over a corpus, emitting JSON Lines")
    p_verify.add_argument("--theorem", required=True, choices=_TheoremIDs(), metavar="ID",
                          help="one of: %(choices)s")
    p_verify.add_argument("--family-g",
                          help="corpus for G: 'all-connected:A..B', '<family>:A..B', 'file:PATH'")
    p_verify.add_argument("--family-h", help="corpus for H (same syntax)")
    p_verify.add_argument("--random", help="random corpus: n=N,p=P,count=C (needs --seed)")
    p_verify.add_argument("--seed", type=int, help="seed for random corpora")
    p_verify.add_argument("--range", help="parameter range A..B for family formulas")
    p_verify.add_argument("--k", type=int, help="pendant-copy count for PENDANT_COROLLARY")
    p_verify.add_argument("--parallel", type=int, default=1, help="worker processes (default 1)")
    p_verify.add_argument("--max-n", type=int, help="override all search caps")
    p_verify.add_argument("--timing", action="store_true",
                          help="include elapsed_ms in reports (breaks byte-for-byte determinism)")
    p_verify.set_defaults(func=cmd_verify)

    p_census = sub.add_parser("census", help="tabulate g, g2, s, diameter over a census order")
    p_census.add_argument("--order", type=int, required=True, help=f"graph order (1..{CENSUS_MAX_ORDER})")
    p_census.add_argument("--json", action="store_true", help="emit JSON Lines instead of a table")
    p_census.add_argument("--max-n", type=int, help="override all search caps")
    p_census.set_defaults(func=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
