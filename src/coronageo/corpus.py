"""Graph corpora for verification runs: census files, generator families,
graph6 files, and seeded random graphs.

The bundled census files (``data/graph{n}c.g6``, orders 1..7) list all
connected graphs of each order up to isomorphism, one graph6 code per line.
Set the ``CORONA_CENSUS_DIR`` environment variable to read them from another
directory instead.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .errors import DomainError, FormatError
from .formats import graph6_records, parse_graph6
from .graphs import (MAX_VERTICES, Graph, check_order, complete, cycle, empty, fan, from_edge_list,
                     is_connected, path, star, wheel)

CENSUS_ENV = "CORONA_CENSUS_DIR"
# connected graphs per order; ``census_lines`` refuses a file with another count
CENSUS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CENSUS_MAX_ORDER = max(CENSUS_COUNTS)
# a random corpus is built whole before the first report; a graph takes
# about 200 B at order 8 and 2.9 KB at order 62, so this keeps it under 300 MB
RANDOM_MAX_COUNT = 100_000
RANDOM_ATTEMPTS = 10_000  # samples ``random_connected_graph`` draws before it gives up

FAMILIES = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "empty": empty,
    "star": star,
    "wheel": wheel,
    "fan": fan,
}


def read_text(path: str) -> str:
    """The whole text file at ``path``, in the locale's encoding, as
    ``Path.read_text`` reads it."""
    with open(path) as f:
        return f.read()


def census_lines(order: int) -> list[str]:
    """graph6 codes of all connected graphs of the given order."""
    if order not in CENSUS_COUNTS:
        raise DomainError(f"census files cover orders 1..{CENSUS_MAX_ORDER}, got {order}")
    name = f"graph{order}c.g6"
    override = os.environ.get(CENSUS_ENV)
    if override:
        target = os.path.join(override, name)
        if not os.path.exists(target):
            raise DomainError(f"census file not found: {target}")
    else:
        target = os.path.join(os.path.dirname(__file__), "data", name)
    lines = [ln for ln in read_text(target).splitlines() if ln.strip()]
    if (got := len(lines)) != (want := CENSUS_COUNTS[order]):
        raise DomainError(f"census file {target} holds {got} graphs, not the {want} of order {order}")
    return lines


def census_graphs(order: int) -> list[Graph]:
    return [parse_graph6(ln) for ln in census_lines(order)]


def parse_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' (or a single 'A') into an inclusive integer range."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise DomainError(f"bad range {text!r}; expected 'A..B'") from None
    if b < a:
        raise DomainError(f"empty range {text!r}")
    return a, b


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """One connected G(n, p) sample, by rejection."""
    if n < 1:
        raise DomainError(f"random graphs need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    for _ in range(RANDOM_ATTEMPTS):  # ``from_edge_list`` checks n before it draws a pair
        g = from_edge_list(n, ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))
        if is_connected(g):
            return g
    raise DomainError(f"no connected G({n}, {p}) sample in {RANDOM_ATTEMPTS} attempts")


class CorpusEntry(namedtuple("CorpusEntry", "source error")):
    """Placeholder for a corpus element that failed to parse; verification
    runs report these per-instance instead of aborting."""

    __slots__ = ()


class CorpusSpec(namedtuple("CorpusSpec", "kind family lo hi path order p count seed",
                            defaults=(None, 0, 0, None, 0, 0.0, 0, None))):
    """Deterministic source of graphs for a verification run, of ``kind``
    "exhaustive", "family", "file" or "random"; ``count`` hides ``tuple.count``."""

    __slots__ = ()

    @classmethod
    def exhaustive(cls, lo: int, hi: int) -> "CorpusSpec":
        return cls(kind="exhaustive", lo=lo, hi=hi)

    @classmethod
    def from_family(cls, family: str, lo: int, hi: int) -> "CorpusSpec":
        if family not in FAMILIES:
            raise DomainError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
        return cls(kind="family", family=family, lo=lo, hi=hi)

    @classmethod
    def from_file(cls, file_path: str) -> "CorpusSpec":
        return cls(kind="file", path=file_path)

    @classmethod
    def random(cls, order: int, p: float, count: int, seed: int) -> "CorpusSpec":
        if not 1 <= count <= RANDOM_MAX_COUNT:
            raise DomainError(f"random corpora need 1 <= count <= {RANDOM_MAX_COUNT}, got {count}")
        if order > MAX_VERTICES:  # rejected before any pair is sampled
            check_order(order)
        return cls(kind="random", order=order, p=p, count=count, seed=seed)

    @classmethod
    def parse(cls, spec: str) -> "CorpusSpec":
        """Parse 'all-connected:LO..HI', '<family>:LO..HI' or 'file:PATH'."""
        name, sep, rest = spec.partition(":")
        if not sep or not rest:
            raise DomainError(f"bad corpus spec {spec!r}; expected 'name:args'")
        if name == "file":
            return cls.from_file(rest)
        lo, hi = parse_range(rest)
        if name == "all-connected":
            return cls.exhaustive(lo, hi)
        return cls.from_family(name, lo, hi)

    def load(self) -> list[Graph | CorpusEntry]:
        if self.kind == "exhaustive":
            out: list[Graph | CorpusEntry] = []
            for order in range(self.lo, self.hi + 1):
                out.extend(census_graphs(order))
            return out
        if self.kind == "family":
            gen = FAMILIES[self.family]
            return [gen(n) for n in range(self.lo, self.hi + 1)]
        if self.kind == "file":
            return [
                CorpusEntry(source=f"{self.path}:{ln}", error=str(parsed))
                if isinstance(parsed, FormatError) else parsed
                for ln, parsed in graph6_records(read_text(self.path))
            ]
        if self.kind == "random":
            if self.seed is None:
                raise DomainError("random corpora need a seed")
            import random  # only random corpora pay for it
            rng = random.Random(self.seed)
            return [random_connected_graph(self.order, self.p, rng) for _ in range(self.count)]
        raise DomainError(f"unknown corpus kind {self.kind!r}")
