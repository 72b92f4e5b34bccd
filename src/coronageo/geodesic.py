"""Geodesic intervals, geodetic sets, and the (k-)geodetic number by exact search."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, DomainError
from .graphs import Graph, Mask, blocks, extreme_vertices, is_connected, vertex_tuple
from .subsets import candidate_rank, first_cover

DEFAULT_GEODETIC_CAP = 20


@dataclass(frozen=True)
class GeodeticResult:
    """Outcome of a minimum-set search.

    ``value is None`` means no set exists (k-geodetic search with no vertex
    pair at distance exactly k); this is an answer, not an error.
    ``explored`` is the witness's 1-based rank among the nonempty candidates
    in canonical order, counted alike whether a candidate was tested on its
    own or skipped with its subtree by the search's bound.
    """

    value: int | None
    witness: tuple[int, ...] | None
    explored: int

    @property
    def unsatisfiable(self) -> bool:
        return self.value is None


def interval(D: tuple[tuple[int, ...], ...], u: int, v: int) -> Mask:
    """I[u, v]: all vertices w with d(u,w) + d(w,v) = d(u,v), from the
    ``bfs_distances`` rows ``D``."""
    n = len(D)
    for x in (u, v):
        if not 0 <= x < n:
            raise DomainError(f"vertex {x} out of range")
    du, dv = D[u], D[v]
    target = du[v]
    if target >= n:
        raise DomainError(f"vertices {u} and {v} are in different components")
    out = 0
    for w in range(n):
        if du[w] + dv[w] == target:
            out |= 1 << w
    return out


def is_geodetic(G: Graph, members: Mask) -> bool:
    """True when the intervals I[u, v] over pairs of the set, with the set
    itself, cover every vertex."""
    if not is_connected(G):
        raise DomainError("geodetic sets are defined for connected graphs")
    if members == 0:
        raise DomainError("geodetic sets are nonempty")
    if members & ~G.full_mask:
        raise DomainError("vertex set is not within the graph")
    I = G.intervals
    vs = vertex_tuple(members)
    acc = members
    for i, u in enumerate(vs):
        row = I[u]
        for v in vs[i + 1:]:
            acc |= row[v]
    return acc == G.full_mask


def _require_connected(G: Graph) -> None:
    if not is_connected(G):
        raise DomainError("search requires a connected graph")


def geodetic_number(G: Graph, *, cap: int = DEFAULT_GEODETIC_CAP) -> GeodeticResult:
    """Minimum geodetic set by exact search, block by block.

    Candidates are the supersets of the extreme vertices X (every geodetic
    set contains them), by cardinality then lexicographic order; the
    witness is the first geodetic one, and ``explored`` its rank among the
    nonempty candidates.  Let C be the cut vertices and, for a block B,
    C_B = B ∩ C and F_B = B minus (C ∪ X), its free vertices.  Each
    block with F_B nonempty runs ``first_cover`` on the graph's interval
    table with every vertex outside F_B forced, and picks the first subset
    of F_B that passes.  The witness is X with every pick, and ``explored``
    is its ``subsets.candidate_rank`` with X forced: [X nonempty], plus
    C(m, j) for 1 <= j < t, plus the lexicographic rank of the t picked
    vertices among the m vertices outside X, plus 1 (just 1 when t = 0).
    A graph with one block has C empty and runs one search over the whole
    graph, with X forced.

    Lemma: that witness is the flat search's.
    (1) Gates.  Fix a block B.  A vertex u outside B reaches B through one
    cut vertex u' of B, its gate (a vertex of B is its own gate):
    d(u, w) = d(u, u') + d(u', w) for w in B, and
    d(u, v) = d(u, u') + d(u', v') + d(v', v) when u' != v'.  So a vertex
    of F_B, which lies in no other block, is in I[u, v] exactly when it is
    in I[u', v'], and never when u' = v'.
    (2) Branches.  A set that misses a component Q of G - c, c a cut
    vertex, covers no vertex of Q, as every path from it into Q runs
    through c.  So a geodetic set S meets every component of G - c, which
    also covers c, and its gates in B are (S ∩ B) ∪ C_B.
    (3) Blocks.  By (1) and (2), a set S ⊇ X that meets every such
    component is geodetic exactly when, for every block B, F_B lies in the
    closure of C_B ∪ (X ∩ B) ∪ (S ∩ F_B).  The vertices forced in the
    block's search have exactly those gates (the vertices outside B meet
    every branch at C_B), so its test on S ∩ F_B is this one.
    (4) The union.  Each component Q of G - c holds an end block, one with
    a single cut vertex, whose other vertices are in Q and extreme or free;
    a nonempty F_B there needs a nonempty pick, since one gate covers only
    itself.  So the union W of X and the picks meets every such Q, and is
    geodetic by (3).
    (5) Least and first.  For a geodetic S, each S ∩ F_B passes its block's
    test by (3), and the F_B are disjoint and miss C ∪ X, so
    |S| >= |X| + Σ|S ∩ F_B| >= |W|.  At |S| = |W|, S holds no cut vertex
    and each S ∩ F_B is a least pick; the lowest vertex where S and W
    differ is in some F_B, where W's pick is lexicographically first among
    the least picks, so it is in W, and W comes first.
    """
    _require_connected(G)
    if G.n > cap:
        raise CapExceeded(f"geodetic search capped at n <= {cap}, got {G.n}")
    table, n, ext = G.intervals, G.n, extreme_vertices(G)
    parts = blocks(G)
    cut = seen = 0
    for b in parts:
        cut |= seen & b
        seen |= b
    witness = ext
    for b in parts:
        free = b & ~(cut | ext)
        if free:
            witness |= first_cover(table, n, G.full_mask ^ free)[0] & free
    return GeodeticResult(witness.bit_count(), vertex_tuple(witness),
                          candidate_rank(witness, G.full_mask, ext))


def k_geodetic_number(G: Graph, k: int, *, cap: int = DEFAULT_GEODETIC_CAP) -> GeodeticResult:
    """Minimum set S such that every vertex outside S lies on an x-y geodesic
    with x, y in S and d(x, y) = k exactly.

    Vertices inside S need no cover.  When no vertex pair is at distance
    exactly k (e.g. k exceeds the diameter) the result is unsatisfiable
    (``value is None``) rather than an error.  k-intervals do not split by
    blocks, so this search runs over the whole graph.

    The search forces the extreme vertices X.  An interior vertex of a
    geodesic has two non-adjacent neighbours on it, so an extreme vertex is
    interior to none; a vertex outside S is interior to a k-geodesic between
    members of S, so every k-geodetic set contains X.  The first minimum set
    in the full order is therefore the first among the supersets of X, and
    ``explored`` is its ``candidate_rank`` with nothing forced.
    """
    _require_connected(G)
    if k < 2:
        raise DomainError(f"k-geodetic sets need k >= 2, got {k}")
    if G.n > cap:
        raise CapExceeded(f"k-geodetic search capped at n <= {cap}, got {G.n}")
    D = G.distances
    if not any(k in row for row in D):
        return GeodeticResult(None, None, 0)
    # I[u, v] is the k-interval when d(u, v) = k; the shared table stays as it is
    table = [[m if d == k else 0 for m, d in zip(row, du)] for row, du in zip(G.intervals, D)]
    witness = first_cover(table, G.n, extreme_vertices(G))[0]
    return GeodeticResult(witness.bit_count(), vertex_tuple(witness),
                          candidate_rank(witness, G.full_mask))
