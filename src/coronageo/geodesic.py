"""Geodetic sets, and the (k-)geodetic number by exact search."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from operator import and_

from .errors import CapExceeded, DomainError
from .graphs import Graph, Mask, blocks, extreme_vertices, induced_rows, is_connected, vertex_tuple
from .subsets import candidate_rank, first_cover, set_patterns

DEFAULT_GEODETIC_CAP = 20
_BLOCK_PICK_CACHE_SIZE = 4096  # block searches that ``_block_pick`` keeps, across calls


class GeodeticResult(namedtuple("GeodeticResult", "value witness explored")):
    """Outcome of a minimum-set search.

    ``value is None`` means no set exists (k-geodetic search with no vertex
    pair at distance exactly k); this is an answer, not an error.
    ``explored`` is the witness's 1-based rank among the nonempty candidates
    in canonical order, computed from the witness by
    ``subsets.candidate_rank``, not counted by the search.
    """

    __slots__ = ()

    @property
    def unsatisfiable(self) -> bool:
        return self.value is None


def is_geodetic(G: Graph, members: Mask) -> bool:
    """True when the intervals I[u, v] over pairs of the set, with the set
    itself, cover every vertex."""
    I = G.intervals  # as in ``geodetic_families``
    if not is_connected(G):
        raise DomainError("geodetic sets are defined for connected graphs")
    if members == 0:
        raise DomainError("geodetic sets are nonempty")
    if members & ~G.full_mask:
        raise DomainError("vertex set is not within the graph")
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


def geodetic_sets(G: Graph, *, cap: int = DEFAULT_GEODETIC_CAP) -> int:
    """An int of 2^n bits whose bit W is set exactly when the vertex set W
    is geodetic.

    w is in the closure of W when w is in W, or when some pair u < v of W
    has w in I[u, v].  So with ``Q[u]`` the sets that hold u, the sets whose
    closure holds w are ``cover[w]`` = Q[w] OR the Q[u] & Q[v] over the pairs
    with w in I[u, v], and the geodetic sets are the AND of every
    ``cover[w]``: about n^3 / 2 operations on 2^n-bit ints, one bit per set
    (the word-parallel idea of Knuth, TAOCP 4A, §7.1.3).  No Q[u] holds bit
    0, so the empty set is never geodetic.  The k-geodetic sets are
    ``geodetic_families(G, k)[1]``.
    """
    return geodetic_families(G, None, cap=cap)[0]


def geodetic_families(G: Graph, k: int | None, *, cap: int = DEFAULT_GEODETIC_CAP) -> tuple[int, int]:
    """The geodetic and the k-geodetic family, in the form of
    ``geodetic_sets``, from one pass over the vertex pairs: the pairs at
    distance k (the only ones a k-geodetic set counts, as in
    ``k_geodetic_number``) go into ``cover`` first, and its AND is the
    k-family, 0 when no pair is at distance k or k is None; the other pairs
    at distance 2 or more, set aside, follow, and the AND again is the
    geodetic family."""
    D, I = G.distances, G.intervals  # before ``is_connected``, which reads D once built
    _require_connected(G)
    if k is not None and k < 2:
        raise DomainError(f"k-geodetic sets need k >= 2, got {k}")
    if G.n > cap:
        raise CapExceeded(f"geodetic search capped at n <= {cap}, got {G.n}")
    Q = set_patterns(G.n)
    at_k, others = [], []
    for u, (row, du) in enumerate(zip(I, D)):
        for v in range(u + 1, G.n):
            if (d := du[v]) > 1:  # a pair at distance 1 covers only itself
                (at_k if d == k else others).append((Q[u] & Q[v], row[v] & ~(1 << u | 1 << v)))
    cover = list(Q)
    families = []
    for pairs in (at_k, others):
        for both, inner in pairs:
            while inner:
                low = inner & -inner
                cover[low.bit_length() - 1] |= both
                inner ^= low
        families.append(reduce(and_, cover))
    return families[1], families[0] if at_k else 0


@lru_cache(maxsize=_BLOCK_PICK_CACHE_SIZE)
def _block_pick(rows: tuple[Mask, ...], forced: Mask) -> Mask:
    """The free vertices (those outside ``forced``) that ``first_cover``
    adds in the graph with adjacency ``rows``, as a mask of its labels.

    The pick depends on nothing else, so blocks alike up to ``induced_rows``
    share one search, within a graph and across graphs; a graph that is one
    block is such a block too, with its extreme vertices forced.
    """
    g = Graph._trusted(rows)
    return first_cover(g.intervals, g.n, forced) & ~forced


def geodetic_number(G: Graph, *, cap: int = DEFAULT_GEODETIC_CAP) -> GeodeticResult:
    """Minimum geodetic set by exact search, block by block.

    Candidates are the supersets of the extreme vertices X (every geodetic
    set contains them), by cardinality then lexicographic order; the
    witness is the first geodetic one, and ``explored`` its rank among the
    nonempty candidates.  Let C be the cut vertices and, for a block B,
    C_B = B ∩ C and F_B = B minus (C ∪ X), its free vertices.  Each
    block with F_B nonempty runs ``first_cover`` on its own subgraph G[B],
    relabeled by ``induced_rows``, with B minus F_B = C_B ∪ (X ∩ B) forced,
    and picks the first subset of F_B that passes.  ``_block_pick`` keeps
    each pick by the block's rows and forced mask, so alike blocks, such as
    the n1 copies of K1 ⊙ H in G ⊙ H, are searched once, and the graph's own
    tables are not built.  A graph that is one block, K1 ⊙ H among them, has
    C empty and is its own block, with X forced.  The witness is X with
    every pick, and ``explored`` is its ``subsets.candidate_rank`` with X
    forced.

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
    closure of C_B ∪ (X ∩ B) ∪ (S ∩ F_B).
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
    (6) Subgraphs.  A block is isometric: a path that leaves B returns
    through the cut vertex it left by, so no geodesic between two vertices
    of B leaves it.  So G[B]'s intervals are G's between vertices of B, and
    the search on G[B] with C_B ∪ (X ∩ B) forced runs step (3)'s test on
    S ∩ F_B.  The relabeling keeps the order of F_B, so it picks the first
    least subset of F_B that passes, as (5) needs.
    """
    _require_connected(G)
    if G.n > cap:
        raise CapExceeded(f"geodetic search capped at n <= {cap}, got {G.n}")
    ext = extreme_vertices(G)
    parts = blocks(G)
    cut = seen = 0
    for b in parts:
        cut |= seen & b
        seen |= b
    witness = ext
    for b in parts:
        free = b & ~(cut | ext)
        if not free:
            continue
        vs = vertex_tuple(b)
        forced = sum(1 << i for i, v in enumerate(vs) if not free >> v & 1)
        pick = _block_pick(induced_rows(G, b), forced)
        while pick:
            low = pick & -pick
            witness |= 1 << vs[low.bit_length() - 1]
            pick ^= low
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
    D, I = G.distances, G.intervals  # as in ``geodetic_families``
    _require_connected(G)
    if k < 2:
        raise DomainError(f"k-geodetic sets need k >= 2, got {k}")
    if G.n > cap:
        raise CapExceeded(f"k-geodetic search capped at n <= {cap}, got {G.n}")
    if not any(k in row for row in D):
        return GeodeticResult(None, None, 0)
    # I[u, v] is the k-interval when d(u, v) = k; the shared table stays as it is
    table = [[m if d == k else 0 for m, d in zip(row, du)] for row, du in zip(I, D)]
    witness = first_cover(table, G.n, extreme_vertices(G))
    return GeodeticResult(witness.bit_count(), vertex_tuple(witness),
                          candidate_rank(witness, G.full_mask))
