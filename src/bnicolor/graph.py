"""Immutable undirected graphs, what a vertex knows of one, line graphs, and
independence search.

Vertex Ids are distinct positive integers. For a freshly built graph they live in
1..n; induced subgraphs keep the original Ids so that Id-based tie-breaking keeps
working down a recursion. Every route sizes its plan from `knowledge(g)`, the
one reader of a graph's Id bound and the one place its clamps are written, or
from `edge_knowledge(g)`.

A `Graph` is its sorted adjacency: `vertices`, `adj` (each vertex's sorted
neighbor tuple), `delta` and `id_bound`, with no per-vertex neighbor set.
`Graph._fill` sets these fields from a sorted adjacency. The constructor calls
it once the edge list has passed its checks; `graph_from_sorted_adjacency`
calls it, unchecked, for the two builders whose adjacency is right by
construction: `build_line_graph`, from the host's incidence lists, and
`generators.random_gnd`, from its degree-cap pass, with no edge list in
between.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from math import gcd
from numbers import Integral
from typing import Dict, Iterable, List, NamedTuple, Tuple


class GraphError(ValueError):
    pass


class Graph:
    """Simple undirected graph with sorted adjacency lists. Treat as immutable.

    Raises GraphError for a vertex Id that is not a positive integer and,
    naming the first bad edge in input order, for a self-loop, a non-integer
    or unknown endpoint or a duplicate edge (in either orientation).
    """

    __slots__ = ("vertices", "adj", "delta", "id_bound")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Tuple[int, int]]):
        vertices = list(vertices)
        for v in vertices:
            if not _is_id(v):
                raise GraphError(f"vertex Ids must be positive integers, got {v!r}")
        vs = sorted(set(vertices))
        if vs and vs[0] <= 0:
            raise GraphError("vertex Ids must be positive integers")
        edges = list(edges)
        adj: Dict[int, List[int]] = {v: [] for v in vs}
        try:
            for u, w in edges:
                adj[u].append(w)
                adj[w].append(u)
            # an endpoint equal to a vertex Id but not an integer (1.0) found
            # that vertex above; gcd takes integers of any size and nothing else
            gcd(*chain.from_iterable(adj.values()))
        except (KeyError, TypeError):
            _raise_first_bad_edge(vs, edges)
        self._fill({v: tuple(sorted(ns)) for v, ns in adj.items()})
        # a self-loop at v lists v twice in adj[v], a duplicate edge lists a
        # neighbor twice: either way the tuple's set is shorter than the tuple
        if any(len(set(ns)) != len(ns) for ns in self.adj.values()):
            _raise_first_bad_edge(vs, edges)

    def _fill(self, adj: Dict[int, Tuple[int, ...]]):
        """Set every field from `adj`: each vertex's sorted neighbor tuple,
        with the vertices in ascending order. The one place the fields are set."""
        self.vertices: Tuple[int, ...] = tuple(adj)
        self.adj = adj
        self.delta = max(map(len, adj.values()), default=0)
        self.id_bound = self.vertices[-1] if adj else 0

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self.adj.values()) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, w: int) -> bool:
        return w in self.adj[u]

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, w) with u < w, lexicographically sorted."""
        return [(u, w) for u in self.vertices for w in self.adj[u] if u < w]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.adj == other.adj
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, delta={self.delta})"


class Knowledge(NamedTuple):
    """What every vertex knows of the whole graph in the LOCAL model: the Id
    bound N, the vertex count n and the maximum degree delta. Plans are sized
    from it alone; `knowledge` builds it from a graph."""

    N: int
    n: int
    delta: int

    @property
    def edge_degree(self) -> int:
        """2(delta - 1): the most edges that share an endpoint with one edge."""
        return 2 * (self.delta - 1)


def knowledge(g: Graph) -> Knowledge:
    """g's knowledge, with N and delta at least 1 so that every plan is defined."""
    return Knowledge(max(g.id_bound, 1), g.n, max(g.delta, 1))


def edge_knowledge(g: Graph) -> Knowledge:
    """What every edge knows of g's edges: the edge-Id bound N (the dense
    `edge_ids` rank: m, at least 1), n = m and `edge_degree`, at least 1."""
    m = g.m
    return Knowledge(max(m, 1), m, max(knowledge(g).edge_degree, 1))


def _is_id(x) -> bool:
    # int first: the Integral check alone is an ABC lookup, ~20x slower
    return isinstance(x, (int, Integral))


def _raise_first_bad_edge(vs: List[int], edges: List[Tuple[int, int]]):
    """Raise the GraphError for the first edge that is a self-loop, has a
    non-integer or unknown endpoint or repeats an earlier edge."""
    vset = set(vs)
    seen = set()
    for u, w in edges:
        if not (_is_id(u) and _is_id(w)):
            raise GraphError(f"edge ({u!r},{w!r}) has a non-integer endpoint")
        if u == w:
            raise GraphError(f"self-loop at {u}")
        if u not in vset or w not in vset:
            raise GraphError(f"edge ({u},{w}) uses unknown vertex")
        key = (u, w) if u < w else (w, u)
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
    raise GraphError("inconsistent edge list")


def graph_from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Graph on vertex set {1..n}."""
    return Graph(range(1, n + 1), edges)


def graph_from_sorted_adjacency(adj: Dict[int, Tuple[int, ...]]) -> Graph:
    """The graph whose adjacency is `adj`, taken as it stands: each vertex's
    sorted neighbor tuple, the vertices in ascending order, every edge listed
    at both ends. Nothing is checked; it is for builders whose adjacency is
    right by construction (`build_line_graph`, `generators.random_gnd`)."""
    g = Graph.__new__(Graph)
    g._fill(adj)
    return g


def _int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"non-integer {token!r} in line {line!r}") from None


def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` / `u v` edge-list format. Rejects malformed input."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError("header must be 'n m'")
    n, m = _int(head[0], lines[0]), _int(head[1], lines[0])
    if n < 0 or m < 0:
        raise GraphError("negative n or m")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        u, w = _int(parts[0], ln), _int(parts[1], ln)
        if not (1 <= u < w <= n):
            raise GraphError(f"edge ({u},{w}) violates 1 <= u < w <= n")
        edges.append((u, w))
    return graph_from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    if g.vertices and g.vertices != tuple(range(1, g.n + 1)):
        raise GraphError("edge-list format requires Ids 1..n")
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def induced_subgraph(g: Graph, subset: Iterable[int]) -> Graph:
    sub = set(subset)
    unknown = sub.difference(g.vertices)
    if unknown:
        raise GraphError(f"subset contains non-vertices: {sorted(unknown)[:5]}")
    edges = [
        (u, w) for u in sub for w in g.adj[u] if u < w and w in sub
    ]
    return Graph(sub, edges)


def ball(g: Graph, center: int, radius: int) -> Graph:
    """Induced subgraph on all vertices within `radius` hops of `center`."""
    frontier = {center}
    seen = {center}
    for _ in range(radius):
        frontier = {w for v in frontier for w in g.adj[v]} - seen
        seen |= frontier
    return induced_subgraph(g, seen)


# the report flag that says a route numbered edges by `edge_ids`, a global rank
EDGE_IDS_FLAG = "setup: edge Ids assigned by global dense rank"


def edge_ids(g: Graph) -> Dict[Tuple[int, int], int]:
    """The Id of every edge: its 1-based rank in `g.edges()` (lexicographic in
    (min Id, max Id)), so the Ids form the dense range 1..|E| and the dict
    lists the edges in Id order. Line-graph vertices, the direct edge routes
    and the edge-coloring text format all number edges by it;
    `build_line_graph` relies on the dict's order to fill sorted incidence
    lists."""
    return {e: i + 1 for i, e in enumerate(g.edges())}


class LineGraphMap(NamedTuple):
    """Line graph together with the host edge of each of its vertices; a
    line-graph vertex Id is the edge's `edge_ids` Id."""

    lg: Graph
    edge_of: Dict[int, Tuple[int, int]]


def build_line_graph(g: Graph) -> LineGraphMap:
    """L(g) with its vertices numbered by `edge_ids`, built from g's incidence
    lists: edge i = (u, w) meets every other edge in inc[u] and inc[w]."""
    ids = edge_ids(g)
    inc: Dict[int, List[int]] = {v: [] for v in g.vertices}
    # filled in Id order, so every incidence list comes out sorted
    for (u, w), i in ids.items():
        inc[u].append(i)
        inc[w].append(i)
    adj: Dict[int, Tuple[int, ...]] = {}
    for (u, w), i in ids.items():
        # sorting two sorted runs is one merge; i is the one edge in both lists
        # (no parallel edges), so it sits twice in a row and every other Id once
        ns = sorted(inc[u] + inc[w])
        k = bisect_left(ns, i)
        del ns[k : k + 2]
        adj[i] = tuple(ns)
    return LineGraphMap(graph_from_sorted_adjacency(adj), {i: e for e, i in ids.items()})


# -- neighborhood independence ------------------------------------------------

INDEPENDENCE_CAP = 512


def _neighbor_bits(g: Graph) -> Dict[int, int]:
    """Vertex index -> bitmask of its neighbors' indices, in `g.vertices` order."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    return {idx[v]: sum(1 << idx[w] for w in g.adj[v]) for v in g.vertices}


def _max_independent_in(mask: int, nbr_bits: Dict[int, int]) -> int:
    """Exact maximum independent set size within the vertex set `mask`."""
    best = 0

    def grow(avail: int, size: int):
        nonlocal best
        if size + bin(avail).count("1") <= best:
            return
        if avail == 0:
            best = max(best, size)
            return
        # branch on the lowest available vertex: either take it or not
        low = avail & -avail
        v = low.bit_length() - 1
        grow((avail & ~nbr_bits[v]) & ~low, size + 1)
        rest = avail & ~low
        if size + bin(rest).count("1") > best:
            grow(rest, size)

    grow(mask, 0)
    return best


def neighborhood_independence(g: Graph) -> int:
    """Exact I(G): the largest independent subset of any single neighborhood.

    Edgeless graphs return 0. Refuses graphs with max degree above
    `INDEPENDENCE_CAP` (the per-neighborhood search is exponential in the
    degree only).
    """
    if g.n == 0:
        raise GraphError("neighborhood independence of an empty graph is undefined")
    if g.delta > INDEPENDENCE_CAP:
        raise GraphError(f"max degree {g.delta} exceeds independence cap {INDEPENDENCE_CAP}")
    nbr_bits = _neighbor_bits(g)
    best = 0
    for mask in nbr_bits.values():
        if bin(mask).count("1") <= best:
            continue
        best = max(best, _max_independent_in(mask, nbr_bits))
    return best

