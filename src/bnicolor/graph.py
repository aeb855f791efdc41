"""Immutable undirected graphs, line graphs, orientations, and independence search.

Vertex Ids are distinct positive integers. For a freshly built graph they live in
1..n; induced subgraphs keep the original Ids so that Id-based tie-breaking keeps
working down a recursion.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import gcd
from numbers import Integral
from typing import Dict, Iterable, List, Tuple


class GraphError(ValueError):
    pass


class Graph:
    """Simple undirected graph with sorted adjacency lists. Treat as immutable.

    Raises GraphError for a vertex Id that is not a positive integer and,
    naming the first bad edge in input order, for a self-loop, a non-integer
    or unknown endpoint or a duplicate edge (in either orientation).
    """

    __slots__ = ("vertices", "adj", "_adjset", "delta", "id_bound")

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
        self.vertices: Tuple[int, ...] = tuple(vs)
        self.adj: Dict[int, Tuple[int, ...]] = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._adjset = {v: frozenset(ns) for v, ns in self.adj.items()}
        # a self-loop at v lists v twice in adj[v], a duplicate edge lists a
        # neighbor twice: either way the set is shorter than the list
        if any(len(s) != len(self.adj[v]) for v, s in self._adjset.items()):
            _raise_first_bad_edge(vs, edges)
        self.delta = max(map(len, adj.values()), default=0)
        self.id_bound = vs[-1] if vs else 0

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
        return w in self._adjset[u]

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


def edge_ids(g: Graph) -> Dict[Tuple[int, int], int]:
    """The Id of every edge: its 1-based rank in `g.edges()` (lexicographic in
    (min Id, max Id)), so the Ids form the dense range 1..|E| and the dict
    lists the edges in Id order. Line-graph vertices, the direct edge routes
    and the edge-coloring text format all number edges by it."""
    return {e: i + 1 for i, e in enumerate(g.edges())}


class LineGraphMap:
    """Line graph together with the edge <-> vertex correspondence; a
    line-graph vertex Id is the edge's `edge_ids` Id."""

    __slots__ = ("lg", "edge_of", "vertex_of")

    def __init__(self, lg: Graph, edge_of: Dict[int, Tuple[int, int]]):
        self.lg = lg
        self.edge_of = edge_of
        self.vertex_of = {e: v for v, e in edge_of.items()}


def build_line_graph(g: Graph) -> LineGraphMap:
    ids = edge_ids(g)
    lg_edges = []
    for v in g.vertices:
        inc = sorted([ids[(v, w) if v < w else (w, v)] for w in g.adj[v]])
        lg_edges.extend(combinations(inc, 2))
    # Two edges sharing both endpoints are impossible in a simple graph, but
    # edges sharing one endpoint are enumerated once per shared endpoint; a
    # pair can share at most one endpoint, so no duplicates arise.
    edge_of = {i: e for e, i in ids.items()}
    return LineGraphMap(Graph(range(1, len(ids) + 1), lg_edges), edge_of)


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


def independence_at_most(g: Graph, c: int) -> bool:
    """True iff I(G) <= c, by searching each neighborhood for c+1 independent vertices."""
    if c < 0:
        return False
    nbr_bits = _neighbor_bits(g)

    def has_independent(avail: int, need: int) -> bool:
        if need == 0:
            return True
        if bin(avail).count("1") < need:
            return False
        low = avail & -avail
        v = low.bit_length() - 1
        if has_independent((avail & ~nbr_bits[v]) & ~low, need - 1):
            return True
        return has_independent(avail & ~low, need)

    return not any(has_independent(mask, c + 1) for mask in nbr_bits.values())


# -- orientations -------------------------------------------------------------

class Orientation:
    """Per-edge direction assignment: direction[(u, w)] (u < w) is the head."""

    __slots__ = ("graph", "direction")

    def __init__(self, graph: Graph, direction: Dict[Tuple[int, int], int]):
        edges = set(graph.edges())
        if set(direction) != edges:
            raise GraphError("orientation must cover exactly the edge set")
        for (u, w), head in direction.items():
            if head not in (u, w):
                raise GraphError(f"head {head} not an endpoint of ({u},{w})")
        self.graph = graph
        self.direction = dict(direction)

    def out_neighbors(self, v: int) -> List[int]:
        outs = []
        for w in self.graph.adj[v]:
            key = (v, w) if v < w else (w, v)
            if self.direction[key] == w:
                outs.append(w)
        return outs

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbors(v))

    def max_out_degree(self) -> int:
        return max((self.out_degree(v) for v in self.graph.vertices), default=0)

    def topological_order(self) -> List[int]:
        """Vertices ordered so every edge points from later to earlier entries.

        Raises GraphError if the orientation has a directed cycle.
        """
        remaining_out = {v: self.out_degree(v) for v in self.graph.vertices}
        ready = sorted(v for v, d in remaining_out.items() if d == 0)
        order: List[int] = []
        import heapq

        heapq.heapify(ready)
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in self.graph.adj[v]:
                key = (v, w) if v < w else (w, v)
                if self.direction[key] == v:
                    remaining_out[w] -= 1
                    if remaining_out[w] == 0:
                        heapq.heappush(ready, w)
        if len(order) != self.graph.n:
            raise GraphError("orientation contains a directed cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except GraphError:
            return False


def orient_by_color_then_id(g: Graph, colors: Dict[int, int]) -> Orientation:
    """Orient each edge toward the endpoint with the smaller color, Id tie-break.

    With a total coloring the induced order is strict, so the result is acyclic.
    """
    missing = [v for v in g.vertices if v not in colors]
    if missing:
        raise GraphError(f"coloring misses vertices: {missing[:5]}")
    direction = {}
    for u, w in g.edges():
        ku, kw = (colors[u], u), (colors[w], w)
        direction[(u, w)] = u if ku < kw else w
    return Orientation(g, direction)
