"""Independent brute-force checkers. Pure functions of (graph, coloring);
nothing here depends on how a coloring was produced.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .coloring import EdgeColoring, VertexColoring
from .graph import Graph


@dataclass
class VerificationReport:
    legal: bool
    measured_defect: int
    palette_used: int
    violated: List[Tuple[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violated

    def to_dict(self) -> dict:
        return {
            "legal": self.legal,
            "measured_defect": self.measured_defect,
            "palette_used": self.palette_used,
            "violated": [[claim, repr(w)] for claim, w in self.violated],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _check(items, col, nouns, agreeing) -> VerificationReport:
    """The exact scan both checkers share. items lists every vertex or every
    edge of the graph; nouns name them and the items outside it in a refusal.
    Once col colors exactly the items, agreeing() gives each item's count of
    neighbors of its color, in item order."""
    c = col.colors
    missing = [x for x in items if x not in c]
    if missing:
        raise ValueError(f"partial coloring, uncolored {nouns[0]}: {missing[:10]}")
    if len(c) != len(items):
        known = set(items)
        extra = sorted(x for x in c if x not in known)
        raise ValueError(f"coloring names {nouns[1]}: {extra[:10]}")
    same = agreeing()
    defect = max(same, default=0)
    worst = items[same.index(defect)] if defect else None
    violated = [("palette-overflow", (x, c[x])) for x in items if not 1 <= c[x] <= col.palette]
    if defect > col.claimed_defect:
        violated.append(("claimed-defect-exceeded", worst))
    return VerificationReport(defect == 0, defect, col.colors_used(), violated)


def check_vertex_coloring(g: Graph, col: VertexColoring) -> VerificationReport:
    """Exact scan: legality, measured defect, palette overflow, defect claim."""
    c = col.colors
    return _check(
        g.vertices,
        col,
        ("vertices", "vertices the graph lacks"),
        lambda: [[c[u] for u in g.adj[v]].count(c[v]) for v in g.vertices],
    )


def check_edge_coloring(g: Graph, col: EdgeColoring) -> VerificationReport:
    """Incidence analogue of check_vertex_coloring: an edge's defect is the
    number of edges of its color at its two endpoints, itself excluded."""
    edges, c = g.edges(), col.colors

    def agreeing():
        at: Dict[int, Counter] = {v: Counter() for v in g.vertices}
        for u, w in edges:
            at[u][c[u, w]] += 1
            at[w][c[u, w]] += 1
        return [at[u][c[u, w]] + at[w][c[u, w]] - 2 for u, w in edges]

    return _check(edges, col, ("edges", "pairs that are not edges of the graph"), agreeing)


BRUTE_CHI_CAP = 14


def brute_chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound; capped at 14 vertices."""
    if g.n > BRUTE_CHI_CAP:
        raise ValueError(f"brute_chromatic_number capped at {BRUTE_CHI_CAP} vertices")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    # order vertices by degree (descending) for earlier pruning
    order = sorted(g.vertices, key=lambda v: -g.degree(v))
    best = [g.n]
    colors: Dict[int, int] = {}

    def assign(i: int, used: int):
        if used >= best[0]:
            return
        if i == len(order):
            best[0] = used
            return
        v = order[i]
        forbidden = {colors[u] for u in g.adj[v] if u in colors}
        for k in range(1, used + 1):
            if k not in forbidden:
                colors[v] = k
                assign(i + 1, used)
                del colors[v]
        # symmetry pruning: only the single next fresh color is worth trying
        if used + 1 < best[0]:
            colors[v] = used + 1
            assign(i + 1, used + 1)
            del colors[v]

    assign(0, 0)
    return best[0]


def greedy_color_by_key(g: Graph, key: Dict[int, int]) -> VertexColoring:
    """Greedy coloring along the orientation of every edge toward its smaller
    (key, Id) end: in ascending (key, Id) order, each vertex takes the smallest
    color none of its already-colored neighbors, its out-neighbors, has.
    Palette: the largest out-degree + 1."""
    missing = [v for v in g.vertices if v not in key]
    if missing:
        raise ValueError(f"key misses vertices: {missing[:10]}")
    colors: Dict[int, int] = {}
    max_out = 0
    for v in sorted(g.vertices, key=lambda v: (key[v], v)):
        used = [colors[u] for u in g.adj[v] if u in colors]
        max_out = max(max_out, len(used))
        colors[v] = min(set(range(1, len(used) + 2)).difference(used))
    return VertexColoring(colors, max_out + 1, 0)
