"""Independent brute-force checkers. Pure functions of (graph, coloring);
nothing here depends on how a coloring was produced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .coloring import EdgeColoring, VertexColoring
from .graph import Graph, Orientation


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


def check_vertex_coloring(g: Graph, col: VertexColoring) -> VerificationReport:
    """Exact scan: legality, measured defect, palette overflow, defect claim."""
    missing = [v for v in g.vertices if v not in col.colors]
    if missing:
        raise ValueError(f"partial coloring, uncolored vertices: {missing[:10]}")
    if len(col.colors) != g.n:
        extra = sorted(v for v in col.colors if v not in g.adj)
        raise ValueError(f"coloring names vertices the graph lacks: {extra[:10]}")
    violated: List[Tuple[str, object]] = []
    defect = 0
    worst = None
    for v in g.vertices:
        same = sum(1 for u in g.adj[v] if col.colors[u] == col.colors[v])
        if same > defect:
            defect, worst = same, v
    legal = defect == 0
    for v in g.vertices:
        if not (1 <= col.colors[v] <= col.palette):
            violated.append(("palette-overflow", (v, col.colors[v])))
    if defect > col.claimed_defect:
        violated.append(("claimed-defect-exceeded", worst))
    return VerificationReport(legal, defect, col.colors_used(), violated)


def check_edge_coloring(g: Graph, col: EdgeColoring) -> VerificationReport:
    """Incidence analogue of check_vertex_coloring."""
    edges = g.edges()
    missing = [e for e in edges if e not in col.colors]
    if missing:
        raise ValueError(f"partial coloring, uncolored edges: {missing[:10]}")
    if len(col.colors) != len(edges):
        known = set(edges)
        extra = sorted(e for e in col.colors if e not in known)
        raise ValueError(f"coloring names pairs that are not edges of the graph: {extra[:10]}")
    violated: List[Tuple[str, object]] = []
    defect = 0
    worst = None
    for u, w in edges:
        k = col.colors[(u, w)]
        same = 0
        for v in (u, w):
            other = w if v == u else u
            for z in g.adj[v]:
                if z == other:
                    continue
                e2 = (v, z) if v < z else (z, v)
                if col.colors[e2] == k:
                    same += 1
        if same > defect:
            defect, worst = same, (u, w)
    legal = defect == 0
    for e in edges:
        if not (1 <= col.colors[e] <= col.palette):
            violated.append(("palette-overflow", (e, col.colors[e])))
    if defect > col.claimed_defect:
        violated.append(("claimed-defect-exceeded", worst))
    used = len(set(col.colors.values()))
    return VerificationReport(legal, defect, used, violated)


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


def greedy_color_along_orientation(g: Graph, o: Orientation) -> VertexColoring:
    """Color in topological order, smallest color unused by out-neighbors.

    Raises GraphError for a cyclic orientation. Palette <= max out-degree + 1.
    """
    order = o.topological_order()  # raises on cycles
    colors: Dict[int, int] = {}
    for v in order:
        used = {colors[u] for u in o.out_neighbors(v)}
        k = 1
        while k in used:
            k += 1
        colors[v] = k
    return VertexColoring(colors, o.max_out_degree() + 1, 0)


def check_defect_pigeonhole(
    g: Graph,
    phi: VertexColoring,
    psi: VertexColoring,
    p: int,
    Lambda: int,
) -> VerificationReport:
    """Assert |{u in Gamma(v): phi(u) < phi(v), psi(u) = psi(v)}| <= floor(Lambda/p)."""
    for col in (phi, psi):
        missing = [v for v in g.vertices if v not in col.colors]
        if missing:
            raise ValueError(f"partial coloring, uncolored vertices: {missing[:10]}")
    bound = Lambda // p
    violated: List[Tuple[str, object]] = []
    worst = 0
    for v in g.vertices:
        count = sum(
            1
            for u in g.adj[v]
            if phi.colors[u] < phi.colors[v] and psi.colors[u] == psi.colors[v]
        )
        worst = max(worst, count)
        if count > bound:
            violated.append(("pigeonhole", (v, count, bound)))
    rep = check_vertex_coloring(g, psi)
    return VerificationReport(rep.legal, worst, rep.palette_used, violated)
