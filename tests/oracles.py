"""Code that only the tests use: independent oracles for properties the
library's algorithms rely on but never compute themselves, and the writers of
the coloring text formats that `bnicolor verify` parses."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from bnicolor.coloring import ColoringError, EdgeColoring, VertexColoring
from bnicolor.graph import Graph, _neighbor_bits, edge_ids
from bnicolor.verify import VerificationReport, check_vertex_coloring


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


def level_profile(g: Graph, hists: Dict[int, Sequence[int]]) -> List[int]:
    """Entry i: the largest degree of g inside one class of vertices whose psi
    histories agree on their first i values, for i from 0 (g's max degree) to
    the history length. A plan with bounds `RecursionPlan.lambdas` keeps entry
    i at most lambdas[i]."""
    depth = {len(h) for h in hists.values()}
    if len(depth) > 1:
        raise ValueError(f"psi histories of different lengths: {sorted(depth)}")
    profile = []
    for i in range(max(depth, default=0) + 1):
        cls = {v: tuple(h[:i]) for v, h in hists.items()}
        profile.append(max((sum(cls[u] == cls[v] for u in g.adj[v]) for v in g.vertices), default=0))
    return profile


def format_vertex_coloring(col: VertexColoring) -> str:
    lines = [f"palette {col.palette} defect {col.claimed_defect}"]
    lines.extend(f"{v} {k}" for v, k in sorted(col.colors.items()))
    return "\n".join(lines) + "\n"


def format_edge_coloring(g: Graph, col: EdgeColoring) -> str:
    ids = edge_ids(g)
    missing = [e for e in ids if e not in col.colors]
    if missing:
        raise ColoringError(f"coloring misses edges: {missing[:5]}")
    lines = [f"palette {col.palette} defect {col.claimed_defect}"]
    lines.extend(f"{i} {col.colors[e]}" for e, i in ids.items())
    return "\n".join(lines) + "\n"


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
