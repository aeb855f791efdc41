"""Code that only the tests use: independent oracles for properties the
library's algorithms rely on but never compute themselves, and the writers of
the coloring text formats that `bnicolor verify` parses."""

from __future__ import annotations

from bnicolor.coloring import ColoringError, EdgeColoring, VertexColoring
from bnicolor.graph import Graph, _neighbor_bits, edge_ids


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
