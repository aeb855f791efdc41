"""Coloring value types and their text serialization.

Text format: header line `palette P defect D`, then one line per item. Vertex
colorings use `id color`; edge colorings use the edge's `graph.edge_ids` Id,
which is also its line-graph vertex Id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .graph import Graph, edge_ids


class ColoringError(ValueError):
    pass


@dataclass
class VertexColoring:
    colors: Dict[int, int]
    palette: int
    claimed_defect: int = 0

    def colors_used(self) -> int:
        return len(set(self.colors.values()))

    def classes(self) -> Dict[int, list]:
        out: Dict[int, list] = {}
        for v, k in sorted(self.colors.items()):
            out.setdefault(k, []).append(v)
        return out


@dataclass
class EdgeColoring:
    colors: Dict[Tuple[int, int], int]
    palette: int
    claimed_defect: int = 0

    def colors_used(self) -> int:
        return len(set(self.colors.values()))


def format_vertex_coloring(col: VertexColoring) -> str:
    lines = [f"palette {col.palette} defect {col.claimed_defect}"]
    lines.extend(f"{v} {k}" for v, k in sorted(col.colors.items()))
    return "\n".join(lines) + "\n"


def _int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ColoringError(f"non-integer {token!r} in line {line!r}") from None


def parse_vertex_coloring(text: str) -> VertexColoring:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ColoringError("empty coloring file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "palette" or head[2] != "defect":
        raise ColoringError("header must be 'palette P defect D'")
    palette, defect = _int(head[1], lines[0]), _int(head[3], lines[0])
    colors = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ColoringError(f"bad line: {ln!r}")
        v, k = _int(parts[0], ln), _int(parts[1], ln)
        if v in colors:
            raise ColoringError(f"duplicate entry for {v}")
        colors[v] = k
    return VertexColoring(colors, palette, defect)


def format_edge_coloring(g: Graph, col: EdgeColoring) -> str:
    ids = edge_ids(g)
    missing = [e for e in ids if e not in col.colors]
    if missing:
        raise ColoringError(f"coloring misses edges: {missing[:5]}")
    lines = [f"palette {col.palette} defect {col.claimed_defect}"]
    lines.extend(f"{i} {col.colors[e]}" for e, i in ids.items())
    return "\n".join(lines) + "\n"


def parse_edge_coloring(g: Graph, text: str) -> EdgeColoring:
    vc = parse_vertex_coloring(text)
    edge_of = {i: e for e, i in edge_ids(g).items()}
    colors = {}
    for eid, k in vc.colors.items():
        if eid not in edge_of:
            raise ColoringError(f"edge id {eid} out of range 1..{len(edge_of)}")
        colors[edge_of[eid]] = k
    return EdgeColoring(colors, vc.palette, vc.claimed_defect)
