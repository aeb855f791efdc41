"""The polynomial step and the two-round defective edge labeling.

`choose_point` and `step_color` are the polynomial step that every Linial
iteration and the single-shot defective recoloring share. The Linial
coloring, the recoloring and the palette reduction run as phases of
`legal.RecursiveColorProgram`, which `legal.linial_coloring` also runs; only
the two-round defective edge labeling (`KuhnEdgeProgram`) stays a program of
its own here. `label_color` is the one edge-label rule, which it and the
direct edge route's levels (`edgecolor.EdgeColorProgram`) both apply.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .coloring import EdgeColoring
from .graph import Graph, knowledge
from .numbers import PolyPlan, agreement_counts, poly_coeffs, poly_eval
from .params import ParamError
from .sim import Context, Message, SimError, SimReport, VertexProgram, run


def choose_point(
    own_color: int, nbr_colors: List[int], plan: PolyPlan
) -> Tuple[int, int]:
    """Evaluation point minimizing polynomial agreements with the neighbors.

    Returns (x, number of agreements); ties broken toward smaller x. With
    q > k*|nbrs| the minimum is 0 and the step preserves legality.
    """
    counts = agreement_counts(own_color, nbr_colors, plan)
    x = int(counts.argmin())
    return x, int(counts[x])


def step_color(own_color: int, x: int, plan: PolyPlan) -> int:
    value = poly_eval(poly_coeffs(own_color, plan.k, plan.q), x, plan.q)
    return x * plan.q + value + 1


def label_color(mine: int, other: int, vid: int, u: int, pp: int) -> int:
    """The color in 1..pp^2 of the edge (vid, u) whose round-robin labels in
    1..pp are mine at vid and other at u: the label pair ordered by endpoint Id."""
    lo, hi = (mine, other) if vid < u else (other, mine)
    return (lo - 1) * pp + hi


class KuhnEdgeProgram(VertexProgram):
    """Round-robin edge labels; color = ordered label pair; 2 rounds."""

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.pp = ctx.params["p_prime"]
        self.labels = {
            u: 1 + i % self.pp for i, u in enumerate(ctx.neighbors)
        }
        self.colors: Dict[int, int] = {}
        self.confirm: Dict[int, int] = {}

    def step(self, round_no, inbox):
        if round_no == 1:
            if not self.ctx.neighbors:
                self.output = {}
            return {
                u: Message((self.labels[u] - 1, self.pp)) for u in self.ctx.neighbors
            }
        if round_no == 2:
            for u, msg in inbox:
                other = msg.fields[0][0] + 1
                self.colors[u] = label_color(self.labels[u], other, self.ctx.vid, u, self.pp)
            return {
                u: Message((self.colors[u] - 1, self.pp * self.pp))
                for u in self.ctx.neighbors
            }
        for u, msg in inbox:
            self.confirm[u] = msg.fields[0][0] + 1
        if len(self.confirm) == len(self.ctx.neighbors):
            if self.confirm != self.colors:
                raise SimError(f"vertex {self.ctx.vid}: endpoint color mismatch")
            self.output = dict(self.colors)
        return {}


def kuhn_defective_edge(g: Graph, p_prime: int) -> Tuple[EdgeColoring, SimReport]:
    """4*ceil(delta/p')-defective p'^2-edge-coloring in exactly 2 rounds."""
    delta = knowledge(g).delta
    if not (1 <= p_prime <= delta):
        raise ParamError(f"p_prime must be in 1..delta, got {p_prime}")
    report = run(g, KuhnEdgeProgram, msg_mode="wide", params={"p_prime": p_prime})
    claimed = 4 * (-(-delta // p_prime)) if g.m else 0  # no edge, no defect
    return _merge_edge_outputs(g, report, p_prime * p_prime, claimed), report


def _merge_edge_outputs(
    g: Graph, report: SimReport, palette: int, claimed: int = 0
) -> EdgeColoring:
    """The edge coloring both endpoints of every edge reported; they must agree."""
    colors: Dict[Tuple[int, int], int] = {}
    for u, w in g.edges():
        cu = report.outputs[u][w]
        cw = report.outputs[w][u]
        if cu != cw:
            raise SimError(f"endpoints disagree on edge ({u},{w}): {cu} vs {cw}", report)
        colors[(u, w)] = cu
    return EdgeColoring(colors, palette, claimed)
