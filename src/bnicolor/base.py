"""Base coloring subroutines as vertex programs.

These implement the prior-work contracts the recursive algorithms build on:
an iterated polynomial log*-time coloring and the two-round defective edge
labeling, plus the polynomial step (`choose_point`, `step_color`) that the
Linial iterations and the single-shot defective recoloring share. The
recoloring and the palette reduction run as phases of
`legal.RecursiveColorProgram`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .coloring import EdgeColoring, VertexColoring
from .graph import Graph
from .numbers import (
    PolyPlan,
    agreement_counts,
    linial_schedule,
    poly_coeffs,
    poly_eval,
)
from .sim import Context, Message, SimError, SimReport, VertexProgram, run

# recorded implementation constants (measured; asserted stable by the tests)
C_LIN = 9  # linial palette <= C_LIN * delta^2 (delta >= 1)


def choose_point(
    own_color: int, nbr_colors: List[int], plan: PolyPlan
) -> Tuple[int, int]:
    """Evaluation point minimizing polynomial agreements with the neighbors.

    Returns (x, number of agreements); ties broken toward smaller x. With
    q > k*|nbrs| the minimum is 0 and the step preserves legality.
    """
    counts = agreement_counts(own_color, nbr_colors, plan)
    x = int(np.argmin(counts))
    return x, int(counts[x])


def step_color(own_color: int, x: int, plan: PolyPlan) -> int:
    value = poly_eval(poly_coeffs(own_color, plan.k, plan.q), x, plan.q)
    return x * plan.q + value + 1


class Outbox(dict):
    """One step's outbox, neighbor Id -> list of Messages, filled by broadcasts.

    The first broadcast puts one shared batch under every target, and later
    broadcasts to the same target sequence (the same object, not mutated in
    between) append to it once. A broadcast to other targets first gives
    every destination its own copy and then appends per target. Each
    destination's messages, and their order, are those of a per-target
    `setdefault(u, []).append(msg)`.
    """

    __slots__ = ("_targets", "_batch")

    def __init__(self):
        self._targets = None  # the targets sharing self._batch, if any

    def broadcast(self, targets, msg: Message):
        if targets is self._targets:
            self._batch.append(msg)
        elif not self:
            self._targets, self._batch = targets, [msg]
            self.update(dict.fromkeys(targets, self._batch))
        else:
            if self._targets is not None:
                for u in self._targets:
                    self[u] = list(self._batch)
                self._targets = None
            for u in targets:
                self.setdefault(u, []).append(msg)


class LinialProgram(VertexProgram):
    """Iterated polynomial palette reduction; one round per iteration."""

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.plans: List[PolyPlan] = ctx.params["plans"]
        self.cur = ctx.vid
        self.j = 0  # completed iterations
        self.nbr: Dict[int, Dict[int, int]] = {u: {0: u} for u in ctx.neighbors}

    def step(self, round_no, inbox):
        for u, msg in inbox:
            it, col = msg.fields[0][0], msg.fields[1][0]
            self.nbr[u][it] = col + 1
        out = Outbox()
        while self.j < len(self.plans) and all(
            self.j in self.nbr[u] for u in self.ctx.neighbors
        ):
            plan = self.plans[self.j]
            x, _ = choose_point(
                self.cur, [self.nbr[u][self.j] for u in self.ctx.neighbors], plan
            )
            self.cur = step_color(self.cur, x, plan)
            self.j += 1
            msg = Message((self.j, len(self.plans) + 1), (self.cur - 1, plan.palette))
            out.broadcast(self.ctx.neighbors, msg)
        if self.j == len(self.plans):
            self.output = self.cur
        return out


def linial_coloring(g: Graph) -> Tuple[VertexColoring, SimReport]:
    """Legal coloring with palette <= C_LIN * delta^2, in O(log* n) rounds."""
    if g.n == 0:
        return VertexColoring({}, 1, 0), SimReport(0, 0, 0, {})
    plans = linial_schedule(g.id_bound, max(g.delta, 1))
    palette = plans[-1].palette if plans else g.id_bound
    report = run(g, LinialProgram, msg_mode="wide", params={"plans": plans})
    col = VertexColoring(dict(report.outputs), max(palette, 1), 0)
    report.extra["palette"] = col.palette
    return col, report


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
                mine = self.labels[u]
                lo, hi = (mine, other) if self.ctx.vid < u else (other, mine)
                self.colors[u] = (lo - 1) * self.pp + hi
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
    if not (1 <= p_prime <= max(g.delta, 1)):
        raise ValueError(f"p_prime must be in 1..delta, got {p_prime}")
    report = run(g, KuhnEdgeProgram, msg_mode="wide", params={"p_prime": p_prime})
    claimed = 4 * (-(-g.delta // p_prime)) if g.delta else 0
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
