"""Randomized coloring and the g(delta) color/time tradeoff.

Both extensions reuse the recursive program by prepending one synthetic level:
the randomized variant picks the first-level class uniformly at random (zero
communication), the tradeoff variant takes the single-shot defective recoloring
of a `legal.level_plans` level as the class (no recolor loop) before
`legal.legal_plan`'s levels. Both hand the plan to `legal.run_plan`; `run`
stays imported for a benchmark patch.

Randomness comes only from `legal.draw_classes`, a counter-based generator
keyed by (seed, vertex Id) that draws every class before the run starts, so
draws are independent of execution order and runs are reproducible from
(graph, params). The tradeoff variant draws nothing and is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Tuple

from .coloring import VertexColoring
from .graph import Graph, Knowledge, knowledge
from .legal import (
    LevelPlan,
    RecursionPlan,
    bottom_plan,
    draw_classes,
    legal_color,
    legal_plan,
    level_plans,
    run_plan,
)
from .params import DefectiveParams, ParamError, ParamReader, preset_improved_s42
from .sim import SimReport, run
from .verify import check_vertex_coloring


@dataclass(frozen=True)
class RandomizedParams:
    kappa: float = 2.0
    eta: float = 0.5
    seed: int = 0

    def validate(self):
        if not self.kappa > 1:
            raise ParamError(f"kappa must exceed 1, got {self.kappa}")
        if not self.eta > 0:
            raise ParamError(f"eta must be positive, got {self.eta}")


GFn = Callable[[int], float]


@dataclass(frozen=True)
class TradeoffParams:
    g_fn: str  # "const:k", "power:a", or "log"
    eta: float

    def validate(self, delta: int) -> float:
        """Refuse eta and g_fn, else return q = g(delta) ** (1 / (1 - eta))."""
        if not (0 < self.eta < 1):
            raise ParamError(f"eta must be in (0, 1), got {self.eta}")
        fn = self.resolve()
        probe = sorted({1, 2, max(delta // 2, 1), max(delta, 1)})
        try:
            values = [fn(d) for d in probe]
            q = values[-1] ** (1.0 / (1.0 - self.eta))
        except OverflowError:
            raise ParamError(f"g_fn {self.g_fn!r} at eta {self.eta} overflows a float") from None
        if values[0] < 1 or values != sorted(values):
            raise ParamError(f"g_fn must be >= 1 and non-decreasing over 1..{delta}")
        return q

    def resolve(self) -> GFn:
        name, _, arg = self.g_fn.partition(":")
        # an argument must be a finite float, as any float parameter must
        read = ParamReader({name: arg} if arg else {}, "g_fn")
        if name == "const":
            k = read.take(name, float, 1.0)
            return lambda d: k
        if name == "power":
            a = read.take(name, float, 0.5)
            return lambda d: float(d) ** a
        if name == "log":
            return lambda d: max(math.log2(max(d, 2)), 1.0)
        raise ParamError(f"unknown g_fn preset {self.g_fn!r}")


def _ln(n: int) -> float:
    """ln max(n, 3), the one logarithm of the randomized path (at least 1)."""
    return math.log(max(n, 3))


def random_palette_size(delta: int, n: int) -> int:
    """ceil(delta / ln n)."""
    return math.ceil(delta / _ln(n))


def random_defect_bound(kappa: float, n: int) -> int:
    return math.ceil(kappa * math.e * _ln(n))


def _class_palette(g: Graph, params: RandomizedParams) -> int:
    """The number of random classes; refused where delta <= ln n."""
    params.validate()
    ln_n = _ln(g.n)
    if g.delta <= ln_n:
        raise ParamError(
            f"delta = {g.delta} <= ln max(n, 3) = {ln_n:.2f}: use the deterministic "
            "legal_color path at this degree"
        )
    return random_palette_size(g.delta, g.n)


def randomized_defective(g: Graph, params: RandomizedParams) -> VertexColoring:
    """Uniform random palette-(ceil(delta/ln n)) coloring; defect holds whp."""
    p = _class_palette(g, params)
    colors = dict(zip(g.vertices, draw_classes(params.seed, g.vertices, p)))
    return VertexColoring(colors, p, random_defect_bound(params.kappa, knowledge(g).n))


def randomized_color(
    g: Graph,
    params: RandomizedParams,
) -> Tuple[VertexColoring, SimReport]:
    """Random class partition, then each class legally colored in parallel.

    Classes of a random graph have no usable independence bound, so each class
    is colored by the bottom stage directly (restricted log*-coloring plus the
    greedy reduction), which is legal unconditionally; the palette claim
    p * (B+1) holds whenever every class degree stays within the defect bound
    B, and the run is flagged otherwise.
    """
    classes = randomized_defective(g, params)
    p, B = classes.palette, classes.claimed_defect
    k = knowledge(g)
    plan = RecursionPlan((LevelPlan(k.delta, p, p, kind="pre_random"),), bottom_plan(k.N, B))
    col, report = run_plan(g, plan, classes=classes.colors)
    # flag classes that exceeded the probabilistic degree bound
    worst = check_vertex_coloring(g, classes).measured_defect
    report.extra["class_palette"] = p
    report.extra["class_degree_bound"] = B
    report.extra["max_class_degree"] = worst
    if worst > B:
        report.flags.append(
            f"class degree {worst} exceeds the probabilistic bound {B}; re-seed"
        )
    overflow = max(t.get("bot_color", 0) for t in report.telemetry.values())
    if overflow > B + 1:
        report.flags.append(
            f"class palette overflow: bottom color {overflow} > {B + 1}"
        )
    return col, report


def tradeoff_color(
    g: Graph,
    params: TradeoffParams,
    c: int,
) -> Tuple[VertexColoring, SimReport]:
    """Single-shot defective partition sized by g(delta), then the recursive
    coloring on each class; palette ~ q(delta)^2 * class palette."""
    if c < 1:
        raise ParamError("c must be positive")
    N, n, delta = knowledge(g)
    q = params.validate(delta)
    p_t = math.ceil(delta / q)
    if p_t <= 1:
        col, report = legal_color(g, preset_improved_s42(c, delta), phi_mode="improved")
        report.extra["inner_vartheta"] = report.extra.pop("vartheta")
        report.extra["fallback"] = "legal_color"
        return col, report
    # one fast level with p_t classes: its step is (delta // p_t)-defective
    (level,), _ = level_plans("fast", [delta], DefectiveParams(1, p_t, delta, c), N)
    kuhn = level.kuhn_plan
    claimed = max(min(delta // p_t, kuhn.k * delta // kuhn.q), 1)
    pre = replace(level, p=kuhn.palette, kind="pre_kuhn")
    inner = legal_plan(Knowledge(N, n, claimed), preset_improved_s42(c, max(claimed, 2)))
    col, report = run_plan(g, RecursionPlan((pre,) + inner.levels, inner.bottom))
    report.extra["q"] = q
    report.extra["p_t"] = p_t
    report.extra["class_defect_claimed"] = claimed
    report.extra["kuhn_palette"] = kuhn.palette
    report.extra["inner_vartheta"] = inner.suffix[0]
    return col, report
