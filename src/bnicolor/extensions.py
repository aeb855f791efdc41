"""Randomized coloring and the g(delta) color/time tradeoff.

Both extensions reuse the recursive program by prepending one synthetic level:
the randomized variant picks the first-level class uniformly at random (zero
communication), the tradeoff variant takes the single-shot defective recoloring
itself as the class (no recolor loop). The remaining levels run unchanged.

Randomness comes only from `legal.draw_classes`, a counter-based generator
keyed by (seed, vertex Id) that draws every class before the run starts, so
draws are independent of execution order and runs are reproducible from
(graph, params). The tradeoff variant draws nothing and is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from .coloring import VertexColoring
from .graph import Graph
from .legal import (
    LevelPlan,
    RecursionPlan,
    RecursiveColorProgram,
    _level_plans,
    bottom_plan,
    draw_classes,
)
from .numbers import linial_schedule, step_plan
from .params import (
    ParamError,
    preset_improved_s42,
    recursion_schedule,
    vartheta_of_schedule,
)
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

    def validate(self, delta: int):
        if not (0 < self.eta < 1):
            raise ParamError(f"eta must be in (0, 1), got {self.eta}")
        fn = self.resolve()
        probe = sorted({1, 2, max(delta // 2, 1), max(delta, 1)})
        values = [fn(d) for d in probe]
        if any(v < 1 for v in values):
            raise ParamError(f"g_fn must be >= 1 over 1..{delta}")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ParamError(f"g_fn must be non-decreasing over 1..{delta}")

    def resolve(self) -> GFn:
        name, _, arg = self.g_fn.partition(":")
        if name == "const":
            k = float(arg) if arg else 1.0
            return lambda d: k
        if name == "power":
            a = float(arg) if arg else 0.5
            return lambda d: float(d) ** a
        if name == "log":
            return lambda d: max(math.log2(max(d, 2)), 1.0)
        raise ParamError(f"unknown g_fn preset {self.g_fn!r}")


def random_palette_size(delta: int, n: int) -> int:
    """ceil(delta / ln n); natural log throughout the randomized path."""
    return math.ceil(delta / math.log(max(n, 3)))


def random_defect_bound(kappa: float, n: int) -> int:
    return math.ceil(kappa * math.e * math.log(max(n, 3)))


def _class_palette(g: Graph, params: RandomizedParams) -> int:
    """The number of random classes; refused where delta <= ln n."""
    params.validate()
    ln_n = math.log(max(g.n, 3))
    if g.delta <= ln_n:
        raise ParamError(
            f"delta = {g.delta} <= ln n = {ln_n:.2f}: use the deterministic "
            "legal_color path at this degree"
        )
    return random_palette_size(g.delta, g.n)


def randomized_defective(g: Graph, params: RandomizedParams) -> VertexColoring:
    """Uniform random palette-(ceil(delta/ln n)) coloring; defect holds whp."""
    p = _class_palette(g, params)
    colors = dict(zip(g.vertices, draw_classes(params.seed, g.vertices, p)))
    return VertexColoring(colors, p, random_defect_bound(params.kappa, g.n))


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
    p = _class_palette(g, params)
    B = random_defect_bound(params.kappa, g.n)
    plan = RecursionPlan(
        (LevelPlan(g.delta, p, p, kind="pre_random"),),
        bottom_plan(max(g.id_bound, 1), B),
    )
    classes = dict(zip(g.vertices, draw_classes(params.seed, g.vertices, p)))
    report = run(g, RecursiveColorProgram, params={"plan": plan, "classes": classes})
    colors = {v: out["color"] for v, out in report.outputs.items()}
    col = VertexColoring(colors, plan.suffix[0], 0)
    # flag classes that exceeded the probabilistic degree bound
    classes = {v: out["psi_hist"][0] for v, out in report.outputs.items()}
    worst = check_vertex_coloring(g, VertexColoring(classes, p, B)).measured_defect
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
    delta = max(g.delta, 1)
    params.validate(delta)
    q = params.resolve()(delta) ** (1.0 / (1.0 - params.eta))
    p_t = math.ceil(delta / q)
    if p_t <= 1:
        from .legal import legal_color

        inner = preset_improved_s42(c, delta)
        col, report = legal_color(g, inner, phi_mode="improved")
        report.extra["fallback"] = "legal_color"
        return col, report
    d = max(delta // p_t, 1)
    n0 = max(g.id_bound, 1)
    plans = linial_schedule(n0, delta)
    rho_palette = plans[-1].palette if plans else n0
    kuhn = step_plan(rho_palette, delta, d)
    claimed = max(min(d, kuhn.k * delta // kuhn.q), 1)
    pre = LevelPlan(delta, kuhn.palette, kuhn.palette, tuple(plans), kuhn, kind="pre_kuhn")
    inner_params = preset_improved_s42(c, max(claimed, 2))
    schedule = recursion_schedule(inner_params, max(claimed, 1))
    inner = _level_plans("fast", schedule, inner_params, n0)
    plan = RecursionPlan((pre,) + inner.levels, inner.bottom)
    report = run(g, RecursiveColorProgram, params={"plan": plan})
    colors = {v: out["color"] for v, out in report.outputs.items()}
    col = VertexColoring(colors, plan.suffix[0], 0)
    report.extra["q"] = q
    report.extra["p_t"] = p_t
    report.extra["class_defect_claimed"] = claimed
    report.extra["kuhn_palette"] = kuhn.palette
    report.extra["inner_vartheta"] = vartheta_of_schedule(schedule, inner_params.p)
    report.extra["level_lambdas"] = [delta] + list(schedule)
    return col, report
