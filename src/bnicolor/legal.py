"""Recursive legal coloring and its single-level defective core.

One vertex program drives everything. A run is a sequence of levels: each
defective level computes an auxiliary coloring phi of the current subgraph and
then the recolor loop turns it into a psi-color in 1..p, which names the
subgraph the vertex joins at the next level. The final level legally colors the
remaining bounded-degree subgraph and every vertex merges its psi-history into
a globally unique palette slot by pure arithmetic (`RecursionPlan.color`).

The recursion is realized as phases of one program: all sibling subgraphs
advance in the same global rounds, and a vertex knows its subgraph from its own
psi-history, so no coordination is needed. Progress is event-driven: a vertex
advances a phase as soon as the messages it depends on have arrived, which can
be earlier than the worst-case schedule.

Linial phases are numbered as `RecursionPlan.phases`: one per level, then the
bottom's, whose last color is reduced greedily and kept in `cur_lin`. Stores
are positional: `lin_at[phase][it]` maps the vertex and its neighbors to their
colors after Linial iteration `it` (iteration 0 is the Ids, or for a `from_rho`
bottom the same dict as the level-0 finals), `kuhn_at[lvl]` is the store a
level's defective step reads, and `phi_at[lvl]`, `psi_at[lvl]` and `red_at`
hold the neighbors' phi, psi and reduced bottom colors.

Every message goes to all of `same`, the neighbors in the vertex's current
subgraph, through `base.Outbox.broadcast`: a step's broadcasts share one batch
object across their destinations as long as `same` is not narrowed, so the
simulator accounts them once per batch. `draw_classes` is the library's only
random draw: a Philox4x64-10 over arrays that gives every vertex its class
before the run starts, so the programs themselves are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .base import Outbox, choose_point, step_color
from .coloring import VertexColoring
from .graph import Graph
from .numbers import PolyPlan, linial_schedule, step_plan
from .params import (
    DefectiveParams,
    LegalParams,
    ParamError,
    defect_bound,
    recursion_schedule,
    vartheta_of_schedule,
)
from .sim import Context, Message, SimReport, VertexProgram, run

K_LIN, K_PHI, K_PSI, K_RED = 0, 1, 2, 3
N_KINDS = 4

PHI_MODES = ("fast", "simple", "improved")


@dataclass(frozen=True)
class LevelPlan:
    """One defective level: the Linial phase and defective step that give phi,
    then the recolor loop into psi in 1..p.

    rho_global: the defective step reads the level-0 Linial colors, not this
    level's. kind "pre_random" takes psi from the run's "classes" param (vertex
    Id -> class, from `draw_classes`), "pre_kuhn" takes phi as psi.
    Edge levels use p_prime, the round-robin label palette (phi = label pair).
    """

    Lambda: int
    p: int
    phi_palette: int
    lin_plans: Tuple[PolyPlan, ...] = ()
    kuhn_plan: Optional[PolyPlan] = None
    rho_global: bool = False
    kind: str = "std"
    p_prime: int = 0


@dataclass(frozen=True)
class BottomPlan:
    """The final level: Linial down from start_palette (from the level-0 Linial
    colors when from_rho, else from the Ids), then a greedy reduction to
    1..target."""

    target: int
    lin_plans: Tuple[PolyPlan, ...]
    start_palette: int
    from_rho: bool = False


def bottom_plan(start_palette: int, hat: int, from_rho: bool = False) -> BottomPlan:
    """The bottom of a subgraph of degree <= hat: hat + 1 colors."""
    plans = tuple(linial_schedule(start_palette, max(hat, 1)))
    return BottomPlan(hat + 1, plans, start_palette, from_rho)


@dataclass(frozen=True)
class RecursionPlan:
    """The levels and the bottom of one recursion; bottom None stops every
    vertex after level 0's psi.

    suffix[i] is the palette width of one level-i subgraph's block and
    suffix[0] the whole palette; `color` adds (psi_i - 1) * suffix[i + 1] over
    a psi history to a bottom color.
    """

    levels: Tuple[LevelPlan, ...]
    bottom: Optional[BottomPlan]

    @cached_property
    def suffix(self) -> Tuple[int, ...]:
        widths = [self.bottom.target if self.bottom else 1]
        for level in reversed(self.levels):
            widths.append(widths[-1] * level.p)
        return tuple(reversed(widths))

    @cached_property
    def phases(self) -> Tuple[Tuple[PolyPlan, ...], ...]:
        """The Linial plans of each level, then of the bottom."""
        bottom = (self.bottom.lin_plans,) if self.bottom else ()
        return tuple(level.lin_plans for level in self.levels) + bottom

    def color(self, bottom_color: int, hist: List[int]) -> int:
        """The palette slot of a bottom color under a psi history."""
        return bottom_color + sum((psi - 1) * w for psi, w in zip(hist, self.suffix[1:]))


# Philox4x64-10 (Salmon et al., SC'11) multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = 0xFFFFFFFF


def _mulhilo(a: int, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of a * b, from 32-bit halves."""
    a_lo, a_hi = a & _LO32, a >> 32
    b_lo, b_hi = b & _LO32, b >> 32
    ll, lh, hl = b_lo * a_lo, b_hi * a_lo, b_lo * a_hi
    mid = (ll >> 32) + (lh & _LO32) + (hl & _LO32)
    return b_hi * a_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), b * a


def _philox_block(k0: int, keys: np.ndarray, counter: int) -> Tuple[np.ndarray, ...]:
    """The four output words of Philox4x64-10 at counter [counter, 0, 0, 0]
    under the keys [k0, keys[i]]. A fresh numpy `Philox` bumps its counter
    before each block, so its first block is counter 1."""
    c0 = np.full(len(keys), counter, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            keys = keys + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ keys, lo0
    return c0, c1, c2, c3


def draw_classes(seed: int, vids: Sequence[int], p: int) -> List[int]:
    """A class in 1..p for every vertex Id v in vids, from the counter-based
    Philox4x64-10 keyed [seed mod 2**64, v]: the first `integers(p) + 1` of a
    fresh numpy `Generator(Philox(key=[seed % 2**64, v]))`, computed over
    arrays, so draws do not depend on execution order.

    The generator's 32-bit outputs are the low then the high half of each
    block word, blocks at counters 1, 2, ... `integers(p)` maps an output u
    by Lemire's method: class 1 + (u * p >> 32), unless the low half of
    u * p falls below (2**32 - p) % p, where the lane takes its next output.
    Seeds outside [-2**63, 2**63), Ids outside [0, 2**64) and p outside
    1..2**32 are refused: keys are 64-bit words, so a wider seed would share
    its key with another seed.
    """
    if not -(2**63) <= seed < 2**63:
        raise ParamError(f"seed must be in [-2**63, 2**63), got {seed}")
    if not 1 <= p <= 2**32:
        raise ParamError(f"class palette must be in 1..2**32, got {p}")
    vids = list(vids)
    if vids and not (0 <= min(vids) and max(vids) < 2**64):
        raise ParamError("vertex Ids must be in [0, 2**64) to key a Philox draw")
    keys = np.array(vids, dtype=np.uint64)
    classes = np.zeros(len(vids), dtype=np.uint64)
    todo = np.arange(len(vids))  # lanes still rejected, in lane order
    threshold = (2**32 - p) % p
    counter = 1
    while len(todo):
        block = _philox_block(seed % 2**64, keys[todo], counter)
        m = np.stack([half for w in block for half in (w & _LO32, w >> 32)]) * p
        accepted = (m & _LO32) >= threshold
        first = accepted.argmax(axis=0)  # a lane's first accepted output
        done = accepted.any(axis=0)
        classes[todo[done]] = (m[first, np.arange(len(todo))][done] >> 32) + 1
        todo = todo[~done]
        counter += 1
    return classes.tolist()


def _level_plans(
    mode: str,
    schedule: List[int],
    params: Union[DefectiveParams, LegalParams],
    n0: int,
) -> RecursionPlan:
    """Pure arithmetic: per-level linial/defective-step plans plus the bottom.
    Of params only b and p are read."""
    levels: List[LevelPlan] = []
    rho_palette = None
    for i, Lam in enumerate(schedule[:-1]):
        d = Lam // (params.b * params.p)
        if mode == "improved":
            if i == 0:
                plans = linial_schedule(n0, max(Lam, 1))
                rho_palette = plans[-1].palette if plans else n0
            else:
                plans = []
            kuhn = step_plan(rho_palette, Lam, d)
        else:
            plans = linial_schedule(n0, max(Lam, 1))
            local_pal = plans[-1].palette if plans else n0
            # simple: the legal coloring itself serves as the 0-defective phi
            kuhn = step_plan(local_pal, Lam, d) if mode == "fast" else None
        phi_palette = kuhn.palette if kuhn else local_pal
        levels.append(
            LevelPlan(Lam, params.p, phi_palette, tuple(plans), kuhn, mode == "improved")
        )
    hat = schedule[-1]
    if mode == "improved" and rho_palette is not None:
        bottom = bottom_plan(rho_palette, hat, from_rho=True)
    else:
        bottom = bottom_plan(n0, hat)
    return RecursionPlan(tuple(levels), bottom)


class RecursiveColorProgram(VertexProgram):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        plan: RecursionPlan = ctx.params["plan"]
        self.plan = plan
        self.levels = plan.levels
        self.bottom = plan.bottom
        self.rnd = 0
        self.hist: List[int] = []
        self.phis: Dict[int, int] = {}
        self.same: List[int] = []
        self.level = -1
        self.stage = "enter"
        # positional color stores (see the module docstring)
        ids = {u: u for u in (ctx.vid, *ctx.neighbors)}
        self.lin_at = [[ids] + [{} for _ in plans] for plans in plan.phases]
        if self.bottom is not None and self.bottom.from_rho:
            self.lin_at[-1][0] = self.lin_at[0][-1]
        self.kuhn_at = [
            self.lin_at[0 if level.rho_global else lvl][-1]
            for lvl, level in enumerate(self.levels)
        ]
        self.phi_at: List[Dict[int, int]] = [{} for _ in self.levels]
        self.psi_at: List[Dict[int, int]] = [{} for _ in self.levels]
        self.red_at: Dict[int, int] = {}
        # Linial phase state; after the bottom's phase, the bottom color
        self.lin_iter = 0
        self.cur_lin = ctx.vid
        # readiness cursors: wait key -> index of the first neighbor still missing
        self.cursor: Dict[tuple, int] = {}
        self.smaller: Dict[int, List[int]] = {}  # level -> same-neighbors with smaller phi
        self.telemetry = {"r_phi": {}, "r_psi": {}}

    # -- message handling ----------------------------------------------------

    def step(self, round_no, inbox):
        self.rnd = round_no
        for u, msg in inbox:
            f = msg.fields
            kind = f[0][0]
            if kind == K_LIN:
                self.lin_at[f[1][0]][f[2][0]][u] = f[3][0] + 1
            elif kind == K_PHI:
                self.phi_at[f[1][0]][u] = f[2][0] + 1
            elif kind == K_PSI:
                self.psi_at[f[1][0]][u] = f[2][0] + 1
            else:
                self.red_at[u] = f[1][0] + 1
        out = Outbox()
        if self.output is None:
            self._advance(out)
        return out

    def _ready(self, key: tuple, nbrs: List[int], store: Dict[int, int]) -> bool:
        """Whether store holds every u in nbrs.

        The stores only gain entries, so the scan resumes where the previous
        call for the same key stopped.
        """
        i = self.cursor.get(key, 0)
        n = len(nbrs)
        while i < n and nbrs[i] in store:
            i += 1
        self.cursor[key] = i
        return i == n

    # -- the state machine ---------------------------------------------------

    def _advance(self, out):
        progress = True
        while progress and self.output is None:
            progress = getattr(self, "_do_" + self.stage)(out)

    def _do_enter(self, out) -> bool:
        lvl = self.level
        if lvl < 0:
            self.same = list(self.ctx.neighbors)
        else:
            psis = self.psi_at[lvl]
            if not self._ready(("enter", lvl), self.same, psis):
                return False
            self.same = [u for u in self.same if psis[u] == self.hist[lvl]]
        self.level = lvl = lvl + 1
        if lvl < len(self.levels) and self.levels[lvl].kind == "pre_random":
            self._decide_psi(out, self.ctx.params["classes"][self.ctx.vid])
            return True
        self.stage = "lin"
        self.lin_iter = 0
        self.cur_lin = self.lin_at[lvl][0][self.ctx.vid]
        return True

    def _do_lin(self, out) -> bool:
        lvl = self.level
        plans = self.plan.phases[lvl]
        colors_at = self.lin_at[lvl]
        progress = False
        while self.lin_iter < len(plans):
            it = self.lin_iter
            colors = colors_at[it]
            if not self._ready(("lin", lvl, it), self.same, colors):
                break
            cols = [colors[u] for u in self.same]
            plan = plans[it]
            x, _ = choose_point(self.cur_lin, cols, plan)
            self.cur_lin = step_color(self.cur_lin, x, plan)
            self.lin_iter += 1
            colors_at[self.lin_iter][self.ctx.vid] = self.cur_lin
            msg = Message(
                (K_LIN, N_KINDS),
                (lvl, len(self.levels) + 1),
                (self.lin_iter, len(plans) + 1),
                (self.cur_lin - 1, plan.palette),
            )
            out.broadcast(self.same, msg)
            progress = True
        if self.lin_iter == len(plans):
            self.stage = "phi" if lvl < len(self.levels) else "bot_red"
            return True
        return progress

    def _do_phi(self, out) -> bool:
        lvl = self.level
        level = self.levels[lvl]
        plan = level.kuhn_plan
        if plan is None:
            phi = self.cur_lin
        else:
            colors = self.kuhn_at[lvl]
            if not self._ready(("kuhn", lvl), self.same, colors):
                return False
            cols = [colors[u] for u in self.same]
            own = colors[self.ctx.vid]
            x, _ = choose_point(own, cols, plan)
            phi = step_color(own, x, plan)
        self.phis[lvl] = phi
        self.telemetry["r_phi"][lvl] = self.rnd
        msg = Message(
            (K_PHI, N_KINDS),
            (lvl, len(self.levels) + 1),
            (phi - 1, level.phi_palette),
        )
        out.broadcast(self.same, msg)
        if level.kind == "pre_kuhn":
            self._decide_psi(out, phi)
        else:
            self.stage = "psi"
        return True

    def _do_psi(self, out) -> bool:
        lvl = self.level
        phis = self.phi_at[lvl]
        if not self._ready(("phi", lvl), self.same, phis):
            return False
        smaller = self.smaller.get(lvl)
        if smaller is None:
            own_phi = self.phis[lvl]
            smaller = self.smaller[lvl] = [u for u in self.same if phis[u] < own_phi]
        psis = self.psi_at[lvl]
        if not self._ready(("psi", lvl), smaller, psis):
            return False
        p = self.levels[lvl].p
        counts = [0] * (p + 1)
        for u in smaller:
            counts[psis[u]] += 1
        psi = min(range(1, p + 1), key=lambda k: (counts[k], k))
        self._decide_psi(out, psi)
        return True

    def _decide_psi(self, out, psi: int):
        lvl = self.level
        self.hist.append(psi)
        self.telemetry["r_psi"][lvl] = self.rnd
        msg = Message(
            (K_PSI, N_KINDS),
            (lvl, len(self.levels) + 1),
            (psi - 1, self.levels[lvl].p),
        )
        out.broadcast(self.same, msg)
        if self.bottom is None:
            self.output = {"phi": self.phis.get(lvl, 0), "psi": psi}
            return
        self.stage = "enter"

    def _do_bot_red(self, out) -> bool:
        """The greedy reduction of the bottom color to 1..target: neighbors'
        current colors are their reduced ones, else their Linial finals."""
        finals = self.lin_at[-1][-1]
        cur: Dict[int, int] = {}
        for u in self.same:
            c = self.red_at.get(u) or finals.get(u)
            if c is None:
                return False
            cur[u] = c
        target = self.bottom.target
        if self.cur_lin <= target:
            self._finalize()
            return True
        for u, c in cur.items():
            if c > target and (c, u) > (self.cur_lin, self.ctx.vid):
                return False  # wait for a bigger competitor to recolor first
        used = set(cur.values())
        k = 1
        while k in used:
            k += 1
        self.cur_lin = k
        plans = self.bottom.lin_plans
        final_pal = plans[-1].palette if plans else self.bottom.start_palette
        msg = Message((K_RED, N_KINDS), (k - 1, max(final_pal, target, self.ctx.n + 2)))
        out.broadcast(self.same, msg)
        self._finalize()
        return True

    def _finalize(self):
        self.telemetry["out_round"] = self.rnd
        self.telemetry["bot_color"] = self.cur_lin
        color = self.plan.color(self.cur_lin, self.hist)
        self.output = {"color": color, "psi_hist": list(self.hist)}


# -- wrappers -----------------------------------------------------------------


def defective_color(
    g: Graph, params: DefectiveParams, phi_mode: str = "fast"
) -> Tuple[VertexColoring, SimReport]:
    """psi with palette <= p and measured defect <= defect_bound(params)."""
    if phi_mode not in ("fast", "simple"):
        raise ParamError(f"phi_mode must be fast or simple, got {phi_mode!r}")
    params.validate(delta=g.delta)
    levels = _level_plans(phi_mode, [params.Lambda, 0], params, max(g.id_bound, 1)).levels
    report = run(g, RecursiveColorProgram, params={"plan": RecursionPlan(levels, None)})
    level = levels[0]
    psi = VertexColoring(
        {v: out["psi"] for v, out in report.outputs.items()},
        params.p,
        defect_bound(params),
    )
    phi = VertexColoring(
        {v: out["phi"] for v, out in report.outputs.items()},
        level.phi_palette,
        level.Lambda,
    )
    report.extra["phi_palette"] = level.phi_palette
    report.extra["phi_colors"] = dict(phi.colors)
    r_phis = [t["r_phi"].get(0, 0) for t in report.telemetry.values()]
    r_psis = [t["r_psi"].get(0, 0) for t in report.telemetry.values()]
    report.extra["loop_rounds"] = max(r_psis, default=0) - max(r_phis, default=0)
    return psi, report


def legal_plan(
    g: Graph, params: LegalParams, phi_mode: str = "fast"
) -> Tuple[RecursionPlan, List[int]]:
    """The recursion plan of a legal coloring of g and its schedule of
    per-level degree bounds; the plan's palette is vartheta of the schedule."""
    if phi_mode not in PHI_MODES:
        raise ParamError(f"unknown phi_mode {phi_mode!r}")
    Lambda0 = max(g.delta, 1)
    params.validate(Lambda0)
    schedule = recursion_schedule(params, Lambda0)
    plan = _level_plans(phi_mode, schedule, params, max(g.id_bound, 1))
    vartheta = vartheta_of_schedule(schedule, params.p)
    if plan.suffix[0] != vartheta:
        raise ParamError(
            f"palette accounting mismatch: suffix width {plan.suffix[0]} != vartheta {vartheta}"
        )
    return plan, schedule


def legal_color(
    g: Graph,
    params: LegalParams,
    phi_mode: str = "fast",
) -> Tuple[VertexColoring, SimReport]:
    """Legal coloring with palette <= vartheta (`report.extra["vartheta"]`)."""
    plan, schedule = legal_plan(g, params, phi_mode)
    report = run(g, RecursiveColorProgram, params={"plan": plan})
    colors = {v: out["color"] for v, out in report.outputs.items()}
    report.extra["vartheta"] = plan.suffix[0]
    report.extra["level_lambdas"] = list(schedule)
    if phi_mode == "improved" and plan.levels:
        report.extra["rho_rounds"] = len(plan.levels[0].lin_plans)
    return VertexColoring(colors, plan.suffix[0], 0), report
