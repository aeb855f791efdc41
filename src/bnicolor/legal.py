"""Recursive legal coloring, its single-level defective core, and Linial's
coloring.

One vertex program drives everything. A run is a sequence of levels: each
defective level computes an auxiliary coloring phi of the current subgraph and
then the recolor loop turns it into a psi-color in 1..p, which names the
subgraph the vertex joins at the next level. The final level legally colors the
remaining bounded-degree subgraph and every vertex merges its psi-history into
a globally unique palette slot by pure arithmetic (`RecursionPlan.color`).
`run_plan` runs every plan with a bottom, such as `linial_coloring`'s: no level
and a bottom target no Linial final exceeds, so the bottom Linial phase alone.
Plans are sized from `graph.Knowledge` alone, so `legal_plan` needs no graph;
it also plans the edge routes, the direct one with edge-label levels.

The recursion is realized as one program: all sibling subgraphs advance in
the same global rounds, and a vertex knows its subgraph from its own
psi-history, so no coordination is needed. A vertex's run is one generator,
`RecursiveColorProgram._program`, that walks the levels in order and, wherever
it needs its neighbors' colors, runs `yield from self._await(nbrs, store)`;
`step` files what arrives and resumes it unless the awaited neighbor is still
missing; then it returns None and builds no outbox. So a vertex moves on as
soon as its messages have arrived, which can be earlier than the worst-case
schedule. Every vertex's generator stays suspended between steps, and two
rules keep that cheap: its body holds no comprehension or lambda (on Python
3.10 and 3.11 each local one reads would become a closure cell per vertex),
and the program holds a step's sends only while that step runs.

Linial phases are numbered as `RecursionPlan.phases`: one per level, then the
bottom's, whose last color is reduced greedily. Stores are positional:
`lin_at[phase][it]` maps the vertex and its neighbors to their colors after
Linial iteration `it`, `kuhn_at[lvl]` is the store a level's defective step
reads, and `phi_at[lvl]`, `psi_at[lvl]` and `red_at` hold the neighbors' phi,
psi and reduced bottom colors. Iteration 0 is the Ids, the read-only
`range(N + 1)` that maps Id u to u (N = `Context.n`, the Id bound). Under
`RecursionPlan.rho`, every `kuhn_at` and the bottom's iteration 0 are rho.
`stores` lists them all flat: `red_at`, each level's `phi_at`, each level's
`psi_at`, then each phase's `lin_at` from iteration 0. Every message names the
store it fills by its index there, `slot`, which is the same at every vertex
because all vertices run one plan, and carries the color as `val`; `step`
files it as `stores[msg.slot][u] = msg.val`. Its fields (kind, level,
iteration, color) still give its bits.

Every message goes to all of `same`, the neighbors in the vertex's current
subgraph, through `_send`, and `step` builds its outbox from the sends: all
of `same` shares one batch object until `same` narrows, when the narrowed
`same` starts a batch that extends the last one, so the simulator accounts a
step once per batch run. `draw_classes` is the library's only random draw: a
Philox4x64-10 over arrays that gives every vertex its class before the run
starts, so the programs themselves are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .base import choose_point, step_color
from .coloring import VertexColoring
from .graph import Graph, Knowledge, knowledge
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

# recorded implementation constants (measured; asserted stable by the tests)
C_LIN = 9  # linial palette <= C_LIN * delta^2 (delta >= 1)

PHI_MODES = ("fast", "simple", "improved")
LABELS = "labels"  # the edge-label level kind of `level_plans`, never a phi_mode


@dataclass(frozen=True)
class LevelPlan:
    """One defective level: the Linial phase and defective step that give phi,
    then the recolor loop into psi in 1..p.

    The defective step reads this level's Linial colors, or rho under
    `RecursionPlan.rho`. kind "pre_random" takes psi from the run's "classes"
    param (vertex Id -> class, from `draw_classes`), "pre_kuhn" takes phi as psi.
    Edge levels, kind "labels", use p_prime, the round-robin label palette (phi = label pair).
    """

    Lambda: int
    p: int
    phi_palette: int
    lin_plans: Tuple[PolyPlan, ...] = ()
    kuhn_plan: Optional[PolyPlan] = None
    kind: str = "std"
    p_prime: int = 0


@dataclass(frozen=True)
class BottomPlan:
    """The final level: Linial down from start_palette (from the Ids, or from
    rho under `RecursionPlan.rho`), then a greedy reduction to 1..target."""

    target: int
    lin_plans: Tuple[PolyPlan, ...]
    start_palette: int


def bottom_plan(start_palette: int, hat: int) -> BottomPlan:
    """The bottom of a subgraph of degree <= hat: hat + 1 colors."""
    plans = tuple(linial_schedule(start_palette, max(hat, 1)))
    return BottomPlan(hat + 1, plans, start_palette)


@dataclass(frozen=True)
class RecursionPlan:
    """The levels and the bottom of one recursion; bottom None stops every
    vertex after level 0's psi.

    rho (the paper's improved recursion): level 0's Linial colors, rho, start
    every defective step and the bottom, so the plan needs a level and a bottom.

    suffix[i] is the palette width of one level-i subgraph's block and
    suffix[0] the whole palette; `color` adds (psi_i - 1) * suffix[i + 1] over
    a psi history to a bottom color.
    """

    levels: Tuple[LevelPlan, ...]
    bottom: Optional[BottomPlan]
    rho: bool = False

    def __post_init__(self):
        if self.rho and not (self.levels and self.bottom):
            raise ParamError("a rho plan needs a level and a bottom")

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

    @property
    def lambdas(self) -> List[int]:
        """Each level's Lambda, then the bottom's degree bound target - 1."""
        return [level.Lambda for level in self.levels] + [self.bottom.target - 1]

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


def smallest_pprime(Lambda: int, d: int) -> int:
    """Smallest p' with 2*ceil(Lambda/p') - 2 <= d, i.e. ceil(Lambda/(d//2 + 1));
    at most Lambda, hence every level is feasible. That is no phi-defect bound:
    phi orders an edge's labels by endpoint Id, so edges at v can share phi with
    different labels at v. What holds is at most 2*ceil(s_v/p') - 1 equal-phi
    class neighbours at each endpoint v, s_v the edge's group size at v."""
    if d < 0:
        raise ParamError(f"defect target must be nonnegative, got {d}")
    return -(-Lambda // (d // 2 + 1))


def level_plans(
    mode: str,
    lambdas: Sequence[int],
    params: Union[DefectiveParams, LegalParams],
    n0: int,
    paced: bool = False,
) -> Tuple[Tuple[LevelPlan, ...], Optional[int]]:
    """Pure arithmetic: the defective levels of degree bounds lambdas, and the
    palette of rho, level 0's Linial colors, which every level after the first
    reuses in improved mode (None in the other modes or without a level).
    Of params only b and p are read. Mode `LABELS` gives edge levels, with no
    Linial or Kuhn plan: p' is each level's `smallest_pprime`, or when paced one
    p' for all, at least 2bp + 1 and each level's own (a slot per phi value)."""
    bp = params.b * params.p
    if mode == LABELS:
        pps = [smallest_pprime(Lam, Lam // bp) for Lam in lambdas]
        if paced:
            pps = [max([2 * bp + 1] + pps)] * len(pps)
        return tuple(
            LevelPlan(Lam, params.p, pp * pp, kind=LABELS, p_prime=pp)
            for Lam, pp in zip(lambdas, pps)
        ), None
    levels: List[LevelPlan] = []
    rho_palette = None
    for Lam in lambdas:
        plans = tuple(linial_schedule(n0, max(Lam, 1))) if rho_palette is None else ()
        palette = rho_palette or (plans[-1].palette if plans else n0)
        rho_palette = palette if mode == "improved" else None
        # simple: the legal coloring itself serves as the 0-defective phi
        kuhn = None if mode == "simple" else step_plan(palette, Lam, Lam // bp)
        levels.append(LevelPlan(Lam, params.p, kuhn.palette if kuhn else palette, plans, kuhn))
    return tuple(levels), rho_palette


class _Filed(Message):
    """A message of `RecursiveColorProgram` that names the store it fills:
    the receiver sets stores[slot][sender] = val."""

    __slots__ = ("slot", "val")

    def __init__(self, slot: int, val: int, *fields: Tuple[int, int]):
        super().__init__(*fields)
        self.slot = slot
        self.val = val


class RecursiveColorProgram(VertexProgram):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        plan: RecursionPlan = ctx.params["plan"]
        self.plan = plan
        self.rnd = 0
        self.hist: List[int] = []
        self.phis: Dict[int, int] = {}
        # positional color stores (see the module docstring)
        ids = range(ctx.n + 1)
        self.lin_at = [[ids] + [{} for _ in plans] for plans in plan.phases]
        self.kuhn_at = [phase[-1] for phase in self.lin_at[: len(plan.levels)]]
        if plan.rho:  # rho starts every defective step and the bottom's Linial phase
            self.kuhn_at = [self.kuhn_at[0]] * len(plan.levels)
            self.lin_at[-1][0] = self.kuhn_at[0]
        self.phi_at: List[Dict[int, int]] = [{} for _ in plan.levels]
        self.psi_at: List[Dict[int, int]] = [{} for _ in plan.levels]
        self.red_at: Dict[int, int] = {}
        self.stores = [self.red_at, *self.phi_at, *self.psi_at]
        for phase in self.lin_at:
            self.stores += phase
        # the one wait the program is blocked on, or None: (u, store) with u
        # the first neighbor still missing from store
        self.wait: Optional[Tuple[int, Dict[int, int]]] = None
        self.telemetry = {"r_phi": {}, "r_psi": {}}
        # the step in progress's sends, (targets, batch) in send order, or None
        self._sends: Optional[List[Tuple[List[int], List[Message]]]] = None
        self._run = self._program()

    def step(self, round_no, inbox):
        stores = self.stores
        for u, msg in inbox:
            stores[msg.slot][u] = msg.val
        wait = self.wait
        if wait is not None and wait[0] not in wait[1]:
            return None  # the awaited neighbor has not reported: nothing can move
        self.rnd = round_no
        self._sends = sends = []
        next(self._run, None)
        self._sends = None
        out = {}
        for targets, batch in sends:
            out.update(dict.fromkeys(targets, batch))
        return out

    def _send(self, targets: List[int], msg: Message):
        """Send msg to every u in targets, which is the last send's targets or
        narrows them: a send to the same object extends the last batch, any
        other send starts a batch of the last one's messages and msg, which
        `step` files over the last one's at targets."""
        sends = self._sends
        if sends and sends[-1][0] is targets:
            sends[-1][1].append(msg)
        else:
            sends.append((targets, [*sends[-1][1], msg] if sends else [msg]))

    def _await(self, nbrs: List[int], store: Dict[int, int]):
        """Wait until store holds every u in nbrs; meanwhile `wait` names the
        first u still missing and its store. The stores only gain entries, so
        no u is looked for again once found."""
        for u in nbrs:
            while u not in store:
                self.wait = (u, store)
                yield
        self.wait = None

    def _program(self):
        """The vertex's run: per level the Linial phase, phi and the recolor
        loop into psi, then (the last of `RecursionPlan.phases`) the bottom's
        Linial phase and greedy reduction. It holds no comprehension or lambda.

        A neighbor sends its Linial final before its reduced color, so the
        reduction first waits for every final, then, above target, for the
        reduced color of each bigger competitor: a final above target with
        (final, Id) above its own. In a legal run every reduced color is at
        most deg + 1 <= target; a degraded class (a degree above target - 1)
        may reduce above target, which the caller flags from
        `telemetry["bot_color"]`.
        """
        plan, vid = self.plan, self.ctx.vid
        n_levels = len(plan.levels)
        same = self.ctx.neighbors
        lin_next = 1 + 2 * n_levels  # the `stores` index of a phase's iteration 0
        for lvl, plans in enumerate(plan.phases):
            lin_0, lin_next = lin_next, lin_next + len(plans) + 1
            level = plan.levels[lvl] if lvl < n_levels else None
            if level is not None and level.kind == "pre_random":
                psi = self.ctx.params["classes"][vid]
            else:
                colors_at = self.lin_at[lvl]
                color = colors_at[0][vid]
                for it, lin_plan in enumerate(plans):
                    yield from self._await(same, colors_at[it])
                    color = _poly_step(color, colors_at[it], same, lin_plan)
                    colors_at[it + 1][vid] = color
                    msg = _Filed(
                        lin_0 + it + 1,
                        color,
                        (K_LIN, N_KINDS),
                        (lvl, n_levels + 1),
                        (it + 1, len(plans) + 1),
                        (color - 1, lin_plan.palette),
                    )
                    self._send(same, msg)
                if level is None:
                    break
                phi = color
                if level.kuhn_plan is not None:
                    colors = self.kuhn_at[lvl]
                    yield from self._await(same, colors)
                    phi = _poly_step(colors[vid], colors, same, level.kuhn_plan)
                self.phis[lvl] = phi
                self.telemetry["r_phi"][lvl] = self.rnd
                msg = _Filed(
                    1 + lvl, phi, (K_PHI, N_KINDS), (lvl, n_levels + 1), (phi - 1, level.phi_palette)
                )
                self._send(same, msg)
                psi = phi
                if level.kind != "pre_kuhn":
                    phis = self.phi_at[lvl]
                    yield from self._await(same, phis)
                    smaller = _below(same, phis, phi)
                    yield from self._await(smaller, self.psi_at[lvl])
                    psi = _least_used(smaller, self.psi_at[lvl], level.p)
            self.hist.append(psi)
            self.telemetry["r_psi"][lvl] = self.rnd
            msg = _Filed(
                1 + n_levels + lvl, psi, (K_PSI, N_KINDS), (lvl, n_levels + 1), (psi - 1, level.p)
            )
            self._send(same, msg)
            if plan.bottom is None:
                self.output = {"phi": self.phis.get(lvl, 0), "psi": psi}
                return
            psis = self.psi_at[lvl]
            yield from self._await(same, psis)
            same = _members(same, psis, psi)
        bottom, finals = plan.bottom, self.lin_at[-1][-1]
        yield from self._await(same, finals)
        if color > bottom.target:
            bigger = _bigger(same, finals, bottom.target, (color, vid))
            yield from self._await(bigger, self.red_at)
            color = _least_free(same, self.red_at, finals)
            final_pal = plans[-1].palette if plans else bottom.start_palette
            domain = max(final_pal, bottom.target, self.ctx.n + 2)
            self._send(same, _Filed(0, color, (K_RED, N_KINDS), (color - 1, domain)))
        self.telemetry["out_round"] = self.rnd
        self.telemetry["bot_color"] = color
        self.output = {"color": plan.color(color, self.hist), "psi_hist": list(self.hist)}


def _poly_step(own: int, colors: Dict[int, int], nbrs: List[int], plan: PolyPlan) -> int:
    """own's color after one polynomial step against the colors of nbrs."""
    x, _ = choose_point(own, [colors[u] for u in nbrs], plan)
    return step_color(own, x, plan)


def _below(nbrs: List[int], phis: Dict[int, int], phi: int) -> List[int]:
    return [u for u in nbrs if phis[u] < phi]


def _members(nbrs: List[int], psis: Dict[int, int], psi: int) -> List[int]:
    return [u for u in nbrs if psis[u] == psi]


def _least_used(smaller: List[int], psis: Dict[int, int], p: int) -> int:
    """The class in 1..p that the fewest of smaller hold, the least on a tie."""
    counts = [0] * (p + 1)
    for u in smaller:
        counts[psis[u]] += 1
    return min(range(1, p + 1), key=counts.__getitem__)


def _bigger(nbrs: List[int], finals: Dict[int, int], target: int, own: Tuple[int, int]):
    return [u for u in nbrs if finals[u] > target and (finals[u], u) > own]


def _least_free(nbrs: List[int], red_at: Dict[int, int], finals: Dict[int, int]) -> int:
    """The least color no neighbor holds: its reduced color, else its final."""
    used = {red_at.get(u) or finals[u] for u in nbrs}
    k = 1
    while k in used:
        k += 1
    return k


# -- wrappers -----------------------------------------------------------------


def run_plan(g: Graph, plan: RecursionPlan, **run_params) -> Tuple[VertexColoring, SimReport]:
    """Run plan, which has a bottom, on g; the coloring has the plan's palette
    suffix[0] and defect 0. run_params join the plan's program params."""
    report = run(g, RecursiveColorProgram, params={"plan": plan, **run_params})
    colors = {v: out["color"] for v, out in report.outputs.items()}
    report.extra["level_lambdas"] = plan.lambdas
    return VertexColoring(colors, plan.suffix[0], 0), report


def linial_coloring(g: Graph) -> Tuple[VertexColoring, SimReport]:
    """Legal coloring with palette <= C_LIN * delta^2, in O(log* n) rounds:
    the bottom Linial phase alone, with a target no final color exceeds."""
    k = knowledge(g)
    plans = tuple(linial_schedule(k.N, k.delta))
    palette = plans[-1].palette if plans else k.N
    return run_plan(g, RecursionPlan((), BottomPlan(palette, plans, k.N)))


def defective_color(
    g: Graph, params: DefectiveParams, phi_mode: str = "fast"
) -> Tuple[VertexColoring, SimReport]:
    """psi with palette <= p and measured defect <= defect_bound(params)."""
    if phi_mode not in ("fast", "simple"):
        raise ParamError(f"phi_mode must be fast or simple, got {phi_mode!r}")
    k = knowledge(g)
    params.validate(delta=k.delta)
    levels, _ = level_plans(phi_mode, [params.Lambda], params, k.N)
    report = run(g, RecursiveColorProgram, params={"plan": RecursionPlan(levels, None)})
    psi = VertexColoring(
        {v: out["psi"] for v, out in report.outputs.items()},
        params.p,
        defect_bound(params),
    )
    report.extra["phi_palette"] = levels[0].phi_palette
    report.extra["phi_colors"] = {v: out["phi"] for v, out in report.outputs.items()}
    r_phis = [t["r_phi"].get(0, 0) for t in report.telemetry.values()]
    r_psis = [t["r_psi"].get(0, 0) for t in report.telemetry.values()]
    report.extra["loop_rounds"] = max(r_psis, default=0) - max(r_phis, default=0)
    return psi, report


def legal_plan(
    k: Knowledge, params: LegalParams, phi_mode: str = "fast", paced: Optional[bool] = None
) -> RecursionPlan:
    """The recursion plan of a legal coloring of any graph with knowledge k;
    its palette is vartheta of its schedule of per-level degree bounds
    (`RecursionPlan.lambdas`), checked. paced None plans vertex levels under
    phi_mode; True or False plans `LABELS` levels, the direct edge route's."""
    if phi_mode not in PHI_MODES:
        raise ParamError(f"unknown phi_mode {phi_mode!r}")
    params.validate(k.delta)
    schedule = recursion_schedule(params, k.delta)
    mode = phi_mode if paced is None else LABELS
    levels, rho = level_plans(mode, schedule[:-1], params, k.N, bool(paced))
    plan = RecursionPlan(levels, bottom_plan(rho or k.N, schedule[-1]), rho is not None)
    vartheta = vartheta_of_schedule(schedule, params.p)
    if plan.suffix[0] != vartheta:
        raise ParamError(
            f"palette accounting mismatch: suffix width {plan.suffix[0]} != vartheta {vartheta}"
        )
    return plan


def legal_color(
    g: Graph,
    params: LegalParams,
    phi_mode: str = "fast",
) -> Tuple[VertexColoring, SimReport]:
    """Legal coloring with palette <= vartheta (`report.extra["vartheta"]`)."""
    plan = legal_plan(knowledge(g), params, phi_mode)
    col, report = run_plan(g, plan)
    report.extra["vartheta"] = col.palette
    if plan.rho:
        report.extra["rho_rounds"] = len(plan.levels[0].lin_plans)
    return col, report
