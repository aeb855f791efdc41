"""Edge coloring: the direct short-message variant and the line-graph path.

The direct variant runs one program on the host graph; each vertex maintains
the state of all its incident edges and every decision about an edge is made
symmetrically and deterministically at both endpoints, so no owner election is
needed. Per-edge messages always travel on the edge's own channel, hence no
addressing fields are required.

Symmetric timing rule: whenever an edge decision needs data from both sides,
each endpoint sends its part as soon as its side is ready and treats its own
part as self-delivered with the same one-round latency; the decision fires at
max(self-delivery, other's arrival), which evaluates to the same round at both
endpoints. In `short` mode multi-value payloads are split into consecutive
single-message chunks under the log-n bit budget; in `wide` mode they go out
in one round.

Optionally the recolor loop is paced: an edge with auxiliary color phi waits
until slot R + phi * s (R = round the group's phi-exchange finished, s = slot
width in rounds), which makes the per-level duration track the phi-palette
instead of the dependency-chain depth.

Bookkeeping: each payload on an edge (labels, readiness, psi counts, bottom
Linial bitmaps, used-color bitmaps) is one `_Exchange` record: this side's
values, the other side's values in chunk order, and the two arrival rounds.
Both endpoints send the same kind of payload over the same domains, so the
values a side sent fix its chunking and how many values to expect back.
Each vertex also keeps a group index keyed by (level, psi-history prefix). An
entry holds the group's edges and the count of those that have not decided
psi at that level, so "is the parent group done" is one count lookup.
When a whole group holds its phi, each edge gets readiness tallies (group
edges with a smaller phi still undecided, the psi counts of those decided,
the final colors taken at the bottom), which every decision updates in place.
A step advances a worklist of dirty edges to the same fixpoint a full rescan
would reach: an edge is dirty when its channel delivered a chunk, a payload was
queued on it, its group's tallies or barrier released it, or the round it
waits for arrived.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import _merge_edge_outputs
from .coloring import EdgeColoring
from .graph import Graph, build_line_graph, edge_ids
from .legal import LevelPlan, RecursionPlan, RecursiveColorProgram, bottom_plan, legal_plan
from .numbers import (
    PolyPlan,
    agreement_counts,
    ceil_log2,
    poly_coeffs,
    poly_eval,
)
from .params import LegalParams, ParamError, recursion_schedule
from .sim import Context, Message, SimError, SimReport, VertexProgram, run

K_LAB, K_RDY, K_CNT, K_BLIN, K_USED, K_RDY2 = range(6)
N_KINDS = 6
DIRECT_ROUND_CAP = 200_000  # round cap of `edge_color_direct`'s run


def conflict_bitmap(own_color: int, nbr_colors: List[int], plan: PolyPlan) -> int:
    """Bit x set iff some neighbor polynomial agrees with ours at x."""
    mask = agreement_counts(own_color, nbr_colors, plan) > 0
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def smallest_pprime(Lambda: int, d: int) -> int:
    """Smallest p' whose round-robin label defect fits under d.

    An edge has at most ceil(Lambda/p') - 1 same-label co-incident edges per
    endpoint, so its phi-defect is at most 2*ceil(Lambda/p') - 2. That is <= d
    exactly when ceil(Lambda/p') <= d//2 + 1, i.e. p' >= ceil(Lambda/(d//2 + 1));
    the result is at most Lambda, hence every level is feasible.
    """
    if d < 0:
        raise ParamError(f"defect target must be nonnegative, got {d}")
    return -(-Lambda // (d // 2 + 1))


def _uniform_pprime(schedule: List[int], params: LegalParams) -> int:
    """One p' valid for every level: at least 2bp+1 (enough for Lambda >> bp)
    and at least each level's minimal feasible value."""
    bp = params.b * params.p
    return max([2 * bp + 1] + [smallest_pprime(Lam, Lam // bp) for Lam in schedule[:-1]])


def edge_level_plans(
    schedule: List[int],
    params: LegalParams,
    m_total: int,
    uniform_pprime: bool = False,
) -> RecursionPlan:
    fixed_pp = _uniform_pprime(schedule, params) if uniform_pprime else None
    levels = []
    for Lam in schedule[:-1]:
        d = Lam // (params.b * params.p)
        pp = fixed_pp if fixed_pp is not None else smallest_pprime(Lam, d)
        levels.append(LevelPlan(Lam, params.p, pp * pp, p_prime=pp))
    # schedule entries bound the INCIDENT degree (line-graph degree), so the
    # bottom greedy needs hat+1 colors; for the whole graph hat = 2*(delta-1)
    # recovers the classical 2*delta-1.
    return RecursionPlan(tuple(levels), bottom_plan(max(m_total, 1), schedule[-1]))


class _Exchange:
    """One symmetric payload exchange on an edge channel (see Bookkeeping)."""

    __slots__ = ("mine", "other", "chunks", "self_arr", "last")

    def __init__(self):
        self.mine: Optional[List[int]] = None  # this side's values
        self.other: List[int] = []  # the other side's values, in chunk order
        self.chunks = 0  # messages this side's payload took
        self.self_arr: Optional[int] = None  # round of this side's self-delivery
        self.last: Optional[int] = None  # round the other side's latest chunk arrived

    def ready_round(self) -> Optional[int]:
        if self.self_arr is None or len(self.other) != len(self.mine):
            return None
        return max(self.self_arr, self.last)


class _Group:
    """The incident edges of one vertex whose psi histories share a prefix.

    A level-i group holds the edges whose first i psi decisions agree; at the
    bottom (i = number of levels) a group holds the edges of one full history.
    """

    __slots__ = ("members", "undecided", "ready", "lin", "parent", "children")

    def __init__(self, parent: Optional["_Group"]):
        self.members: List[int] = []  # neighbor Ids
        self.undecided = 0  # members that have not decided psi at this level
        self.ready = 0  # members holding this level's phi (phi_bot at the bottom)
        self.lin: List[int] = []  # lin[j]: members whose Linial iteration reached j
        self.parent = parent
        self.children: List[_Group] = []
        if parent is not None:
            parent.children.append(self)


class EdgeSlot:
    __slots__ = (
        "nbr",
        "hist",
        "level",
        "stage",
        "phi",
        "lin_hist",
        "phi_bot",
        "color",
        "exch",
        "tele",
        "grp",
        "wait",
        "psi_counts",
        "used",
    )

    def __init__(self, nbr: int, rank: int, stage: str):
        self.nbr = nbr
        self.hist: List[int] = []
        self.level = 0
        self.stage = stage
        self.phi: Dict[int, int] = {}
        # the edge's rank, then its colors after each Linial iteration
        self.lin_hist: List[int] = [rank]
        self.phi_bot: Optional[int] = None
        self.color: Optional[int] = None
        self.exch: Dict[Tuple[int, int, int], _Exchange] = {}
        self.tele: Dict[str, Any] = {"phi": {}, "psi": {}}
        self.grp: Optional[_Group] = None  # the group at the current level
        # readiness tallies, opened when the whole group holds its phi:
        # group edges with a smaller phi (phi_bot, rank at the bottom) still
        # undecided, their psi counts, and the bitmap of final colors taken
        self.wait = 0
        self.psi_counts: List[int] = []
        self.used = 0


def _bitmap(bits: int, width: int) -> List[Tuple[int, int]]:
    """A width-bit set as little-endian byte fields."""
    return [(b, 256) for b in bits.to_bytes((width + 7) // 8, "little")]


def _first_free(ex: _Exchange) -> int:
    """Lowest bit clear in both sides' bitmaps of a byte-field exchange."""
    union = int.from_bytes(bytes(ex.mine), "little") | int.from_bytes(bytes(ex.other), "little")
    return (~union & (union + 1)).bit_length() - 1


class EdgeColorProgram(VertexProgram):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        P = ctx.params
        plan: RecursionPlan = P["plan"]
        self.plan = plan
        self.levels = plan.levels
        self.bottom = plan.bottom
        self.short = ctx.msg_mode == "short"
        self.paced = P.get("paced", False)
        self.lvl_dom = len(self.levels) + 2
        # one fixed psi-count width across levels keeps the per-level chunk
        # count (and so the per-level round cost) uniform
        self.cnt_dom = (self.levels[0].Lambda + 2) if self.levels else 2
        self.it_dom = max(len(self.bottom.lin_plans) + 2, 2)
        self.idx_dom = 64
        header = (
            ceil_log2(N_KINDS)
            + ceil_log2(self.lvl_dom)
            + ceil_log2(self.it_dom)
            + ceil_log2(self.idx_dom)
        )
        # at least one value per chunk even if the budget can't cover it
        self.chunk_budget = max(ctx.budget_bits - header, 1)
        rank = P["rank"]
        stage = "labels" if self.levels else "bot_wait"
        self.slots: Dict[int, EdgeSlot] = {
            u: EdgeSlot(u, rank[(ctx.vid, u) if ctx.vid < u else (u, ctx.vid)], stage)
            for u in ctx.neighbors
        }
        self.groups: Dict[Tuple[int, Tuple[int, ...]], _Group] = {}
        for s in self.slots.values():
            self._join(s, None)
        self.uncolored = len(self.slots)
        # worklist: slots that may advance; wake-ups: round -> slots waiting on it
        self._dirty = set(ctx.neighbors)
        self._due: Dict[int, set] = {}
        self._due_rounds: List[int] = []
        self.queues: Dict[int, List[Message]] = {u: [] for u in ctx.neighbors}
        self.rnd = 0
        self.telemetry = {"edges": {u: s.tele for u, s in self.slots.items()}}

    # -- payload plumbing ----------------------------------------------------

    def _submit(self, u: int, kind: int, lvl: int, it: int, values: List[Tuple[int, int]]):
        """Queue a payload to u and record the self-delivery round: one message
        in wide mode, in short mode as many values per chunk as fit the bit
        budget."""
        if self.queues[u]:
            raise SimError(
                f"vertex {self.ctx.vid}: payload {kind} to {u} queued while an "
                "earlier one is in flight; per-edge payloads are sequential"
            )
        chunks = [values]
        if self.short:
            chunks, used = [[]], 0
            for field in values:
                b = ceil_log2(field[1])
                if chunks[-1] and used + b > self.chunk_budget:
                    chunks.append([])
                    used = 0
                chunks[-1].append(field)
                used += b
        header = ((kind, N_KINDS), (lvl, self.lvl_dom), (it, self.it_dom))
        for idx, chunk in enumerate(chunks):
            self.queues[u].append(Message(*header, (idx, self.idx_dom), *chunk))
        ex = self.exch_of(u, kind, lvl, it)
        ex.mine = [value for value, _ in values]
        ex.chunks = len(chunks)
        ex.self_arr = self.rnd + len(chunks)
        self._check_length(u, ex)
        self._dirty.add(u)

    def exch_of(self, u, kind, lvl, it) -> _Exchange:
        exch = self.slots[u].exch
        key = (kind, lvl, it)
        if key not in exch:
            exch[key] = _Exchange()
        return exch[key]

    def _store(self, u: int, msg: Message):
        f = msg.fields
        ex = self.exch_of(u, f[0][0], f[1][0], f[2][0])
        ex.other.extend(value for value, _ in f[4:])
        ex.last = self.rnd
        self._check_length(u, ex)

    def _check_length(self, u: int, ex: _Exchange):
        if ex.mine is not None and len(ex.other) > len(ex.mine):
            raise SimError(
                f"vertex {self.ctx.vid}: the payload from {u} has {len(ex.other)} "
                f"values, more than the {len(ex.mine)} sent to it"
            )

    # -- main step -----------------------------------------------------------

    def step(self, round_no, inbox):
        self.rnd = round_no
        for u, msg in inbox:
            self._store(u, msg)
            self._dirty.add(u)
        due = self._due_rounds
        while due and due[0] <= round_no:
            self._dirty.update(self._due.pop(heappop(due)))
        if round_no == 1 and self.levels and self.slots:
            self._start_group(self.groups[(0, ())], 0)
        self._advance()
        out: Dict[int, List[Message]] = {}
        pending = False
        for u, q in self.queues.items():
            if not q:
                continue
            if self.short:
                out[u] = [q.pop(0)]
            else:
                out[u] = list(q)
                q.clear()
            if q:
                pending = True
        # every registered wake-up lies after this round
        self.wake = round_no + 1 if pending else (due[0] if due else None)
        if not self.uncolored and not pending:
            self.output = {u: s.color for u, s in self.slots.items()}
        return out

    # -- group index ---------------------------------------------------------

    def _join(self, s: EdgeSlot, parent: Optional[_Group]):
        """Enter s into the group of its current level and psi history."""
        key = (s.level, tuple(s.hist))
        g = self.groups.get(key)
        if g is None:
            g = self.groups[key] = _Group(parent)
        g.members.append(s.nbr)
        g.undecided += 1
        s.grp = g

    def _start_group(self, g: _Group, lvl: int):
        """Assign round-robin labels in a group whose membership is final."""
        pp = self.levels[lvl].p_prime
        for i, w in enumerate(sorted(g.members)):
            self.slots[w].stage = "phi"
            self._submit(w, K_LAB, lvl, 0, [(i % pp, pp)])

    def _hold(self, s: EdgeSlot):
        """s now holds its phi (phi_bot at the bottom). Once the whole group
        does, open each member's tallies and signal readiness on its channel."""
        g, lvl = s.grp, s.level
        g.ready += 1
        if g.ready < len(g.members):
            return
        if lvl < len(self.levels):
            kind, key, p = K_RDY, (lambda w: self.slots[w].phi[lvl]), self.levels[lvl].p
        else:
            kind, key, p = K_RDY2, self._bot_key, 0
        keys = sorted(map(key, g.members))
        for w in g.members:
            sw = self.slots[w]
            sw.wait = bisect_left(keys, key(w))
            sw.psi_counts = [0] * p
            self._submit(w, kind, lvl, 0, [(1, 2)])

    def _release(self, s: EdgeSlot):
        """One fewer group edge ahead of s is undecided."""
        s.wait -= 1
        if not s.wait:
            self._dirty.add(s.nbr)

    def _decide_psi(self, s: EdgeSlot, psi: int):
        """Append psi to the history of s, the one place a history grows, and
        update the group index, undecided counts and loop tallies with it."""
        lvl, g = s.level, s.grp
        s.hist.append(psi)
        g.undecided -= 1
        mine = s.phi[lvl]
        for w in g.members:
            sw = self.slots[w]
            if sw.phi[lvl] > mine:
                sw.psi_counts[psi - 1] += 1
                self._release(sw)
        s.level += 1
        s.stage = "labels" if s.level < len(self.levels) else "bot_wait"
        self._join(s, g)
        if g.undecided:
            return
        # every child group's membership is now final
        if s.level < len(self.levels):
            for child in g.children:
                self._start_group(child, s.level)
        else:
            self._dirty.update(g.members)

    # -- the advance loop ----------------------------------------------------

    def _advance(self):
        """Advance dirty slots until none can move: the round's fixpoint."""
        dirty, slots = self._dirty, self.slots
        while dirty:
            u = dirty.pop()
            s = slots[u]
            if s.color is None and getattr(self, "_slot_" + s.stage)(s):
                dirty.add(u)

    def _reached(self, s: EdgeSlot, r: Optional[int]) -> bool:
        """Whether round r has come; a known later r registers a wake-up."""
        if r is None:
            return False
        if r <= self.rnd:
            return True
        waiting = self._due.get(r)
        if waiting is None:
            waiting = self._due[r] = set()
            heappush(self._due_rounds, r)
        waiting.add(s.nbr)
        return False

    def _paced_due(self, ex: _Exchange, start: int, key: int) -> Optional[int]:
        """The decision round of an exchange: its ready round, and when paced
        no earlier than slot `key` (width ex.chunks + 2 rounds) after start."""
        rr = ex.ready_round()
        if rr is None or not self.paced:
            return rr
        return max(rr, start + key * (ex.chunks + 2))

    def _slot_labels(self, s: EdgeSlot) -> bool:
        return False  # waits for _start_group

    def _slot_phi(self, s: EdgeSlot) -> bool:
        lvl = s.level
        ex = self.exch_of(s.nbr, K_LAB, lvl, 0)
        rr = ex.ready_round()
        if not self._reached(s, rr):
            return False
        mine, other = ex.mine[0] + 1, ex.other[0] + 1
        lo, hi = (mine, other) if self.ctx.vid < s.nbr else (other, mine)
        s.phi[lvl] = (lo - 1) * self.levels[lvl].p_prime + hi
        # record the symmetric ready round, not the (possibly later) step round
        s.tele["phi"][lvl] = [rr, s.phi[lvl]]
        s.stage = "rdy"
        self._hold(s)
        return True

    def _slot_rdy(self, s: EdgeSlot) -> bool:
        if not self._reached(s, self.exch_of(s.nbr, K_RDY, s.level, 0).ready_round()):
            return False
        s.stage = "loop"
        return True

    def _slot_loop(self, s: EdgeSlot) -> bool:
        """Send N_{e,v}(k), the psi counts over this side's group edges with
        smaller phi, once they have all decided; then pick the least loaded
        psi from both sides' counts."""
        lvl = s.level
        ex = self.exch_of(s.nbr, K_CNT, lvl, 0)
        if ex.mine is None:
            if s.wait:
                return False
            vals = [(min(c, self.cnt_dom - 1), self.cnt_dom) for c in s.psi_counts]
            self._submit(s.nbr, K_CNT, lvl, 0, vals)
            return True
        start = self.exch_of(s.nbr, K_RDY, lvl, 0).ready_round()
        due = self._paced_due(ex, start, s.phi[lvl])
        if not self._reached(s, due):
            return False
        totals = [a + b for a, b in zip(ex.mine, ex.other)]
        psi = 1 + min(range(len(totals)), key=lambda k: (totals[k], k))
        s.tele["psi"][lvl] = [due, psi]
        self._decide_psi(s, psi)
        return True

    # -- bottom --------------------------------------------------------------

    def _slot_bot_wait(self, s: EdgeSlot) -> bool:
        g = s.grp
        if g.parent is not None and g.parent.undecided:
            return False
        s.stage = "bot_lin"
        self._lin_reached(g, 0)
        return True

    def _lin_reached(self, g: _Group, it: int):
        if len(g.lin) == it:
            g.lin.append(0)
        g.lin[it] += 1
        if g.lin[it] == len(g.members):
            self._dirty.update(g.members)

    def _slot_bot_lin(self, s: EdgeSlot) -> bool:
        plans = self.bottom.lin_plans
        lvl = len(self.levels)
        g = s.grp
        it = len(s.lin_hist) - 1
        if it == len(plans):
            s.phi_bot = s.lin_hist[-1]
            lin_rnd = s.exch[(K_BLIN, lvl, len(plans) - 1)].ready_round() if plans else 0
            s.tele["phi"]["bot"] = [lin_rnd, s.phi_bot]
            s.stage = "greedy"
            self._hold(s)
            return True
        plan = plans[it]
        cur = s.lin_hist[it]
        ex = self.exch_of(s.nbr, K_BLIN, lvl, it)
        if ex.mine is None:
            # every group edge must have reached this Linial iteration
            if g.lin[it] < len(g.members):
                return False
            cols = [self.slots[w].lin_hist[it] for w in g.members if w != s.nbr]
            bits = conflict_bitmap(cur, cols, plan)
            self._submit(s.nbr, K_BLIN, lvl, it, _bitmap(bits, plan.q))
            return True
        if not self._reached(s, ex.ready_round()):
            return False
        x = _first_free(ex)
        if x >= plan.q:
            raise SimError(
                f"vertex {self.ctx.vid}: no conflict-free Linial point for the edge "
                f"to {s.nbr} in iteration {it} (incident-degree bound violated)"
            )
        val = poly_eval(poly_coeffs(cur, plan.k, plan.q), x, plan.q)
        s.lin_hist.append(x * plan.q + val + 1)
        self._lin_reached(g, it + 1)
        return True

    def _bot_key(self, u: int) -> Tuple[int, int]:
        s = self.slots[u]
        return (s.phi_bot, s.lin_hist[0])

    def _slot_greedy(self, s: EdgeSlot) -> bool:
        """Send the bitmap of final colors on this side once every group edge
        with a smaller (phi_bot, rank) has one; then take the least color
        free on both sides."""
        lvl = len(self.levels)
        start = self.exch_of(s.nbr, K_RDY2, lvl, 0).ready_round()
        if not self._reached(s, start):
            return False
        W = self.bottom.target
        ex = self.exch_of(s.nbr, K_USED, lvl, 0)
        if ex.mine is None:
            if s.wait:
                return False
            self._submit(s.nbr, K_USED, lvl, 0, _bitmap(s.used, W))
            return True
        due = self._paced_due(ex, start, s.phi_bot)
        if not self._reached(s, due):
            return False
        k = _first_free(ex) + 1
        s.color = self.plan.color(k, s.hist)
        s.tele["final"] = [due, k, s.color]
        self.uncolored -= 1
        bit = 1 << (k - 1) if k <= W else 0
        mykey = self._bot_key(s.nbr)
        for w in s.grp.members:
            if w == s.nbr:
                continue
            sw = self.slots[w]
            sw.used |= bit
            if self._bot_key(w) > mykey:
                self._release(sw)
        return True


# -- wrappers -----------------------------------------------------------------


def edge_color_direct(
    g: Graph,
    params: LegalParams,
    msg_mode: str = "short",
    paced: bool = False,
    budget_factor: int = 1,
) -> Tuple[EdgeColoring, SimReport]:
    """Legal edge coloring via the edge-specialized recursion; short messages."""
    Lambda0 = max(2 * (g.delta - 1), 1)
    params.validate(Lambda0)
    schedule = recursion_schedule(params, Lambda0)
    # paced runs reserve one slot per phi value, so a level-independent phi
    # palette makes the per-level round cost uniform
    plan = edge_level_plans(schedule, params, g.m, uniform_pprime=paced)
    run_params = {"plan": plan, "rank": edge_ids(g), "paced": paced}
    report = run(
        g,
        EdgeColorProgram,
        msg_mode=msg_mode,
        round_cap=DIRECT_ROUND_CAP,
        params=run_params,
        budget_factor=budget_factor,
    )
    col = _merge_edge_outputs(g, report, plan.suffix[0])
    _check_endpoint_consistency(g, report)
    report.extra["vartheta"] = plan.suffix[0]
    report.extra["level_lambdas"] = list(schedule)
    report.flags.append("setup: edge Ids assigned by global dense rank")
    return col, report


def _check_endpoint_consistency(g: Graph, report: SimReport):
    """Both endpoints of every edge recorded identical (round, value) pairs for
    every per-level phi and psi decision and for the final color."""
    for u, w in g.edges():
        tu = report.telemetry[u]["edges"][w]
        tw = report.telemetry[w]["edges"][u]
        for key in ("phi", "psi", "final"):
            if tu.get(key) != tw.get(key):
                raise SimError(f"{key} history differs on ({u},{w})", report)


def edge_color_2delta_minus_1(g: Graph) -> Tuple[EdgeColoring, SimReport]:
    """Legal edge coloring with palette <= 2*delta-1 (bottom stage only)."""
    if g.m == 0:
        return EdgeColoring({}, 1, 0), SimReport(0, 0, 0, {})
    hat = max(2 * (g.delta - 1), 0)  # incident-degree bound of the edge set
    run_params = {"plan": RecursionPlan((), bottom_plan(g.m, hat)), "rank": edge_ids(g)}
    report = run(g, EdgeColorProgram, params=run_params)
    return _merge_edge_outputs(g, report, hat + 1), report


def edge_color_via_line_graph(
    g: Graph,
    params: LegalParams,
    phi_mode: str = "fast",
) -> Tuple[EdgeColoring, SimReport]:
    """Vertex-color the line graph through the host simulation; the induced
    edge coloring inherits its palette bound."""
    from .sim import run_on_line_graph

    lgm = build_line_graph(g)
    plan, schedule = legal_plan(lgm.lg, params, phi_mode)
    report = run_on_line_graph(g, RecursiveColorProgram, params={"plan": plan}, lgm=lgm)
    colors = {lgm.edge_of[v]: out["color"] for v, out in report.outputs.items()}
    report.extra["vartheta"] = plan.suffix[0]
    report.extra["level_lambdas"] = list(schedule)
    return EdgeColoring(colors, plan.suffix[0], 0), report
