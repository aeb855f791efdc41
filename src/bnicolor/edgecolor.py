"""Edge coloring: the direct short-message variant and the line-graph path,
both planned by `legal.legal_plan` at `graph.edge_knowledge` (the direct one
with edge-label levels), and the bottom-only 2*delta - 1 route.

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
single-message chunks sized by the log-n bit budget, but do not yet meet it:
the header alone can exceed it, and the run flags every message that does. In
`wide` mode they go out in one round.

Optionally the recolor loop is paced: an edge with auxiliary color phi waits
until slot R + phi * s (R = round the group's phi-exchange finished, s = slot
width in rounds), which makes the per-level duration track the phi-palette
instead of the dependency-chain depth.

Bookkeeping: each payload on an edge (labels, readiness, psi counts, bottom
Linial bitmaps, used-color bitmaps) is one `_Exchange` record: this side's
values, the other side's values in chunk order, and the two arrival rounds.
Both endpoints send the same kind of payload over the same domain, so the
values a side sent fix its chunking and how many values to expect back.
Each vertex keeps its groups as a tree: a group's child for psi holds the
members that decided psi at its level, and the decision that leaves no member
undecided starts the children.
When a whole group holds its phi, each edge gets readiness tallies (group
edges with a smaller phi still undecided, the psi counts of those decided,
the final colors taken at the bottom), which every decision updates in place.
`_start_group` starts a group once its membership is final: it sends the
round-robin labels of a level group, and lets a bottom group's Linial
iterations begin.
Each edge's run is one generator, `EdgeColorProgram._edge`, kept on its slot as
`EdgeSlot.run`, that walks the levels in the paper's order and yields wherever
it waits for a round or a tally. As in `legal`, its body and those of its
sub-generators `_until` and `_turn` hold no comprehension or lambda, so a
suspended run keeps no closure cells. A step resumes a worklist of dirty edges
to the same fixpoint a full rescan would reach: an edge is dirty when its
channel completed the other side's payload of an exchange this side has sent,
another edge's run queued a payload on it, its group's tallies or barrier
released it, or the round it waits for (on the wake-up heap) arrived. A
partial payload resumes no run, since a run reads an exchange only once
`ready_round` is known. A step sends one message from each channel whose
queue is non-empty.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import _merge_edge_outputs, label_color, step_color
from .coloring import EdgeColoring
from .graph import EDGE_IDS_FLAG, Graph, build_line_graph, edge_ids, edge_knowledge, knowledge
from .legal import RecursionPlan, RecursiveColorProgram, bottom_plan, legal_plan
from .numbers import (
    PolyPlan,
    agreement_counts,
    ceil_log2,
    poly_eval,
)
from .params import LegalParams, ParamError
from .sim import Context, Message, SimError, SimReport, VertexProgram, run

K_LAB, K_RDY, K_CNT, K_BLIN, K_USED = range(5)
N_KINDS = 5


def conflict_bitmap(own_color: int, nbr_colors: List[int], plan: PolyPlan) -> int:
    """Bit x set iff some neighbor polynomial agrees with ours at x."""
    mask = agreement_counts(own_color, nbr_colors, plan) > 0
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


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

    __slots__ = ("members", "undecided", "ready", "lin", "children")

    def __init__(self):
        self.members: List[int] = []  # neighbor Ids
        self.undecided = 0  # members that have not decided psi at this level
        self.ready = 0  # members holding this level's phi
        self.lin = [0]  # lin[j]: members whose Linial iteration reached j (bottom only)
        self.children: Dict[int, _Group] = {}  # psi -> the next level's group


class EdgeSlot:
    __slots__ = (
        "nbr",
        "hist",
        "run",
        "phi",
        "lin_hist",
        "color",
        "exch",
        "tele",
        "grp",
        "wait",
        "psi_counts",
        "used",
    )

    def __init__(self, nbr: int, rank: int):
        self.nbr = nbr
        self.hist: List[int] = []  # psi per level decided; its length is the level
        self.run: Any = None  # the edge's run, EdgeColorProgram._edge
        # the phi of the current level; at the bottom, the last Linial color
        self.phi: Optional[int] = None
        # the edge's rank, then its colors after each Linial iteration
        self.lin_hist: List[int] = [rank]
        self.color: Optional[int] = None
        self.exch: Dict[Tuple[int, int, int], _Exchange] = defaultdict(_Exchange)
        self.tele: Dict[str, Any] = {"phi": {}, "psi": {}}
        self.grp: Optional[_Group] = None  # the group at the current level
        # readiness tallies, opened when the whole group holds its phi:
        # group edges with a smaller phi ((phi, rank) at the bottom) still
        # undecided, their psi counts, and the bitmap of final colors taken
        self.wait = 0
        self.psi_counts: List[int] = []
        self.used = 0


def _bitmap(bits: int, width: int) -> List[int]:
    """A width-bit set as little-endian bytes (domain 256)."""
    return list(bits.to_bytes((width + 7) // 8, "little"))


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
        # count (and so the per-level round cost) uniform. Planned, it is at
        # least 2 * delta > every count (<= delta - 1); `Message` refuses any other
        self.cnt_dom = (self.levels[0].Lambda + 2) if self.levels else 2
        self.it_dom = max(len(self.bottom.lin_plans) + 2, 2)
        # the chunk index has 64 values unless the plan's longest payload (psi
        # counts, bitmaps) needs more chunks under the header that implies
        bitmaps = [lp.q for lp in self.bottom.lin_plans] + [self.bottom.target]
        payloads = [(lv.p, self.cnt_dom) for lv in self.levels]
        payloads += [((w + 7) // 8, 256) for w in bitmaps]
        self.idx_dom, chunks = 0, 64
        while chunks > self.idx_dom:
            self.idx_dom = chunks
            header = sum(map(ceil_log2, (N_KINDS, self.lvl_dom, self.it_dom, self.idx_dom)))
            # at least one value per chunk even if the budget can't cover it
            self.chunk_budget = max(ctx.budget_bits - header, 1)
            chunks = max(-(-n // self._per_chunk(n, dom)) for n, dom in payloads)
        rank = P["rank"]
        self.slots: Dict[int, EdgeSlot] = {
            u: EdgeSlot(u, rank[(ctx.vid, u) if ctx.vid < u else (u, ctx.vid)])
            for u in ctx.neighbors
        }
        self.root = _Group()  # the group of all the vertex's edges, at level 0
        for s in self.slots.values():
            self._join(s, self.root)
            s.run = self._edge(s)
        self.uncolored = len(self.slots)
        # worklist: slots that may advance; wake-ups: a heap of (round, slot)
        self._dirty = set(ctx.neighbors)
        self._due: List[Tuple[int, int]] = []
        self.queues: Dict[int, List[Message]] = {}  # the non-empty outbound queues
        self.rnd = 0
        self.telemetry = {"edges": {u: s.tele for u, s in self.slots.items()}}

    # -- payload plumbing ----------------------------------------------------

    def _per_chunk(self, n: int, dom: int) -> int:
        """Values per message of an n-value payload over dom: all of them in
        wide mode, in short mode as many as fit the bit budget."""
        return max(self.chunk_budget // ceil_log2(dom), 1) if self.short else max(n, 1)

    def _submit(self, u: int, kind: int, lvl: int, it: int, values: List[int], dom: int):
        """Queue a payload to u, cut into equal chunks, and record the
        self-delivery round."""
        if u in self.queues:
            raise SimError(
                f"vertex {self.ctx.vid}: payload {kind} to {u} queued while an "
                "earlier one is in flight; per-edge payloads are sequential"
            )
        k = self._per_chunk(len(values), dom)
        header = ((kind, N_KINDS), (lvl, self.lvl_dom), (it, self.it_dom))
        self.queues[u] = [
            Message(*header, (i // k, self.idx_dom), *[(v, dom) for v in values[i : i + k]])
            for i in range(0, len(values) or 1, k)
        ]
        ex = self.slots[u].exch[kind, lvl, it]
        ex.mine = values
        ex.chunks = len(self.queues[u])
        ex.self_arr = self.rnd + ex.chunks
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
        dirty = self._dirty
        for u, msg in inbox:
            f = msg.fields
            ex = self.slots[u].exch[f[0][0], f[1][0], f[2][0]]
            ex.other += [value for value, _ in f[4:]]
            ex.last = round_no
            if ex.mine is not None and len(ex.other) >= len(ex.mine):
                self._check_length(u, ex)
                dirty.add(u)
        due = self._due
        while due and due[0][0] <= round_no:
            dirty.add(heappop(due)[1])
        if round_no == 1 and self.slots:
            self._start_group(self.root, 0)
        if dirty:
            self._advance()
        # one message per busy channel (a wide payload is one message), in
        # ascending neighbor order: the report's budget flags follow it
        out: Dict[int, List[Message]] = {}
        queues = self.queues
        for u in sorted(queues):
            q = queues[u]
            out[u] = [q.pop(0)]
            if not q:
                del queues[u]
        # every registered wake-up lies after this round
        self.wake = round_no + 1 if queues else (due[0][0] if due else None)
        if not self.uncolored and not queues:
            self.output = {u: s.color for u, s in self.slots.items()}
        return out

    # -- group index ---------------------------------------------------------

    def _join(self, s: EdgeSlot, g: _Group):
        """Enter s into g, the group of its current level and psi history."""
        g.members.append(s.nbr)
        g.undecided += 1
        s.grp = g

    def _start_group(self, g: _Group, lvl: int):
        """Start a group whose membership is final: assign round-robin labels
        at a level, or let every member begin its bottom Linial iterations."""
        if lvl == len(self.levels):
            g.lin = [len(g.members)] + [0] * len(self.bottom.lin_plans)
        else:
            pp = self.levels[lvl].p_prime
            for i, w in enumerate(sorted(g.members)):
                self._submit(w, K_LAB, lvl, 0, [i % pp], pp)
        self._dirty.update(g.members)

    def _hold(self, s: EdgeSlot):
        """s now holds its phi. Once the whole group does, open each member's
        tallies and signal readiness on its channel."""
        g, lvl = s.grp, len(s.hist)
        g.ready += 1
        if g.ready < len(g.members):
            return
        if lvl < len(self.levels):
            key, p = (lambda w: self.slots[w].phi), self.levels[lvl].p
        else:
            key, p = self._bot_key, 0
        keys = sorted(map(key, g.members))
        for w in g.members:
            sw = self.slots[w]
            sw.wait = bisect_left(keys, key(w))
            sw.psi_counts = [0] * p
            self._submit(w, K_RDY, lvl, 0, [1], 2)
        self._dirty.update(g.members)

    def _release(self, s: EdgeSlot):
        """One fewer group edge ahead of s is undecided."""
        s.wait -= 1
        if not s.wait:
            self._dirty.add(s.nbr)

    def _decide_psi(self, s: EdgeSlot, psi: int):
        """Append psi to the history of s, the one place a history grows, and
        update the group index, undecided counts and loop tallies with it."""
        lvl, g = len(s.hist), s.grp
        s.hist.append(psi)
        g.undecided -= 1
        # no member holds the next level's phi until every member has decided
        for w in g.members:
            sw = self.slots[w]
            if sw.phi > s.phi:
                sw.psi_counts[psi - 1] += 1
                self._release(sw)
        if psi not in g.children:
            g.children[psi] = _Group()
        self._join(s, g.children[psi])
        if g.undecided:
            return
        # every child group's membership is now final
        for child in g.children.values():
            self._start_group(child, lvl + 1)

    # -- the edge's run -----------------------------------------------------

    def _advance(self):
        """Resume dirty slots until none can move: the round's fixpoint. A
        run's marks on its own slot are dropped when it yields: its wait saw them."""
        dirty, slots = self._dirty, self.slots
        while dirty:
            u = dirty.pop()
            next(slots[u].run, None)
            dirty.discard(u)

    def _until(self, s: EdgeSlot, ex: _Exchange, start: Optional[int] = None):
        """Wait for the ready round of ex, and, when paced and given a start,
        for slot s.phi (width ex.chunks + 2 rounds) after start; return it.
        Once that round is known and still ahead, s goes on the wake-up heap
        `_due`, which resumes it when the round comes."""
        while True:
            r = ex.ready_round()
            if r is not None and start is not None and self.paced:
                r = max(r, start + s.phi * (ex.chunks + 2))
            if r is not None:
                if r <= self.rnd:
                    return r
                heappush(self._due, (r, s.nbr))
            yield

    def _turn(self, s: EdgeSlot, lvl: int):
        """Wait for the readiness exchange of level lvl, then until every group
        edge ahead of s has decided; return the exchange's ready round."""
        start = yield from self._until(s, s.exch[K_RDY, lvl, 0])
        while s.wait:
            yield
        return start

    def _edge(self, s: EdgeSlot):
        """The edge's run, in the paper's order. At each level: phi from both
        sides' labels, then N_{e,v}(k), the psi counts of the group edges with
        a smaller phi on this side, and the least loaded psi over both sides.
        At the bottom: the Linial iterations, then the bitmap of final colors
        taken on this side by group edges with a smaller (phi, rank), and the
        least color free on both sides. It holds no comprehension or lambda."""
        vid, slots = self.ctx.vid, self.slots
        for lvl, level in enumerate(self.levels):
            ex = s.exch[K_LAB, lvl, 0]
            rr = yield from self._until(s, ex)
            s.phi = label_color(ex.mine[0] + 1, ex.other[0] + 1, vid, s.nbr, level.p_prime)
            # record the symmetric ready round, not the (possibly later) step round
            s.tele["phi"][lvl] = [rr, s.phi]
            self._hold(s)
            start = yield from self._turn(s, lvl)
            self._submit(s.nbr, K_CNT, lvl, 0, list(s.psi_counts), self.cnt_dom)
            ex = s.exch[K_CNT, lvl, 0]
            due = yield from self._until(s, ex, start)
            psi = _least_loaded(ex.mine, ex.other)
            s.tele["psi"][lvl] = [due, psi]
            self._decide_psi(s, psi)
        lvl, g, lin_rnd = len(self.levels), s.grp, 0
        # every group edge must reach an iteration before any edge runs it
        for it, plan in enumerate(self.bottom.lin_plans):
            while g.lin[it] < len(g.members):
                yield
            cur = s.lin_hist[it]
            bits = conflict_bitmap(cur, _lin_colors(slots, g.members, s.nbr, it), plan)
            self._submit(s.nbr, K_BLIN, lvl, it, _bitmap(bits, plan.q), 256)
            ex = s.exch[K_BLIN, lvl, it]
            lin_rnd = yield from self._until(s, ex)
            x = _first_free(ex)
            if x >= plan.q:
                raise SimError(
                    f"vertex {vid}: no conflict-free Linial point for the edge "
                    f"to {s.nbr} in iteration {it} (incident-degree bound violated)"
                )
            s.lin_hist.append(step_color(cur, x, plan))
            g.lin[it + 1] += 1
            if g.lin[it + 1] == len(g.members):
                self._dirty.update(g.members)
        while g.lin[-1] < len(g.members):
            yield
        s.phi = s.lin_hist[-1]
        s.tele["phi"]["bot"] = [lin_rnd, s.phi]
        self._hold(s)
        start = yield from self._turn(s, lvl)
        W = self.bottom.target
        self._submit(s.nbr, K_USED, lvl, 0, _bitmap(s.used, W), 256)
        ex = s.exch[K_USED, lvl, 0]
        due = yield from self._until(s, ex, start)
        k = _first_free(ex) + 1
        s.color = self.plan.color(k, s.hist)
        s.tele["final"] = [due, k, s.color]
        self.uncolored -= 1
        bit = 1 << (k - 1) if k <= W else 0
        mykey = self._bot_key(s.nbr)
        for w in g.members:
            if w == s.nbr:
                continue
            sw = slots[w]
            sw.used |= bit
            if self._bot_key(w) > mykey:
                self._release(sw)

    def _bot_key(self, u: int) -> Tuple[int, int]:
        s = self.slots[u]
        return (s.phi, s.lin_hist[0])


def _least_loaded(mine: List[int], other: List[int]) -> int:
    """The psi in 1..p with the least count over both sides, the least on a tie."""
    totals = [a + b for a, b in zip(mine, other)]
    return 1 + totals.index(min(totals))


def _lin_colors(slots: Dict[int, EdgeSlot], members: List[int], nbr: int, it: int) -> List[int]:
    """The colors after Linial iteration it of the group edges other than nbr's."""
    return [slots[w].lin_hist[it] for w in members if w != nbr]


# -- wrappers -----------------------------------------------------------------


def edge_color_direct(
    g: Graph,
    params: LegalParams,
    msg_mode: str = "short",
    paced: bool = False,
    budget_factor: int = 1,
) -> Tuple[EdgeColoring, SimReport]:
    """Legal edge coloring via the edge-specialized recursion; short messages."""
    if budget_factor < 1:
        raise ParamError(f"budget_factor must be at least 1, got {budget_factor}")
    plan = legal_plan(edge_knowledge(g), params, paced=paced)
    col, report = _run_edge_program(g, plan, paced, msg_mode=msg_mode, budget_factor=budget_factor)
    report.extra["vartheta"] = plan.suffix[0]
    report.flags.append(EDGE_IDS_FLAG)
    return col, report


def _run_edge_program(g: Graph, plan: RecursionPlan, paced: bool = False, **run_kw):
    """Run EdgeColorProgram on plan; both endpoints of every edge must report
    the same color and the same decisions on the way to it."""
    run_params = {"plan": plan, "rank": edge_ids(g), "paced": paced}
    report = run(g, EdgeColorProgram, params=run_params, **run_kw)
    col = _merge_edge_outputs(g, report, plan.suffix[0])
    _check_endpoint_consistency(g, report)
    report.extra["level_lambdas"] = plan.lambdas
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
    """Legal edge coloring with palette <= 2*delta-1 (bottom stage only), sized
    at edge_degree: 0 on a matching, where `edge_knowledge` lifts it to 1."""
    bottom = bottom_plan(edge_knowledge(g).N, knowledge(g).edge_degree)
    return _run_edge_program(g, RecursionPlan((), bottom))


def edge_color_via_line_graph(
    g: Graph,
    params: LegalParams,
    phi_mode: str = "fast",
) -> Tuple[EdgeColoring, SimReport]:
    """Vertex-color the line graph through the host simulation, planned at
    the edge `Knowledge` as the direct route is; the induced edge coloring
    inherits its palette bound."""
    from .sim import run_on_line_graph

    lgm = build_line_graph(g)
    plan = legal_plan(edge_knowledge(g), params, phi_mode)
    report = run_on_line_graph(g, RecursiveColorProgram, params={"plan": plan}, lgm=lgm)
    colors = {lgm.edge_of[v]: out["color"] for v, out in report.outputs.items()}
    report.extra["vartheta"] = plan.suffix[0]
    report.extra["level_lambdas"] = plan.lambdas
    return EdgeColoring(colors, plan.suffix[0], 0), report
