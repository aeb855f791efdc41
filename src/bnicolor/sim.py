"""Deterministic synchronous round executor for per-vertex programs.

Model: messages sent in round r are delivered at the start of round r+1; a
vertex is stepped in round 1 and afterwards whenever its inbox is non-empty,
or, with an empty inbox, in the round its `wake` names (the wake-up is
cleared when the vertex is stepped in or after that round). Vertices are
stepped in ascending Id order, and an inbox lists its senders in ascending Id
order, each sender's messages in batch order. The reported round count is the
last round in which any vertex sent a message (0 for an all-silent program).
A vertex halts by assigning `self.output`; it is never stepped again, and
messages sent to it (neighbors may not know yet) are dropped.

Message bit accounting: a message is a sequence of (value, domain) integer
fields and costs sum(ceil(log2(domain))) bits. In `short` mode each (edge,
direction, round) carries at most one message and rounds exceeding the log-n
budget are flagged (never rejected); `wide` mode allows multiplexing and
reports the maximum count. The budget is budget_factor * ceil(log2(N)) bits,
N the Id bound of `graph.knowledge(g)`. Each program's `Context` carries N as
`n`, the run's `msg_mode` and that budget as `budget_bits`, so a program
splits its payloads by the same rule the run accounts them with. A `Context`
holds no seed: the programs are deterministic, and the one random draw
(`legal.draw_classes`) is made before a run and handed in through `params`.

Several destinations of one outbox may share one batch object (a broadcast).
The run accounts such a batch once, for the batch run, the run of
consecutive destinations holding it: its bits, the maximum width and
multiplexing, and its inbox entries are computed once and reused, and
`on_send` is called once with the run's destinations; the short-mode budget
flag stays per destination. The run never mutates a batch, and a program
must not mutate one after returning it.

Locality is checked once per sending step, the outbox's destinations against
the sender's adjacency tuple `g.adj[v]`; no neighbor set is stored. On a
violation, the destinations before the first stranger are accounted, in
outbox order, before `LocalityViolation` is raised.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import takewhile
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .graph import EDGE_IDS_FLAG, Graph, LineGraphMap, build_line_graph, knowledge
from .numbers import ceil_log2


class SimError(RuntimeError):
    def __init__(self, msg: str, partial: "SimReport" = None):
        super().__init__(msg)
        self.partial = partial


class RoundCapExceeded(SimError):
    pass


class DeadlockError(SimError):
    pass


class LocalityViolation(SimError):
    pass


class Message:
    __slots__ = ("fields", "bits")

    def __init__(self, *fields: Tuple[int, int]):
        bits = 0
        for value, domain in fields:
            if domain < 1 or not (0 <= value < domain):
                raise ValueError(f"field value {value} outside domain {domain}")
            bits += (domain - 1).bit_length() or 1  # ceil_log2(domain)
        self.fields = fields
        self.bits = bits

    def __repr__(self):
        return f"Message({', '.join(str(f) for f in self.fields)})"


@dataclass
class Context:
    vid: int
    neighbors: Tuple[int, ...]
    n: int  # the Id bound N of the run's `graph.knowledge`
    params: Dict[str, Any] = field(default_factory=dict)
    # set by `run`: its message mode and short-mode bit budget per message
    msg_mode: str = "wide"
    budget_bits: int = 0


class VertexProgram:
    """Base class: subclass and implement step(round_no, inbox) -> outbox.

    inbox is a list of (sender Id, Message); outbox maps neighbor Id to a
    Message (short mode) or a list of Messages (wide mode), and may be empty
    or None when the step sends nothing. Several neighbors may map to the
    same batch object: the run accounts it once and never mutates it, and the
    program must not mutate it after returning it. Set self.output to halt.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.output: Optional[Any] = None
        self.telemetry: Dict[str, Any] = {}
        # set to a future round number to be stepped then even with an empty inbox
        self.wake: Optional[int] = None

    def step(self, round_no: int, inbox: List[Tuple[int, "Message"]]):
        raise NotImplementedError


@dataclass
class SimReport:
    rounds: int
    max_msg_bits: int
    msgs_per_edge_round: int
    outputs: Dict[int, Any]
    flags: List[str] = field(default_factory=list)
    telemetry: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "rounds": self.rounds,
            "max_msg_bits": self.max_msg_bits,
            "msgs_per_edge_round": self.msgs_per_edge_round,
            "outputs": {str(v): out for v, out in sorted(self.outputs.items())},
            "flags": list(self.flags),
            "extra": self.extra,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


DEFAULT_ROUND_CAP = 100_000
MAX_FLAGS = 50
_NO_BATCH = object()  # never an outbox value: the first destination starts a new batch


def run(
    g: Graph,
    program: Callable[[Context], VertexProgram],
    msg_mode: str = "wide",
    round_cap: int = DEFAULT_ROUND_CAP,
    params: Optional[Dict[str, Any]] = None,
    budget_factor: int = 1,
    on_send: Optional[Callable[[int, int, List[int], int], None]] = None,
) -> SimReport:
    """Execute `program` on every vertex of g until all halt.

    on_send(round, sender, dsts, bits), if given, is called once per batch run
    of a non-empty batch: dsts lists the run's destinations in outbox order
    (a new list per call) and bits is the batch's bit sum. Calls come in
    delivery order: rounds never decrease; within one, senders ascend, each
    in outbox order. When a multiplexed short-mode batch or a non-neighbor
    raises, every run before it is passed on first.

    Raises RoundCapExceeded / DeadlockError with a partial report attached,
    and LocalityViolation if a program addresses a non-neighbor.
    """
    if msg_mode not in ("short", "wide"):
        raise ValueError(f"unknown msg_mode {msg_mode!r}")
    if round_cap <= 0:
        raise ValueError("round_cap must be positive")
    short = msg_mode == "short"
    params = dict(params or {})
    N, n, _ = knowledge(g)
    budget = budget_factor * ceil_log2(N)
    insts: Dict[int, VertexProgram] = {}
    for v in g.vertices:
        ctx = Context(v, g.adj[v], N, params, msg_mode, budget)
        insts[v] = program(ctx)

    adj = g.adj
    inboxes: Dict[int, List[Tuple[int, Message]]] = {}
    halted: Set[int] = set()
    wakeups: List[Tuple[int, int]] = []  # (wake round, v); stale entries are skipped
    to_step = list(g.vertices)
    rounds_done = 0
    max_bits = 0
    max_mux = 0
    flags: List[str] = []
    flag_overflow = 0
    budget_violations = 0
    round_no = 0

    def partial_report() -> SimReport:
        return _report(rounds_done, max_bits, max_mux, insts, flags, flag_overflow)

    while True:
        round_no += 1
        if round_no > round_cap:
            raise RoundCapExceeded(
                f"round cap {round_cap} exceeded with {n - len(halted)} vertices unhalted",
                partial_report(),
            )
        acted = False
        nxt: Dict[int, List[Tuple[int, Message]]] = defaultdict(list)
        for v in to_step:
            inst = insts[v]
            if inst.wake is not None and inst.wake <= round_no:
                inst.wake = None
            out = inst.step(round_no, inboxes.pop(v, None) or [])
            if out:
                # the destinations that are not neighbors, a set kept for this step
                # only; on a violation, the destinations before the first of them
                # are still accounted, in outbox order, before the error is raised
                stray = out.keys() - adj[v]
                items = takewhile(lambda kv: kv[0] not in stray, out.items()) if stray else out.items()
                # a batch is accounted once for the run of destinations sharing it:
                # k messages, their inbox entry (k == 1) or entries, and bit sum b;
                # dsts collects the run's destinations for one on_send call
                prev = _NO_BATCH
                dsts = None
                for dst, msgs in items:
                    if msgs is not prev:
                        if dsts:
                            on_send(round_no, v, dsts, b)
                        prev = msgs
                        if not isinstance(msgs, list):
                            msgs = [msgs]
                        k = len(msgs)
                        if k == 1:
                            m = msgs[0]
                            entry = (v, m)
                            b = m.bits
                            if b > max_bits:
                                max_bits = b
                            if not max_mux:
                                max_mux = 1
                        elif k:
                            if short:
                                raise SimError(
                                    f"short mode allows one message per edge per round; "
                                    f"vertex {v} sent {k} to {dst} in round {round_no}",
                                    partial_report(),
                                )
                            entries = [(v, m) for m in msgs]
                            b = 0
                            for m in msgs:
                                b += m.bits
                                if m.bits > max_bits:
                                    max_bits = m.bits
                            if k > max_mux:
                                max_mux = k
                        dsts = [] if on_send is not None else None
                    if not k:
                        continue
                    acted = True
                    if k > 1:
                        nxt[dst].extend(entries)
                    else:
                        if short and b > budget:
                            budget_violations += 1
                            if len(flags) < MAX_FLAGS:
                                flags.append(
                                    f"round {round_no}: {b}b message {v}->{dst} exceeds "
                                    f"budget {budget}b"
                                )
                            else:
                                flag_overflow += 1
                        nxt[dst].append(entry)
                    if dsts is not None:
                        dsts.append(dst)
                if dsts:
                    on_send(round_no, v, dsts, b)
                if stray:
                    dst = next(d for d in out if d in stray)
                    raise LocalityViolation(
                        f"vertex {v} sent to non-neighbor {dst} in round {round_no}",
                        partial_report(),
                    )
            if inst.output is not None:
                halted.add(v)
            if inst.wake is not None:
                heappush(wakeups, (inst.wake, v))
        if acted:
            rounds_done = round_no
        inboxes = nxt
        ready = set(nxt)
        while wakeups and wakeups[0][0] <= round_no + 1:
            v = heappop(wakeups)[1]
            wake = insts[v].wake
            if wake is not None and wake <= round_no + 1:
                ready.add(v)
        to_step = sorted(ready.difference(halted))
        if not to_step:
            if len(halted) == n:
                break
            # idle rounds are fine while some vertex has a future wake-up
            while wakeups and (wakeups[0][1] in halted or insts[wakeups[0][1]].wake is None):
                heappop(wakeups)
            if wakeups:
                continue
            raise DeadlockError(
                f"no messages in flight after round {round_no} but "
                f"{n - len(halted)} vertices unhalted",
                partial_report(),
            )

    report = _report(rounds_done, max_bits, max_mux, insts, flags, flag_overflow)
    report.extra["budget_bits"] = budget
    report.extra["budget_violations"] = budget_violations
    return report


def _report(rounds, max_bits, max_mux, insts, flags, flag_overflow) -> SimReport:
    rep = SimReport(
        rounds=rounds,
        max_msg_bits=max_bits,
        msgs_per_edge_round=max_mux,
        outputs={v: inst.output for v, inst in insts.items()},
        flags=list(flags),
        telemetry={v: inst.telemetry for v, inst in insts.items() if inst.telemetry},
    )
    if flag_overflow:
        rep.flags.append(f"... {flag_overflow} further budget flags suppressed")
    return rep


def run_on_line_graph(
    g: Graph,
    program: Callable[[Context], VertexProgram],
    params: Optional[Dict[str, Any]] = None,
    lgm: Optional[LineGraphMap] = None,
) -> SimReport:
    """Simulate a line-graph vertex program on the host graph (edge e=(u,w),
    Id(u)<Id(w), is simulated by u).

    The logical execution runs on L(g); host telemetry is derived by routing
    every logical message through the shared endpoint: one logical round costs
    two host rounds (owner -> shared endpoint, shared endpoint -> owner), plus
    2 setup rounds in which endpoints learn incident edge Ids. Host rounds =
    2T + 2, or 0 on a graph with no edge, which sets up and sends nothing.
    Host messages carry the logical payload plus a destination-edge
    Id field; per-host-edge multiplexing is counted and reported.

    The owner of line-graph vertex e = (su, sw), su < sw, is su. Adjacent
    edges share exactly one endpoint, and a hop whose owner is that shared
    endpoint stays on its host and costs no host message. So a message from e
    to f = (du, dw) loads host edge su -> sw in hop 1 exactly when f meets e
    at sw, and host edge dw -> du in hop 2 exactly when f meets e at dw, that
    is, when dw is su or sw. Each directed host edge thus carries the hop-1
    load of one sender and the hop-2 load of one receiver, and a fold counts
    them per line-graph vertex: for a batch from e to dsts, hop 1 adds
    |dsts & inc[sw]| to e, and hop 2 adds 1 to each f in dsts & hi[su] and
    dsts & hi[sw], where inc[s] holds the edges at host vertex s and hi[s]
    those whose larger endpoint is s. Only these two sets per host vertex
    are kept, nothing per line-graph edge.

    Each logical batch is folded into host load as it is sent (`on_send`).
    Round r loads only host rounds 2r + 1 and 2r + 2, and `run` never goes
    back a round, so r's counts are final once a later round sends: only the
    current round's counts are kept.
    """
    if lgm is None:
        lgm = build_line_graph(g)
    edge_of = lgm.edge_of
    inc: Dict[int, set] = {s: set() for s in g.vertices}
    hi: Dict[int, set] = {s: set() for s in g.vertices}
    for e, (su, sw) in edge_of.items():
        inc[su].add(e)
        inc[sw].add(e)
        hi[sw].add(e)
    # the current round r's load, keyed by line-graph vertex: hop 1 (host round
    # 2r + 1) by the sender, hop 2 (host round 2r + 2) by the receiver
    hop1: Dict[int, int] = {}
    hop2: Dict[int, int] = {}
    cur = mux = logical_max_bits = 0  # cur stays 0 until the first send

    def heaviest() -> int:
        return max(max(hop1.values(), default=0), max(hop2.values(), default=0))

    def fold(rnd, e, dsts, bits):
        nonlocal cur, mux, logical_max_bits
        if rnd != cur:
            mux = max(mux, heaviest())
            hop1.clear()
            hop2.clear()
            cur = rnd
        if bits > logical_max_bits:
            logical_max_bits = bits
        su, sw = edge_of[e]
        k = len(inc[sw].intersection(dsts))
        if k:
            hop1[e] = hop1.get(e, 0) + k
        for f in hi[su].intersection(dsts):
            hop2[f] = hop2.get(f, 0) + 1
        for f in hi[sw].intersection(dsts):
            hop2[f] = hop2.get(f, 0) + 1

    logical = run(lgm.lg, program, msg_mode="wide", params=params, on_send=fold)
    mux = max(mux, heaviest())
    addr_bits = ceil_log2(knowledge(lgm.lg).N)
    host_max_bits = logical_max_bits + addr_bits if cur else 0
    # setup round: each vertex tells each neighbor all its incident edge Ids
    setup_mux = g.delta  # the exact max degree: 0, with no setup message, on no edge
    setup_bits = 2 * ceil_log2(knowledge(g).N) if g.m else 0
    report = SimReport(
        rounds=2 * logical.rounds + 2 if g.m else 0,
        max_msg_bits=max(host_max_bits, setup_bits),
        msgs_per_edge_round=max(mux, setup_mux),
        outputs=logical.outputs,
        flags=list(logical.flags) + [EDGE_IDS_FLAG],
        telemetry=logical.telemetry,
        extra=dict(logical.extra),
    )
    report.extra["logical_rounds"] = logical.rounds
    report.extra["host_mux_recolor"] = mux
    return report
