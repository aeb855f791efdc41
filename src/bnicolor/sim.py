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
reports the maximum count. The budget is budget_factor * ceil(log2(id bound))
bits. Each program's `Context` carries the run's `msg_mode` and that budget as
`budget_bits`, so a program splits its payloads by the same rule the run
accounts them with. A `Context` holds no seed: the programs are deterministic,
and the one random draw (`legal.draw_classes`) is made before a run and
handed in through `params`.

Several destinations of one outbox may share one batch object (a broadcast).
The run accounts such a batch once, for the run of consecutive destinations
holding it: its bits, the maximum width and multiplexing, and its inbox
entries are computed once and reused; the transcript row, the short-mode
budget flag and the locality rule stay per destination. The run never
mutates a batch, and a program must not mutate one after returning it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import takewhile
from typing import Any, Callable, Dict, List, Optional, Tuple

from .graph import Graph, LineGraphMap, build_line_graph
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
    n: int  # Id-space bound (= n for freshly built graphs)
    params: Dict[str, Any] = field(default_factory=dict)
    # set by `run`: its message mode and short-mode bit budget per message
    msg_mode: str = "wide"
    budget_bits: int = 0


class VertexProgram:
    """Base class: subclass and implement step(round_no, inbox) -> outbox.

    inbox is a list of (sender Id, Message); outbox maps neighbor Id to a
    Message (short mode) or a list of Messages (wide mode). Several neighbors
    may map to the same batch object: the run accounts it once and never
    mutates it, and the program must not mutate it after returning it. Set
    self.output to halt.
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
    record_transcript: bool = False,
) -> SimReport:
    """Execute `program` on every vertex of g until all halt.

    Raises RoundCapExceeded / DeadlockError with a partial report attached,
    and LocalityViolation if a program addresses a non-neighbor.
    """
    if msg_mode not in ("short", "wide"):
        raise ValueError(f"unknown msg_mode {msg_mode!r}")
    if round_cap <= 0:
        raise ValueError("round_cap must be positive")
    short = msg_mode == "short"
    params = dict(params or {})
    budget = budget_factor * ceil_log2(max(g.id_bound, 2))
    insts: Dict[int, VertexProgram] = {}
    for v in g.vertices:
        ctx = Context(v, g.adj[v], g.id_bound, params, msg_mode, budget)
        insts[v] = program(ctx)

    adjset = g._adjset
    n = g.n
    inboxes: Dict[int, List[Tuple[int, Message]]] = {}
    halted: Dict[int, int] = {}
    wakeups: List[Tuple[int, int]] = []  # (wake round, v); stale entries are skipped
    to_step = list(g.vertices)
    rounds_done = 0
    max_bits = 0
    max_mux = 0
    flags: List[str] = []
    flag_overflow = 0
    budget_violations = 0
    transcript: List[Tuple[int, int, int, int]] = []
    round_no = 0

    def partial_report() -> SimReport:
        return _report(rounds_done, max_bits, max_mux, insts, halted, flags, flag_overflow)

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
                nbrs = adjset[v]
                local = nbrs.issuperset(out)
                # on a violation, the destinations before the first non-neighbor
                # are still accounted, in outbox order, before the error is raised
                items = out.items() if local else takewhile(lambda kv: kv[0] in nbrs, out.items())
                # a batch is accounted once for the run of destinations sharing it:
                # k messages, their inbox entry (k == 1) or entries, and bit sum b
                prev = _NO_BATCH
                for dst, msgs in items:
                    if msgs is not prev:
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
                    if not k:
                        continue
                    acted = True
                    if k > 1:
                        nxt[dst].extend(entries)
                        if record_transcript:
                            transcript.append((round_no, v, dst, b))
                        continue
                    if short and b > budget:
                        budget_violations += 1
                        if len(flags) < MAX_FLAGS:
                            flags.append(
                                f"round {round_no}: {b}b message {v}->{dst} exceeds "
                                f"budget {budget}b"
                            )
                        else:
                            flag_overflow += 1
                    if record_transcript:
                        transcript.append((round_no, v, dst, b))
                    nxt[dst].append(entry)
                if not local:
                    dst = next(d for d in out if d not in nbrs)
                    raise LocalityViolation(
                        f"vertex {v} sent to non-neighbor {dst} in round {round_no}",
                        partial_report(),
                    )
            if inst.output is not None:
                halted[v] = round_no
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

    report = _report(rounds_done, max_bits, max_mux, insts, halted, flags, flag_overflow)
    if record_transcript:
        report.extra["transcript"] = transcript
    report.extra["budget_bits"] = budget
    report.extra["budget_violations"] = budget_violations
    return report


def _report(rounds, max_bits, max_mux, insts, halted, flags, flag_overflow) -> SimReport:
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
    2T + 2. Host messages carry the logical payload plus a destination-edge
    Id field; per-host-edge multiplexing is counted and reported.

    The owner of line-graph vertex e is `lgm.edge_of[e][0]`, the smaller
    endpoint. Adjacent edges (su, sw) and (du, dw) share exactly one endpoint:
    su if su is one of du, dw, else sw. A hop whose owner is the shared
    endpoint stays on that host and costs no host message.
    """
    if lgm is None:
        lgm = build_line_graph(g)
    logical = run(
        lgm.lg,
        program,
        msg_mode="wide",
        params=params,
        record_transcript=True,
    )
    transcript = logical.extra.pop("transcript")
    addr_bits = ceil_log2(max(lgm.lg.id_bound, 2))
    edge_of = lgm.edge_of
    # host load: (host round, directed host edge) -> message count
    load: Dict[Tuple[int, int, int], int] = {}
    logical_max_bits = 0
    for rnd, src_e, dst_e, bits in transcript:
        su, sw = edge_of[src_e]
        du, dw = edge_of[dst_e]
        shared = su if su == du or su == dw else sw
        if bits > logical_max_bits:
            logical_max_bits = bits
        # after the 2 setup rounds: owner -> shared in 2rnd+1, shared -> owner in 2rnd+2
        if su != shared:
            key = (2 * rnd + 1, su, shared)
            load[key] = load.get(key, 0) + 1
        if du != shared:
            key = (2 * rnd + 2, shared, du)
            load[key] = load.get(key, 0) + 1
    host_max_bits = logical_max_bits + addr_bits if transcript else 0
    host_rounds = 2 * logical.rounds + 2
    mux = max(load.values(), default=0)
    # setup round: each vertex tells each neighbor all its incident edge Ids
    setup_mux = g.delta
    report = SimReport(
        rounds=host_rounds,
        max_msg_bits=max(host_max_bits, 2 * ceil_log2(max(g.id_bound, 2))),
        msgs_per_edge_round=max(mux, setup_mux),
        outputs=logical.outputs,
        flags=list(logical.flags) + ["setup: edge Ids assigned by global dense rank"],
        telemetry=logical.telemetry,
        extra=dict(logical.extra),
    )
    report.extra["logical_rounds"] = logical.rounds
    report.extra["host_mux_recolor"] = mux
    return report
