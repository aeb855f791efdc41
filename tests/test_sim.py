import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnicolor import sim
from bnicolor.generators import complete_graph, cycle_graph, path_graph
from bnicolor.graph import build_line_graph, graph_from_edges
from bnicolor.numbers import ceil_log2
from bnicolor.sim import (
    DEFAULT_ROUND_CAP,
    MAX_FLAGS,
    Context,
    DeadlockError,
    LocalityViolation,
    Message,
    RoundCapExceeded,
    SimError,
    VertexProgram,
    _report,
    run,
    run_on_line_graph,
)

from conftest import recording, small_graphs


class Silent(VertexProgram):
    def step(self, round_no, inbox):
        self.output = self.ctx.vid
        return {}


class ChattyFor(VertexProgram):
    """Broadcasts for T rounds, then halts; duration is exactly T."""

    def step(self, round_no, inbox):
        T = self.ctx.params["T"]
        if not self.ctx.neighbors:
            self.output = round_no
            return {}
        if round_no > T:
            self.output = round_no
            return {}
        if round_no == T:
            self.output = round_no
        return {u: Message((0, 2)) for u in self.ctx.neighbors}


class Sleeper(VertexProgram):
    def step(self, round_no, inbox):
        if round_no == 1:
            self.wake = self.ctx.params["at"]
            return {}
        self.output = round_no
        return {u: Message((0, 2)) for u in self.ctx.neighbors}


class Rude(VertexProgram):
    def step(self, round_no, inbox):
        return {self.ctx.vid % self.ctx.n + 1: Message((0, 2))}


class Stuck(VertexProgram):
    def step(self, round_no, inbox):
        return {}


class Fat(VertexProgram):
    def step(self, round_no, inbox):
        self.output = 1
        return {u: Message((0, 2**40)) for u in self.ctx.neighbors}


class TestMessage:
    def test_bit_accounting(self):
        assert Message((0, 2)).bits == 1
        assert Message((3, 8), (0, 3)).bits == 3 + 2
        assert Message((5, 1024)).bits == 10

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            Message((2, 2))
        with pytest.raises(ValueError):
            Message((-1, 4))


class TestEngine:
    def test_silent_program_zero_rounds(self):
        report = run(cycle_graph(5), Silent)
        assert report.rounds == 0
        assert report.outputs == {v: v for v in range(1, 6)}

    @pytest.mark.parametrize("T", [1, 3, 7])
    def test_rounds_counts_last_send(self, T):
        report = run(cycle_graph(4), ChattyFor, params={"T": T})
        assert report.rounds == T

    def test_wake_skips_idle_rounds(self):
        report = run(path_graph(3), Sleeper, params={"at": 9})
        assert report.rounds == 9

    def test_locality_violation(self):
        with pytest.raises(LocalityViolation):
            run(path_graph(4), Rude)

    def test_deadlock_detected(self):
        with pytest.raises(DeadlockError):
            run(path_graph(2), Stuck)

    def test_short_mode_flags_oversized(self):
        report = run(path_graph(3), Fat, msg_mode="short")
        assert report.flags and "exceeds budget" in report.flags[0]
        # one violation per (sender, receiver) pair on the path 1-2-3
        assert report.extra["budget_violations"] == 4

    def test_wide_mode_never_flags_size(self):
        report = run(path_graph(3), Fat, msg_mode="wide")
        assert not report.flags
        assert report.max_msg_bits == 40

    def test_short_mode_rejects_multiplexing(self):
        class Multi(VertexProgram):
            def step(self, round_no, inbox):
                self.output = 1
                return {u: [Message((0, 2)), Message((0, 2))] for u in self.ctx.neighbors}

        with pytest.raises(SimError):
            run(path_graph(2), Multi, msg_mode="short")

    def test_round_cap(self):
        with pytest.raises(RoundCapExceeded) as exc:
            run(cycle_graph(3), ChattyFor, params={"T": 100}, round_cap=10)
        assert exc.value.partial is not None

    @given(small_graphs(max_n=8), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_outputs_total_and_deterministic(self, g, T):
        r1 = run(g, ChattyFor, params={"T": T})
        r2 = run(g, ChattyFor, params={"T": T})
        assert set(r1.outputs) == set(g.vertices)
        assert r1.outputs == r2.outputs and r1.rounds == r2.rounds


class EchoBall(VertexProgram):
    """After r rounds of flooding, a vertex knows exactly its radius-r ball."""

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.known = {ctx.vid}

    def step(self, round_no, inbox):
        for _, msg in inbox:
            self.known.add(msg.fields[0][0] + 1)
        if not self.ctx.neighbors or round_no > self.ctx.params["r"]:
            self.output = sorted(self.known)
            return {}
        return {
            u: [Message((w - 1, self.ctx.n)) for w in sorted(self.known)]
            for u in self.ctx.neighbors
        }


class TestLocality:
    @given(small_graphs(min_n=2, max_n=8), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_information_confined_to_ball(self, g, r):
        from bnicolor.graph import ball

        report = run(g, EchoBall, params={"r": r})
        for v in g.vertices:
            assert report.outputs[v] == sorted(ball(g, v, r).vertices)


class TestLineGraphHost:
    @pytest.mark.parametrize("T", [0, 1, 5, 20])
    def test_host_rounds_bound(self, T):
        g = complete_graph(5)
        if T == 0:
            report = run_on_line_graph(g, Silent)
        else:
            report = run_on_line_graph(g, ChattyFor, params={"T": T})
        assert report.rounds == 2 * T + 2
        assert report.rounds <= 2 * T + 2

    def test_outputs_keyed_by_edge_rank(self):
        g = path_graph(3)
        report = run_on_line_graph(g, Silent)
        assert set(report.outputs) == {1, 2}

    def test_setup_flag_recorded(self):
        report = run_on_line_graph(path_graph(3), Silent)
        assert any("setup" in f for f in report.flags)


# -- differential tests against the pre-rewrite delivery loop ------------------


def _frozen_run(
    g,
    program,
    msg_mode="wide",
    round_cap=DEFAULT_ROUND_CAP,
    params=None,
    budget_factor=1,
    on_send=None,
):
    """`sim.run` as it was before the delivery loop was rewritten, kept as an
    oracle: every vertex scanned each round, every batch summed, halted
    vertices' inboxes kept, and `on_send` called with one destination each
    time."""
    if msg_mode not in ("short", "wide"):
        raise ValueError(f"unknown msg_mode {msg_mode!r}")
    if round_cap <= 0:
        raise ValueError("round_cap must be positive")
    params = dict(params or {})
    budget = budget_factor * ceil_log2(max(g.id_bound, 2))
    insts = {}
    for v in g.vertices:
        insts[v] = program(Context(v, g.adj[v], g.id_bound, params))

    inboxes = {v: [] for v in g.vertices}
    halted = {}
    to_step = list(g.vertices)
    rounds_done = 0
    max_bits = 0
    max_mux = 0
    flags = []
    flag_overflow = 0
    budget_violations = 0
    round_no = 0

    def partial_report():
        return _report(rounds_done, max_bits, max_mux, insts, flags, flag_overflow)

    while True:
        round_no += 1
        if round_no > round_cap:
            raise RoundCapExceeded(
                f"round cap {round_cap} exceeded with {len(g.vertices) - len(halted)} "
                "vertices unhalted",
                partial_report(),
            )
        acted = False
        outgoing = {}
        for v in to_step:
            inbox = inboxes[v]
            inboxes[v] = []
            if insts[v].wake is not None and insts[v].wake <= round_no:
                insts[v].wake = None
            out = insts[v].step(round_no, inbox) or {}
            for dst, msgs in out.items():
                if not g.has_edge(v, dst):
                    raise LocalityViolation(
                        f"vertex {v} sent to non-neighbor {dst} in round {round_no}",
                        partial_report(),
                    )
                batch = msgs if isinstance(msgs, list) else [msgs]
                if not batch:
                    continue
                acted = True
                if msg_mode == "short" and len(batch) > 1:
                    raise SimError(
                        f"short mode allows one message per edge per round; "
                        f"vertex {v} sent {len(batch)} to {dst} in round {round_no}",
                        partial_report(),
                    )
                bits = sum(m.bits for m in batch)
                max_bits = max(max_bits, max(m.bits for m in batch))
                max_mux = max(max_mux, len(batch))
                if msg_mode == "short" and bits > budget:
                    budget_violations += 1
                    if len(flags) < MAX_FLAGS:
                        flags.append(
                            f"round {round_no}: {bits}b message {v}->{dst} exceeds "
                            f"budget {budget}b"
                        )
                    else:
                        flag_overflow += 1
                if on_send is not None:
                    on_send(round_no, v, [dst], bits)
                outgoing.setdefault(dst, []).extend((v, m) for m in batch)
            if insts[v].output is not None and v not in halted:
                halted[v] = round_no
        if acted:
            rounds_done = round_no
        for dst, arrivals in outgoing.items():
            inboxes[dst].extend(arrivals)
        to_step = sorted(
            v
            for v in g.vertices
            if v not in halted
            and (
                inboxes[v]
                or (insts[v].wake is not None and insts[v].wake <= round_no + 1)
            )
        )
        if not to_step:
            if len(halted) == len(g.vertices):
                break
            # idle rounds are fine while some vertex has a future wake-up
            if any(
                insts[v].wake is not None
                for v in g.vertices
                if v not in halted
            ):
                continue
            raise DeadlockError(
                f"no messages in flight after round {round_no} but "
                f"{len(g.vertices) - len(halted)} vertices unhalted",
                partial_report(),
            )

    report = _report(rounds_done, max_bits, max_mux, insts, flags, flag_overflow)
    report.extra["budget_bits"] = budget
    report.extra["budget_violations"] = budget_violations
    return report


DOMAINS = (1, 2, 3, 16, 2**9, 2**13)


class Scripted(VertexProgram):
    """Reproducible random behaviour: every choice is drawn from a generator
    keyed by the script, the vertex, the round and the inbox it was given.

    Each step is logged as (vertex, round, inbox). A step sends batches of 0 to
    `max_batch` messages, a single one bare or in a list, to a random subset
    of neighbors in random order, now and then also to a non-neighbor (itself,
    the Id past the bound N, or an Id in 1..N it is not adjacent to, which on
    a graph on 1..N is a vertex); it leaves `wake` as it is or sets it to None
    or a past, present or future round, and halts with probability `halt`. With `share` on, a destination
    may instead get the very batch object (a list, possibly empty or of
    several messages, or a bare Message) of an earlier destination.
    """

    def step(self, round_no, inbox):
        p = self.ctx.params
        seen = tuple((src, m.fields) for src, m in inbox)
        p["log"].append((self.ctx.vid, round_no, seen))
        rng = random.Random(repr((p["script"], self.ctx.vid, round_no, seen)))
        nbrs = list(self.ctx.neighbors)
        targets = rng.sample(nbrs, rng.randint(0, len(nbrs)))
        if rng.random() < p["rude"]:
            strangers = [self.ctx.vid, self.ctx.n + 1]
            far = [w for w in range(1, self.ctx.n + 1) if w != self.ctx.vid and w not in nbrs]
            if far:
                strangers.append(rng.choice(far))
            stranger = rng.choice(strangers)
            targets.insert(rng.randint(0, len(targets)), stranger)
        out = {}
        for dst in targets:
            if p.get("share") and out and rng.random() < 0.7:
                out[dst] = rng.choice(list(out.values()))
                continue
            domains = [rng.choice(DOMAINS) for _ in range(rng.randint(0, p["max_batch"]))]
            batch = [Message((rng.randrange(d), d)) for d in domains]
            out[dst] = batch[0] if len(batch) == 1 and rng.random() < 0.5 else batch
        choice = rng.randrange(5)
        if choice == 1:
            self.wake = None
        elif choice == 2:
            self.wake = round_no - rng.randint(0, 3)
        elif choice >= 3:
            self.wake = round_no + rng.randint(1, 4)
        if rng.random() < p["halt"]:
            self.output = [round_no, len(inbox)]
        return out


def _outcome(runner, g, script, program=Scripted, transcribe=False, **kwargs):
    """The step log, the report or the raised error with its partial report,
    and, with `transcribe`, the rows `on_send` saw, also up to an error."""
    log, transcripts = [], []
    if transcribe:
        runner = recording(runner, transcripts)
    try:
        rep = runner(g, program, params={**script, "log": log}, **kwargs)
    except SimError as exc:
        part = exc.partial
        return log, (type(exc), str(exc), part.to_json(), part.extra, part.flags), transcripts
    return log, ("ok", rep.to_json(), rep.extra, rep.flags, rep.telemetry), transcripts


SCRIPTS = st.fixed_dictionaries(
    {
        "script": st.integers(0, 2**32),
        "halt": st.sampled_from([0.0, 0.1, 0.4]),
        "rude": st.sampled_from([0.0, 0.0, 0.03]),
        "max_batch": st.integers(0, 3),
    }
)
RUN_OPTIONS = st.fixed_dictionaries(
    {
        "msg_mode": st.sampled_from(["short", "wide"]),
        "budget_factor": st.sampled_from([1, 2]),
        "transcribe": st.booleans(),
        "round_cap": st.sampled_from([6, 40]),
    }
)


class TestRunMatchesFrozenLoop:
    @given(small_graphs(max_n=8), SCRIPTS, RUN_OPTIONS)
    @settings(max_examples=300, deadline=None)
    def test_same_steps_reports_and_errors(self, g, script, options):
        assert _outcome(run, g, script, **options) == _outcome(_frozen_run, g, script, **options)

    def test_every_outcome_is_reached(self):
        """A fixed sweep reaches a finished run and each of the four errors,
        the locality error for each kind of stranger, and agrees with the
        oracle on every one."""
        g = cycle_graph(6)
        seen, strangers = set(), set()
        for k in range(120):
            script = {"script": k, "halt": (0.0, 0.1, 0.4)[k % 3], "rude": 0.03, "max_batch": k % 4}
            options = {"msg_mode": ("short", "wide")[k % 2], "round_cap": 25, "transcribe": True}
            new = _outcome(run, g, script, **options)
            assert new == _outcome(_frozen_run, g, script, **options)
            seen.add(new[1][0])
            if new[1][0] is LocalityViolation:
                v, dst = map(int, re.match(r"vertex (\d+) sent to non-neighbor (\d+)", new[1][1]).groups())
                strangers.add("self" if dst == v else "past N" if dst > g.n else "vertex")
        assert seen == {"ok", LocalityViolation, SimError, DeadlockError, RoundCapExceeded}
        assert strangers == {"self", "past N", "vertex"}


class SharedThenStray(VertexProgram):
    """Sends one batch object to every neighbor (a list of `k` messages, or
    the bare message); vertex 2 then addresses a non-neighbor, right after
    that shared run."""

    def step(self, round_no, inbox):
        p = self.ctx.params
        p["log"].append((self.ctx.vid, round_no, tuple((u, m.fields) for u, m in inbox)))
        msg = Message((self.ctx.vid % 16, 16))
        batch = msg if p["k"] == 0 else [msg] * p["k"]
        out = dict.fromkeys(self.ctx.neighbors, batch)
        if self.ctx.vid == 2 and round_no == 2:
            out[self.ctx.n + 1] = batch
        if round_no == 3:
            self.output = round_no
        return out


class TestSharedBatches:
    """Destinations sharing one batch object are accounted as if each had
    its own: same steps, reports, flags, transcripts and errors as the
    oracle, which reads every destination's batch separately."""

    @given(small_graphs(max_n=8), SCRIPTS.map(lambda s: {**s, "share": True}), RUN_OPTIONS)
    @settings(max_examples=300, deadline=None)
    def test_shared_batches_match_the_oracle(self, g, script, options):
        assert _outcome(run, g, script, **options) == _outcome(_frozen_run, g, script, **options)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("msg_mode", ["short", "wide"])
    @pytest.mark.parametrize("budget_factor", [1, 2])
    @pytest.mark.parametrize("transcribe", [False, True])
    def test_locality_violation_after_a_shared_run(self, k, msg_mode, budget_factor, transcribe):
        options = {
            "msg_mode": msg_mode,
            "budget_factor": budget_factor,
            "transcribe": transcribe,
        }
        script = {"k": k}
        new = _outcome(run, cycle_graph(5), script, program=SharedThenStray, **options)
        assert new == _outcome(_frozen_run, cycle_graph(5), script, program=SharedThenStray, **options)
        expected = SimError if msg_mode == "short" and k > 1 else LocalityViolation
        assert new[1][0] is expected
        if expected is LocalityViolation and msg_mode == "short" and budget_factor == 1:
            assert new[1][4] and "exceeds budget" in new[1][4][0]


class Gossip(VertexProgram):
    """Until round T, sends 1 to 3 messages of random widths to a random
    subset of neighbors each round; halts in round T."""

    def step(self, round_no, inbox):
        rng = random.Random(repr((self.ctx.params["script"], self.ctx.vid, round_no)))
        if round_no >= self.ctx.params["T"]:
            self.output = round_no
        else:
            self.wake = round_no + 1
        out = {}
        for dst in rng.sample(self.ctx.neighbors, rng.randint(0, len(self.ctx.neighbors))):
            d = rng.choice(DOMAINS)
            out[dst] = [Message((0, d)) for _ in range(rng.randint(1, 3))]
        return out


class Broadcast(VertexProgram):
    """Until round T, sends one shared batch of 1 to 3 messages to a random
    subset of neighbors each round, and now and then a second shared batch,
    one message longer, to a random part of that subset in its place;
    halts in round T."""

    def step(self, round_no, inbox):
        rng = random.Random(repr((self.ctx.params["script"], self.ctx.vid, round_no)))
        if round_no >= self.ctx.params["T"]:
            self.output = round_no
        else:
            self.wake = round_no + 1
        targets = rng.sample(self.ctx.neighbors, rng.randint(0, len(self.ctx.neighbors)))
        batch = [Message((0, rng.choice(DOMAINS))) for _ in range(rng.randint(1, 3))]
        out = dict.fromkeys(targets, batch)
        if targets and rng.random() < 0.5:
            second = batch + [Message((0, rng.choice(DOMAINS)))]
            out.update(dict.fromkeys(rng.sample(targets, rng.randint(1, len(targets))), second))
        return out


def _frozen_host_accounting(lgm, transcript):
    """run_on_line_graph's host load and host message width as they were
    computed before the rewrite: owner() closure, set intersection."""
    m = max(lgm.lg.id_bound, 2)
    addr_bits = ceil_log2(m)

    def owner(eid):
        return min(lgm.edge_of[eid])

    load = {}
    host_max_bits = 0
    for rnd, src_e, dst_e, bits in transcript:
        su, sw = lgm.edge_of[src_e]
        du, dw = lgm.edge_of[dst_e]
        shared = ({su, sw} & {du, dw}).pop()
        host_max_bits = max(host_max_bits, bits + addr_bits)
        r1, r2 = 2 * rnd + 1, 2 * rnd + 2
        if owner(src_e) != shared:
            key = (r1, owner(src_e), shared)
            load[key] = load.get(key, 0) + 1
        if owner(dst_e) != shared:
            key = (r2, shared, owner(dst_e))
            load[key] = load.get(key, 0) + 1
    return max(load.values(), default=0), host_max_bits


def _round_loads(lgm, transcript):
    """Each logical round's largest host load, by the oracle."""
    rounds = sorted({row[0] for row in transcript})
    return [_frozen_host_accounting(lgm, [row for row in transcript if row[0] == r])[0] for r in rounds]


HEAVIEST_FIRST = (complete_graph(4), 353, 3)  # round loads 2, 1, 1: a fold must keep flushed rounds
LAST_ONLY = (path_graph(3), 1, 3)  # only round 3 sends: a fold must count the final round


class TestHostAccountingMatchesFrozen:
    """`run_on_line_graph` folds host load per logical round as messages are
    sent; the oracle reads the rows of the same logical run afterwards."""

    @given(small_graphs(max_n=9), st.integers(0, 2**32), st.integers(1, 6))
    @example(graph_from_edges(5, []), 0, 3)
    @example(graph_from_edges(6, [(1, 2), (2, 3), (4, 5)]), 1, 4)
    @example(*HEAVIEST_FIRST)
    @example(*LAST_ONLY)
    @settings(max_examples=80, deadline=None)
    def test_mux_and_bits_equal_the_oracle(self, g, script, T):
        self.check(g, Gossip, script, T)

    @given(small_graphs(max_n=9), st.integers(0, 2**32), st.integers(1, 6))
    @example(*HEAVIEST_FIRST)
    @settings(max_examples=80, deadline=None)
    def test_shared_batches_equal_the_oracle(self, g, script, T):
        """Gossip gives every destination its own batch, so each fold sees
        one destination; here batch runs of several destinations are folded
        at once."""
        self.check(g, Broadcast, script, T)

    @staticmethod
    def check(g, program, script, T):
        transcripts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "run", recording(run, transcripts))
            report = run_on_line_graph(g, program, params={"script": script, "T": T})
        [transcript] = transcripts
        mux, host_max_bits = _frozen_host_accounting(build_line_graph(g), transcript)
        assert "transcript" not in report.extra
        assert report.extra["host_mux_recolor"] == mux
        setup_bits = 2 * ceil_log2(max(g.id_bound, 2)) if g.m else 0  # no edge: no setup
        assert report.max_msg_bits == max(host_max_bits, setup_bits)
        assert report.msgs_per_edge_round == max(mux, g.delta)

    @pytest.mark.parametrize(
        "example,loads", [(HEAVIEST_FIRST, [2, 1, 1]), (LAST_ONLY, [1])], ids=["heaviest-first", "last-only"]
    )
    def test_examples_have_their_shape(self, example, loads):
        g, script, T = example
        lgm = build_line_graph(g)
        transcripts = []
        recording(run, transcripts)(lgm.lg, Gossip, params={"script": script, "T": T})
        [transcript] = transcripts
        assert _round_loads(lgm, transcript) == loads
        assert transcript[0][0] == T - len(loads) + 1
