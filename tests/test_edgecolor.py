import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor import edgecolor
from bnicolor.edgecolor import (
    K_RDY,
    N_KINDS,
    EdgeColorProgram,
    _merge_edge_outputs,
    edge_color_2delta_minus_1,
    edge_color_direct,
    edge_color_via_line_graph,
)
from bnicolor.experiment import ExperimentSpec, run_experiment
from bnicolor.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnd,
)
from bnicolor.graph import edge_ids, edge_knowledge, graph_from_edges
from bnicolor.legal import LABELS, LevelPlan, RecursionPlan, bottom_plan
from bnicolor.params import LegalParams, ParamError, make_preset
from bnicolor.sim import Context, Message, SimError, run
from bnicolor.verify import check_edge_coloring

from conftest import canonical, connected_graphs, recording, small_graphs

SRC = Path(__file__).resolve().parents[1] / "src"
# recurses from max degree 4 on: [6, 3] at degree 4, [14, 6, 3] at degree 8
SMALL_EDGE = LegalParams(1, 5, 4, 1)


class TestDegreeAtMostOne:
    """edge_2delta sizes its bottom at edge_degree, 0 on a matching, and the
    direct route at `edge_knowledge`'s degree, at least 1: one color against
    a vartheta of 2."""

    @pytest.mark.parametrize(
        "edges,n,rounds", [([(1, 2), (3, 4), (5, 6)], 6, 2), ([], 3, 0)], ids=["matching", "edgeless"]
    )
    def test_pinned(self, edges, n, rounds):
        g = graph_from_edges(n, edges)
        col, report = edge_color_2delta_minus_1(g)
        assert (col.palette, report.rounds, report.extra["level_lambdas"]) == (1, rounds, [0])
        params = make_preset("thm45", 2, edge_knowledge(g).delta)
        for msg_mode in ("wide", "short"):
            col, report = edge_color_direct(g, params, msg_mode=msg_mode)
            assert (report.extra["vartheta"], report.rounds) == (2, rounds)
            assert report.extra["level_lambdas"] == [1]
            assert set(col.colors.values()) <= {1}


class TestBottomOnly:
    @pytest.mark.parametrize(
        "maker,colors,palette",
        [
            (lambda: complete_bipartite(1, 5), 5, 9),
            (lambda: cycle_graph(7), 3, 3),
            (lambda: complete_graph(5), 7, 7),
        ],
    )
    def test_frozen_oracles(self, maker, colors, palette):
        g = maker()
        col, report = edge_color_2delta_minus_1(g)
        assert check_edge_coloring(g, col).legal
        assert col.colors_used() == colors
        assert col.palette == palette
        assert max(col.colors.values()) <= 2 * g.delta - 1

    def test_petersen(self, petersen):
        col, _ = edge_color_2delta_minus_1(petersen)
        assert check_edge_coloring(petersen, col).legal
        assert col.colors_used() == 4
        assert max(col.colors.values()) <= 5

    def test_empty_graph(self):
        col, report = edge_color_2delta_minus_1(path_graph(1))
        assert col.colors == {} and report.rounds == 0

    def test_short_payload_over_64_chunks(self):
        """At the center of a 300-leaf star the used-color bitmap of 599 bits
        is 75 one-byte chunks in short mode; the chunk index widens for it."""
        g = complete_bipartite(1, 300)
        hat = 2 * (g.delta - 1)
        params = {"plan": RecursionPlan((), bottom_plan(g.m, hat)), "rank": edge_ids(g)}
        report = run(g, EdgeColorProgram, msg_mode="short", params=params)
        col = _merge_edge_outputs(g, report, hat + 1)
        assert check_edge_coloring(g, col).legal and col.colors_used() == 300

    def test_endpoint_histories_compared(self, monkeypatch):
        """Both endpoints must record the same final (round, bottom color,
        color), not only output the same color."""
        real = edgecolor.run

        def skewed(*args, **kw):
            report = real(*args, **kw)
            report.telemetry[1]["edges"][2]["final"][0] = -1
            return report

        monkeypatch.setattr(edgecolor, "run", skewed)
        with pytest.raises(SimError, match=r"final history differs on \(1,2\)"):
            edge_color_2delta_minus_1(path_graph(3))

    @given(small_graphs(max_n=9))
    @settings(max_examples=20, deadline=None)
    def test_legal_within_2delta_minus_1(self, g):
        col, _ = edge_color_2delta_minus_1(g)
        assert check_edge_coloring(g, col).legal
        if g.m:
            assert max(col.colors.values()) <= 2 * g.delta - 1


class TestEdgeDirect:
    def test_star_worked_instance(self):
        # Lambda0 = 2*(33-1) = 64 with (b=2, p=9, lam=8) recurses [64,23,9,5]
        g = complete_bipartite(1, 33)
        params = LegalParams(2, 9, 8, 2)
        col, report = edge_color_direct(g, params, msg_mode="wide")
        assert check_edge_coloring(g, col).legal
        assert col.palette == 4374
        assert report.extra["vartheta"] == 4374
        assert report.extra["level_lambdas"] == [64, 23, 9, 5]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_graphs_legal(self, seed):
        g = random_gnd(30, 8, seed=seed)
        params = LegalParams(1, 9, 16, 2)
        col, report = edge_color_direct(g, params, msg_mode="short")
        assert check_edge_coloring(g, col).legal
        assert max(col.colors.values()) <= col.palette

    def test_paced_mode_legal(self):
        g = random_gnd(24, 8, seed=3)
        params = LegalParams(1, 9, 16, 2)
        col, report = edge_color_direct(g, params, msg_mode="short", paced=True)
        assert check_edge_coloring(g, col).legal

    def test_budget_factor_silences_flags(self):
        g = complete_bipartite(1, 32)
        params = LegalParams(1, 9, 36, 2)
        _, noisy = edge_color_direct(g, params, msg_mode="short", budget_factor=1)
        _, quiet = edge_color_direct(g, params, msg_mode="short", budget_factor=4)
        assert quiet.extra["budget_violations"] <= noisy.extra["budget_violations"]
        assert quiet.extra["budget_violations"] == 0

    def test_deterministic(self):
        g = random_gnd(20, 6, seed=7)
        params = LegalParams(1, 9, 16, 2)
        a, _ = edge_color_direct(g, params)
        b_, _ = edge_color_direct(g, params)
        assert a == b_

    @pytest.mark.parametrize("mode", ["wide", "short"])
    def test_isolated_vertex(self, mode):
        # K5 recurses under SMALL_EDGE; vertex 6 has no edge and halts at once
        g = graph_from_edges(6, [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
        col, report = edge_color_direct(g, SMALL_EDGE, msg_mode=mode)
        assert check_edge_coloring(g, col).legal
        assert len(report.extra["level_lambdas"]) > 1
        assert report.telemetry[6]["edges"] == {}
        _endpoints_agree(g, report)


class TestEdgeViaLineGraph:
    def test_matches_host_bound(self):
        g = random_gnd(20, 6, seed=1)
        params = LegalParams(1, 9, 16, 2)
        col, report = edge_color_via_line_graph(g, params)
        assert check_edge_coloring(g, col).legal
        assert report.rounds == 2 * report.extra["logical_rounds"] + 2

    def test_palette_within_vartheta(self):
        g = random_gnd(24, 6, seed=2)
        params = LegalParams(1, 9, 16, 2)
        col, report = edge_color_via_line_graph(g, params)
        assert max(col.colors.values()) <= report.extra["vartheta"]

    @pytest.mark.parametrize("n", [1, 3])
    def test_edgeless_graph_costs_nothing(self, n):
        """No edge: no setup and no logical round, so 0 rounds and 0 bits, as
        the direct and 2*delta-1 routes report."""
        g = graph_from_edges(n, [])
        for _, report in (
            edge_color_via_line_graph(g, SMALL_EDGE),
            edge_color_direct(g, SMALL_EDGE),
            edge_color_2delta_minus_1(g),
        ):
            assert (report.rounds, report.max_msg_bits, report.msgs_per_edge_round) == (0, 0, 0)

    @pytest.mark.parametrize("preset", ["thm45", "thm48_3", "improved_s42"])
    def test_small_bipartite_inputs_are_colored(self, preset):
        """Sized and planned at the edge Knowledge, the route colors every
        K_{a,b} with a <= 3; planned at Delta(L) < 2(Delta - 1) it refused some
        (K_{1,13} under thm45: b*p = 18 exceeds Lambda = 12)."""
        for a, b in product((1, 2, 3), range(1, 41)):
            spec = ExperimentSpec("bipartite", {"a": a, "b": b}, "edge_line", preset, {"c": 2})
            report = run_experiment(spec)
            assert report["verification"]["legal"], (a, b)

    @given(
        st.sampled_from(["thm45", "thm48_3", "improved_s42"]),
        st.integers(1, 3),
        st.integers(1, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_vartheta_as_direct(self, preset, a, b):
        """Both edge routes run one plan size, so they report one vartheta."""
        line, direct = (
            run_experiment(ExperimentSpec("bipartite", {"a": a, "b": b}, alg, preset, {"c": 2}))
            for alg in ("edge_line", "edge_direct")
        )
        assert line["vartheta"] == direct["vartheta"]

    def test_unknown_phi_mode(self):
        # the route builds its plan with legal_color's checks, phi_mode included;
        # the edge-label level kind is no phi_mode
        for phi_mode in ("warp", LABELS):
            with pytest.raises(ParamError, match=f"unknown phi_mode '{phi_mode}'"):
                edge_color_via_line_graph(random_gnd(12, 4, seed=1), SMALL_EDGE, phi_mode=phi_mode)


def _endpoints_agree(g, report):
    for u, w in g.edges():
        assert report.telemetry[u]["edges"][w] == report.telemetry[w]["edges"][u]


class TestDifferential:
    @given(connected_graphs(max_n=9), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_direct_modes(self, g, isolated):
        g = graph_from_edges(g.n + isolated, g.edges())
        for paced in (False, True):
            colors = {}
            for mode in ("wide", "short"):
                col, report = edge_color_direct(g, SMALL_EDGE, msg_mode=mode, paced=paced)
                assert check_edge_coloring(g, col).legal
                assert max(col.colors.values(), default=0) <= report.extra["vartheta"]
                _endpoints_agree(g, report)
                colors[mode] = col.colors
            # the message modes differ in timing only
            assert colors["wide"] == colors["short"]

    @given(small_graphs(max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_2delta_minus_1(self, g):
        col, report = edge_color_2delta_minus_1(g)
        assert check_edge_coloring(g, col).legal
        assert max(col.colors.values(), default=0) <= col.palette
        if g.m:
            assert col.palette == 2 * g.delta - 1
            _endpoints_agree(g, report)


def _rescanned_groups(prog):
    """(level, psi prefix) -> (sorted members, undecided count), rebuilt from
    every slot's psi history; the root is there also with no edge."""
    groups = {(0, ()): ([], 0)}
    for u in sorted(prog.ctx.neighbors):
        hist = prog.slots[u].hist
        for lvl in range(len(hist) + 1):
            key = (lvl, tuple(hist[:lvl]))
            members, undecided = groups.get(key, ([], 0))
            groups[key] = (members + [u], undecided + (len(hist) == lvl))
    return groups


def _indexed_groups(prog):
    """(level, psi prefix) -> (sorted members, undecided count), walked from
    the program's group tree."""
    index, todo = {}, [((), prog.root)]
    while todo:
        prefix, g = todo.pop()
        index[(len(prefix), prefix)] = (sorted(g.members), g.undecided)
        todo += [(prefix + (psi,), child) for psi, child in g.children.items()]
    return index


def _group_of(prog, hist):
    """The group the tree files under the psi history hist."""
    g = prog.root
    for psi in hist:
        g = g.children[psi]
    return g


def _check_tallies(prog):
    for s in prog.slots.values():
        assert _group_of(prog, s.hist) is s.grp
        members = [prog.slots[w] for w in s.grp.members]
        at_level = len(s.hist) < len(prog.levels)
        if at_level and s.grp.ready == len(members):
            lvl = len(s.hist)
            smaller = [w for w in members if w.phi < s.phi]
            assert s.wait == sum(len(w.hist) == lvl for w in smaller)
            assert s.psi_counts == [
                sum(len(w.hist) > lvl and w.hist[lvl] == k for w in smaller)
                for k in range(1, len(s.psi_counts) + 1)
            ]
        if not at_level and s.grp.ready == len(members):
            key = prog._bot_key(s.nbr)
            assert s.wait == sum(
                prog._bot_key(w.nbr) < key and w.color is None for w in members
            )


class TestGroupIndex:
    @pytest.mark.parametrize(
        "run_it",
        [
            lambda: edge_color_direct(random_gnd(16, 8, seed=1), SMALL_EDGE, msg_mode="short"),
            lambda: edge_color_direct(complete_graph(7), SMALL_EDGE, msg_mode="wide", paced=True),
            lambda: edge_color_2delta_minus_1(random_gnd(12, 5, seed=2)),
            lambda: edge_color_direct(random_gnd(60, 12, seed=3), SMALL_EDGE, msg_mode="wide"),
        ],
        ids=["short", "wide-paced", "2delta", "bottom-wait"],
    )
    def test_index_matches_rescan_after_every_step(self, monkeypatch, run_it):
        step = EdgeColorProgram.step
        steps = []

        def checked_step(self, round_no, inbox):
            out = step(self, round_no, inbox)
            assert _indexed_groups(self) == _rescanned_groups(self)
            _check_tallies(self)
            steps.append(round_no)
            return out

        monkeypatch.setattr(EdgeColorProgram, "step", checked_step)
        col, _ = run_it()
        assert steps and col.colors

    def test_a_vertex_with_no_edge_keeps_an_empty_root(self):
        params = {"plan": RecursionPlan((), bottom_plan(1, 0)), "rank": {}}
        prog = EdgeColorProgram(Context(1, (), 1, params))
        assert _indexed_groups(prog) == _rescanned_groups(prog) == {(0, ()): ([], 0)}


class TestPsiCountDomain:
    def test_a_count_at_the_domain_raises(self):
        """Planned, Lambda_0 is 2(Delta - 1), so a psi count (at most Delta - 1)
        stays below the count domain Lambda_0 + 2. A hand-built level with
        Lambda_0 = 1 and one class under the star K_{1,6} gives the domain 3,
        while the center's edges count 0..5 smaller edges in class 1: the
        count 3 is refused, not clamped to 2."""
        g = complete_bipartite(1, 6)
        level = LevelPlan(1, 1, 36, kind=LABELS, p_prime=6)
        params = {"plan": RecursionPlan((level,), bottom_plan(6, 1)), "rank": edge_ids(g)}
        with pytest.raises(ValueError, match="field value 3 outside domain 3"):
            run(g, EdgeColorProgram, params=params)


TAMPERED = """
import copy
import sys

from bnicolor.edgecolor import (
    K_RDY, EdgeColorProgram, _check_endpoint_consistency, _merge_edge_outputs,
    edge_color_direct,
)
from bnicolor.generators import random_gnd
from bnicolor.legal import RecursionPlan, bottom_plan
from bnicolor.params import LegalParams
from bnicolor.sim import Context, SimError

if __debug__:
    sys.exit("run with python -O")


def raises(fn, *args):
    try:
        fn(*args)
    except SimError:
        return True
    return False


g = random_gnd(12, 5, seed=1)
col, report = edge_color_direct(g, LegalParams(1, 5, 4, 1), msg_mode="wide")
u, w = g.edges()[0]
clean = copy.deepcopy(report.telemetry)
for key in ("phi", "psi", "final"):
    report.telemetry = copy.deepcopy(clean)
    tele = report.telemetry[u]["edges"][w]
    if key == "final":
        tele[key][1] += 1
    else:
        tele[key][0][1] += 1
    print(key, raises(_check_endpoint_consistency, g, report))
report.outputs[u][w] += 1
print("outputs", raises(_merge_edge_outputs, g, report, col.palette))
params = {"plan": RecursionPlan((), bottom_plan(1, 0)), "rank": {(1, 2): 1}}
prog = EdgeColorProgram(Context(1, (2,), 2, params))
prog._submit(2, K_RDY, 0, 0, [1], 2)
print("sequential", raises(prog._submit, 2, K_RDY, 0, 0, [1], 2))
"""


class TestChecksWithoutAsserts:
    def test_tampered_report_raises_under_python_O(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", TAMPERED],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "phi", "True", "psi", "True", "final", "True",
            "outputs", "True", "sequential", "True",
        ]


def _transcript_digest(monkeypatch, make_runs):
    """sha256 over the transcript (round, src, dst, bits), telemetry and
    outputs of the EdgeColorProgram runs that make_runs returns."""
    transcripts = []
    monkeypatch.setattr(edgecolor, "run", recording(edgecolor.run, transcripts))
    runs = make_runs()
    assert len(transcripts) == len(runs)
    h = hashlib.sha256()
    for transcript, (_, report) in zip(transcripts, runs):
        doc = [transcript, report.telemetry, report.outputs]
        h.update(json.dumps(canonical(doc), sort_keys=True).encode())
    return h.hexdigest()


class TestTranscriptGuard:
    # recorded at commit 62d6972, before the exchange-record refactor of
    # EdgeColorProgram; the short random_gnd runs and cycle_graph(60) reach
    # the bottom Linial exchange, which no benchmark workload does
    DIGEST = "238c854bc6b625a5c59de33d097f923407fd1efd46ec67be16a7d3a751efad94"

    @staticmethod
    def _runs():
        runs = []
        for g in (random_gnd(16, 8, seed=1), complete_graph(7)):
            for mode in ("wide", "short"):
                for paced in (False, True):
                    runs.append(edge_color_direct(g, SMALL_EDGE, msg_mode=mode, paced=paced))
        runs.append(
            edge_color_direct(random_gnd(16, 8, seed=1), SMALL_EDGE, msg_mode="short", budget_factor=2)
        )
        runs.append(edge_color_2delta_minus_1(cycle_graph(60)))
        return runs

    def test_transcript_telemetry_outputs_unchanged(self, monkeypatch):
        assert _transcript_digest(monkeypatch, self._runs) == self.DIGEST


class TestBottomStart:
    # recorded at commit a1409d3, before bottom groups started through
    # `_start_group`; on this input a bottom group's Linial wait blocks an
    # edge, so the digest pins when each bottom group starts
    DIGEST = "53e2f648885888b0fe4f7ef7049f5fffab242abe732bf1f9271085cb15edbdd7"

    @staticmethod
    def _runs():
        g = random_gnd(60, 12, seed=3)
        return [
            edge_color_direct(g, SMALL_EDGE, msg_mode=mode, paced=paced)
            for mode in ("wide", "short")
            for paced in (False, True)
        ]

    def test_transcript_telemetry_outputs_unchanged(self, monkeypatch):
        assert _transcript_digest(monkeypatch, self._runs) == self.DIGEST


def _every_chunk_wakes(step):
    """The step as it was before slots woke on completed payloads only: every
    received chunk marks its slot dirty."""

    def frozen(self, round_no, inbox):
        self._dirty.update(u for u, _ in inbox)
        return step(self, round_no, inbox)

    return frozen


class TestWakeRule:
    @staticmethod
    def _runs(g):
        transcripts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edgecolor, "run", recording(edgecolor.run, transcripts))
            runs = [edge_color_2delta_minus_1(g)]
            for mode in ("wide", "short"):
                for paced in (False, True):
                    runs.append(edge_color_direct(g, SMALL_EDGE, msg_mode=mode, paced=paced))
        assert len(transcripts) == len(runs)
        return [canonical([t, r.telemetry, r.outputs]) for t, (_, r) in zip(transcripts, runs)]

    @given(connected_graphs(max_n=9), st.integers(0, 2))
    @settings(max_examples=15, deadline=None)
    def test_matches_waking_on_every_chunk(self, g, isolated):
        """Waking a slot only when a payload completes reaches the fixpoint
        that waking it on every chunk reaches: the same transcripts,
        telemetry and outputs on every direct mode and the 2Δ-1 route."""
        g = graph_from_edges(g.n + isolated, g.edges())
        new = self._runs(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(EdgeColorProgram, "step", _every_chunk_wakes(EdgeColorProgram.step))
            assert self._runs(g) == new


class TestWorkCount:
    def test_runs_resume_only_for_what_they_await(self, monkeypatch):
        """On the first input of the benchmark's edge_short workload (seed 1),
        `_advance` resumes edge runs at most 4,300 times (4,231 now). Runs
        were resumed 5,428 times while a queued payload woke its own run's
        slot and a run's own marks kept it dirty. Slot handlers ran 5,862
        times as a stage machine, 6,308 with a separate bot_wait stage, 6,750
        with separate stages for the label and readiness waits too, and
        11,176 when every received chunk woke its slot."""
        resumes = [0]
        edge = EdgeColorProgram._edge

        class Counted:
            def __init__(self, run):
                self.run = run

            def __next__(self):
                resumes[0] += 1
                return next(self.run)

        monkeypatch.setattr(EdgeColorProgram, "_edge", lambda self, s: Counted(edge(self, s)))
        spec = ExperimentSpec(
            "random_gnd",
            {"n": 30, "d": 16},
            algorithm="edge_direct",
            preset="custom",
            params={"b": 1, "p": 9, "lam": 16, "c": 2},
            msg_mode="short",
            seed=12,
        )
        report = run_experiment(spec)
        assert report["verification"]["legal"] and report["rounds"] == 416
        assert resumes[0] <= 4300


class TestExchangeLength:
    @pytest.mark.parametrize("submit_first", [True, False])
    def test_overlong_payload_raises(self, submit_first):
        """The other side may not send more values than this side did. Round
        1 of this bottom-only program sends its one-value K_RDY payload, so
        without an earlier submit the overlong chunk arrives first."""
        params = {"plan": RecursionPlan((), bottom_plan(1, 0)), "rank": {(1, 2): 1}}
        prog = EdgeColorProgram(Context(1, (2,), 2, params))
        header = ((K_RDY, N_KINDS), (0, prog.lvl_dom), (0, prog.it_dom), (0, prog.idx_dom))
        if submit_first:
            prog._submit(2, K_RDY, 0, 0, [1], 2)
        with pytest.raises(SimError, match="more than the 1 sent"):
            prog.step(1, [(2, Message(*header, (1, 2), (1, 2)))])

    def test_raises_at_the_overflowing_chunk(self):
        """A payload split over chunks is refused at the chunk that makes it
        longer than this side's, not after the whole inbox is read."""
        params = {"plan": RecursionPlan((), bottom_plan(1, 0)), "rank": {(1, 2): 1}}
        prog = EdgeColorProgram(Context(1, (2,), 2, params))
        prog._submit(2, K_RDY, 0, 0, [1, 1], 2)
        chunk = Message((K_RDY, N_KINDS), (0, prog.lvl_dom), (0, prog.it_dom), (0, prog.idx_dom), (1, 2))
        with pytest.raises(SimError, match="has 3 values, more than the 2 sent"):
            prog.step(1, [(2, chunk)] * 4)
