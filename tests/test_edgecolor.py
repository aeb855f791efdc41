import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor import edgecolor
from bnicolor.edgecolor import (
    K_RDY2,
    N_KINDS,
    EdgeColorProgram,
    edge_color_2delta_minus_1,
    edge_color_direct,
    edge_color_via_line_graph,
    smallest_pprime,
)
from bnicolor.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnd,
)
from bnicolor.graph import graph_from_edges
from bnicolor.legal import RecursionPlan, bottom_plan
from bnicolor.params import LegalParams, ParamError
from bnicolor.sim import Context, Message, SimError
from bnicolor.verify import check_edge_coloring

from conftest import canonical, connected_graphs, small_graphs

SRC = Path(__file__).resolve().parents[1] / "src"
# recurses from max degree 4 on: [6, 3] at degree 4, [14, 6, 3] at degree 8
SMALL_EDGE = LegalParams(1, 5, 4, 1)


class TestSmallestPprime:
    def test_values(self):
        assert smallest_pprime(64, 3) == 32
        assert smallest_pprime(64, 0) == 64
        assert smallest_pprime(10, 4) == 4

    @given(st.integers(1, 200), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_and_minimal(self, Lambda, d):
        pp = smallest_pprime(Lambda, d)
        assert 2 * (-(-Lambda // pp)) - 2 <= d
        if pp > 1:
            assert 2 * (-(-Lambda // (pp - 1))) - 2 > d

    def test_rejects_negative(self):
        with pytest.raises(ParamError):
            smallest_pprime(10, -1)

    def test_formula_matches_frozen_search(self):
        """The closed form against the linear search it replaced, verbatim."""

        def frozen(Lambda, d):
            for pp in range(1, Lambda + 1):
                if 2 * (-(-Lambda // pp)) - 2 <= d:
                    return pp
            return Lambda

        for Lambda in range(600):
            for d in range(1300):
                assert smallest_pprime(Lambda, d) == frozen(Lambda, d), (Lambda, d)


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

    def test_unknown_phi_mode(self):
        # the route builds its plan with legal_color's checks, phi_mode included
        with pytest.raises(ParamError, match="unknown phi_mode 'warp'"):
            edge_color_via_line_graph(random_gnd(12, 4, seed=1), SMALL_EDGE, phi_mode="warp")


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
    every slot's psi history."""
    groups = {}
    for u in sorted(prog.ctx.neighbors):
        hist = prog.slots[u].hist
        for lvl in range(len(hist) + 1):
            key = (lvl, tuple(hist[:lvl]))
            members, undecided = groups.get(key, ([], 0))
            groups[key] = (members + [u], undecided + (len(hist) == lvl))
    return groups


def _check_tallies(prog):
    for s in prog.slots.values():
        assert prog.groups[(s.level, tuple(s.hist))] is s.grp
        members = [prog.slots[w] for w in s.grp.members]
        if s.stage == "loop":
            lvl = s.level
            smaller = [w for w in members if w.phi[lvl] < s.phi[lvl]]
            assert s.wait == sum(len(w.hist) == lvl for w in smaller)
            assert s.psi_counts == [
                sum(len(w.hist) > lvl and w.hist[lvl] == k for w in smaller)
                for k in range(1, len(s.psi_counts) + 1)
            ]
        if s.stage == "greedy" and s.grp.ready == len(members):
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
        ],
        ids=["short", "wide-paced", "2delta"],
    )
    def test_index_matches_rescan_after_every_step(self, monkeypatch, run_it):
        step = EdgeColorProgram.step
        steps = []

        def checked_step(self, round_no, inbox):
            out = step(self, round_no, inbox)
            index = {key: (sorted(g.members), g.undecided) for key, g in self.groups.items()}
            assert index == _rescanned_groups(self)
            _check_tallies(self)
            steps.append(round_no)
            return out

        monkeypatch.setattr(EdgeColorProgram, "step", checked_step)
        col, _ = run_it()
        assert steps and col.colors


TAMPERED = """
import copy
import sys

from bnicolor.edgecolor import (
    K_RDY2, EdgeColorProgram, _check_endpoint_consistency, _merge_edge_outputs,
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
prog._submit(2, K_RDY2, 0, 0, [(1, 2)])
print("sequential", raises(prog._submit, 2, K_RDY2, 0, 0, [(1, 2)]))
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


def _transcript_digest(monkeypatch):
    """sha256 over the transcript (round, src, dst, bits), telemetry and
    outputs of a fixed set of small EdgeColorProgram runs."""
    real_run = edgecolor.run
    monkeypatch.setattr(
        edgecolor, "run", lambda *a, **kw: real_run(*a, record_transcript=True, **kw)
    )
    runs = []
    for g in (random_gnd(16, 8, seed=1), complete_graph(7)):
        for mode in ("wide", "short"):
            for paced in (False, True):
                runs.append(edge_color_direct(g, SMALL_EDGE, msg_mode=mode, paced=paced))
    runs.append(
        edge_color_direct(random_gnd(16, 8, seed=1), SMALL_EDGE, msg_mode="short", budget_factor=2)
    )
    runs.append(edge_color_2delta_minus_1(cycle_graph(60)))
    h = hashlib.sha256()
    for _, report in runs:
        doc = [report.extra["transcript"], report.telemetry, report.outputs]
        h.update(json.dumps(canonical(doc), sort_keys=True).encode())
    return h.hexdigest()


class TestTranscriptGuard:
    # recorded at commit 62d6972, before the exchange-record refactor of
    # EdgeColorProgram; the short random_gnd runs and cycle_graph(60) reach
    # the bottom Linial exchange, which no benchmark workload does
    DIGEST = "238c854bc6b625a5c59de33d097f923407fd1efd46ec67be16a7d3a751efad94"

    def test_transcript_telemetry_outputs_unchanged(self, monkeypatch):
        assert _transcript_digest(monkeypatch) == self.DIGEST


class TestExchangeLength:
    @pytest.mark.parametrize("submit_first", [True, False])
    def test_overlong_payload_raises(self, submit_first):
        """The other side may not send more values than this side did."""
        params = {"plan": RecursionPlan((), bottom_plan(1, 0)), "rank": {(1, 2): 1}}
        prog = EdgeColorProgram(Context(1, (2,), 2, params))
        header = ((K_RDY2, N_KINDS), (0, prog.lvl_dom), (0, prog.it_dom), (0, prog.idx_dom))
        steps = [
            lambda: prog._submit(2, K_RDY2, 0, 0, [(1, 2)]),
            lambda: prog._store(2, Message(*header, (1, 2), (1, 2))),
        ]
        if not submit_first:
            steps.reverse()
        steps[0]()
        with pytest.raises(SimError, match="more than the 1 sent"):
            steps[1]()
