import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor import extensions, legal, sim
from bnicolor.base import Outbox
from bnicolor.coloring import VertexColoring
from bnicolor.edgecolor import edge_color_via_line_graph, edge_level_plans
from bnicolor.extensions import RandomizedParams, TradeoffParams, randomized_color, tradeoff_color
from bnicolor.generators import (
    clique_pendant,
    complete_bipartite,
    complete_graph,
    generate,
    random_gnd,
)
from bnicolor.graph import Graph, build_line_graph
from bnicolor.legal import (
    PHI_MODES,
    RecursiveColorProgram,
    _level_plans,
    defective_color,
    legal_color,
    legal_plan,
)
from bnicolor.params import (
    DefectiveParams,
    LegalParams,
    ParamError,
    defect_bound,
    make_preset,
    recursion_schedule,
    smallest_feasible_thm46_t,
    vartheta_of_schedule,
)
from bnicolor.sim import Context, run
from bnicolor.verify import check_defect_pigeonhole, check_edge_coloring, check_vertex_coloring

from conftest import canonical, connected_graphs


def line_graph_of_random(n, d, seed):
    return build_line_graph(random_gnd(n, d, seed=seed)).lg


def _spaced(g, spacing):
    """g with every vertex Id multiplied by spacing."""
    return Graph(
        [v * spacing for v in g.vertices],
        [(u * spacing, w * spacing) for u, w in g.edges()],
    )


class TestDefectiveColor:
    @pytest.mark.parametrize("phi_mode", ["fast", "simple"])
    @pytest.mark.parametrize("b,p", [(1, 4), (2, 4), (1, 8)])
    def test_defect_within_bound(self, phi_mode, b, p):
        g = line_graph_of_random(20, 6, seed=5)
        params = DefectiveParams(b, p, g.delta, 2)
        psi, report = defective_color(g, params, phi_mode=phi_mode)
        rep = check_vertex_coloring(g, psi)
        assert rep.measured_defect <= defect_bound(params)
        assert max(psi.colors.values()) <= p

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("b,p", [(1, 2), (1, 3), (2, 5)])  # defect bounds 4, 2, 0
    def test_phi_defect_within_kuhn_plan(self, seed, b, p):
        """The single-shot Kuhn step's phi: measured defect within
        floor(k * Lambda / q) <= Lambda // (b * p), colors within its palette."""
        g = random_gnd(60, 10, seed=seed)
        Lam = g.delta
        params = DefectiveParams(b, p, Lam, 2)
        _, report = defective_color(g, params)
        level = _level_plans("fast", [Lam, 0], params, g.id_bound).levels[0]
        plan = level.kuhn_plan
        bound = plan.k * Lam // plan.q
        assert bound <= Lam // (b * p)
        phi = VertexColoring(report.extra["phi_colors"], report.extra["phi_palette"], bound)
        assert report.extra["phi_palette"] == level.phi_palette == plan.palette
        assert check_vertex_coloring(g, phi).measured_defect <= bound
        assert max(phi.colors.values()) <= phi.palette

    def test_loop_rounds_within_phi_palette(self):
        g = line_graph_of_random(16, 5, seed=2)
        params = DefectiveParams(1, 4, g.delta, 2)
        _, report = defective_color(g, params)
        assert report.extra["loop_rounds"] <= report.extra["phi_palette"]

    def test_pigeonhole_lemma(self):
        g = line_graph_of_random(18, 5, seed=3)
        params = DefectiveParams(1, 4, g.delta, 2)
        psi, report = defective_color(g, params)
        phi = VertexColoring(report.extra["phi_colors"], report.extra["phi_palette"], g.delta)
        rep = check_defect_pigeonhole(g, phi, psi, p=4, Lambda=g.delta)
        assert not rep.violated

    def test_rejects_lambda_below_delta(self):
        g = complete_graph(6)
        with pytest.raises(ParamError):
            defective_color(g, DefectiveParams(1, 2, 4, 1))

    def test_deterministic(self):
        g = line_graph_of_random(16, 5, seed=9)
        params = DefectiveParams(1, 4, g.delta, 2)
        a, _ = defective_color(g, params)
        b_, _ = defective_color(g, params)
        assert a == b_


class TestLegalColor:
    @pytest.mark.parametrize("phi_mode", ["fast", "simple", "improved"])
    def test_legal_and_within_vartheta(self, phi_mode):
        g = line_graph_of_random(24, 8, seed=1)
        params = LegalParams(1, 9, 12, 2)
        col, report = legal_color(g, params, phi_mode=phi_mode)
        assert check_vertex_coloring(g, col).legal
        assert max(col.colors.values()) <= col.palette == report.extra["vartheta"]

    def test_vartheta_matches_independent_recursion(self):
        g = line_graph_of_random(24, 8, seed=1)
        params = LegalParams(1, 9, 12, 2)
        col, report = legal_color(g, params)
        sched = recursion_schedule(params, g.delta)
        assert col.palette == report.extra["vartheta"] == vartheta_of_schedule(sched, params.p)
        assert report.extra["level_lambdas"] == sched

    def test_trivial_degree_runs_bottom_only(self):
        g = random_gnd(20, 3, seed=0)
        params = LegalParams(1, 9, 36, 2)
        col, report = legal_color(g, params)
        assert len(report.extra["level_lambdas"]) == 1  # no defective level
        assert check_vertex_coloring(g, col).legal

    def test_clique_pendant_family(self):
        g = clique_pendant(24)
        params = LegalParams(1, 9, 12, 2)
        col, _ = legal_color(g, params)
        assert check_vertex_coloring(g, col).legal

    def test_unknown_phi_mode(self):
        with pytest.raises(ParamError):
            legal_color(complete_graph(4), LegalParams(1, 9, 12, 2), phi_mode="warp")


# recurses twice on the line graphs below: [14, 6, 3] at degree 14
TWO_LEVELS = LegalParams(1, 5, 4, 1)


class TestRecursionPlan:
    """A plan's derived palette width is the vartheta of its schedule."""

    @pytest.mark.parametrize(
        "preset,c,delta",
        [("thm45", 2, 46), ("thm46", 1, 4096), ("thm48_3", 2, 46), ("improved_s42", 3, 46), ("custom", 1, 14)],
    )
    def test_suffix_width_is_vartheta(self, preset, c, delta):
        for edge_route in (False, True):
            if preset == "custom":
                params = LegalParams(1, 5, 4, c)
            else:
                t = smallest_feasible_thm46_t(c, delta) if preset == "thm46" else None
                params = make_preset(preset, c, delta, t=t)
            schedule = recursion_schedule(params, delta)
            vartheta = vartheta_of_schedule(schedule, params.p)
            if edge_route:
                plans = [edge_level_plans(schedule, params, 500, u) for u in (False, True)]
            else:
                plans = [_level_plans(mode, schedule, params, 500) for mode in PHI_MODES]
            for plan in plans:
                assert len(plan.levels) == len(schedule) - 1
                assert plan.suffix[0] == vartheta


class TestReadinessCursors:
    """A vertex reaches the same decisions however its messages are batched."""

    @staticmethod
    def _recorded_run(g, phi_mode):
        params = {"plan": legal_plan(g, TWO_LEVELS, phi_mode)[0]}
        received = {v: [] for v in g.vertices}

        class Recording(RecursiveColorProgram):
            def step(self, round_no, inbox):
                received[self.ctx.vid].extend(inbox)
                return super().step(round_no, inbox)

        return params, received, run(g, Recording, params=params)

    @staticmethod
    def _replay(g, v, params, batches):
        prog = RecursiveColorProgram(Context(v, g.adj[v], g.id_bound, params))
        for round_no, inbox in enumerate(batches, 1):
            prog.step(round_no, inbox)
        return prog

    @pytest.mark.parametrize("spacing", [1, 1009])
    @pytest.mark.parametrize("phi_mode", ["fast", "simple", "improved"])
    def test_one_message_per_step_in_scrambled_order(self, phi_mode, spacing):
        # sparse Ids (spacing 1009) give every level two Linial iterations
        g = _spaced(line_graph_of_random(24, 8, seed=1), spacing)
        params, received, report = self._recorded_run(g, phi_mode)
        rng = random.Random(f"{phi_mode}-{spacing}")
        for v in g.vertices:
            # every message v read before it halted
            whole = self._replay(g, v, params, [received[v]])
            scrambled = received[v][:]
            rng.shuffle(scrambled)
            single = self._replay(g, v, params, [[]] + [[m] for m in scrambled])
            assert whole.output == report.outputs[v]
            assert single.output == whole.output
            assert single.phis == whole.phis
            assert single.hist == whole.hist == report.outputs[v]["psi_hist"]
            assert len(whole.hist) == 2


class TestBroadcastOutbox:
    """Each outbox holds, by value and in destination order, what one
    `setdefault(u, []).append(msg)` per broadcast target would have built,
    also in steps where `same` narrows between two broadcasts."""

    @pytest.mark.parametrize("phi_mode", PHI_MODES)
    def test_outbox_equals_per_target_construction(self, monkeypatch, phi_mode):
        class Recording(Outbox):
            __slots__ = ("calls",)

            def __init__(self):
                super().__init__()
                self.calls = []

            def broadcast(self, targets, msg):
                self.calls.append((targets, msg))
                super().broadcast(targets, msg)

        narrowed = []

        class Checked(RecursiveColorProgram):
            def step(self, round_no, inbox):
                out = super().step(round_no, inbox)
                expected = {}
                for targets, msg in out.calls:
                    for u in targets:
                        expected.setdefault(u, []).append(msg)
                assert list(out.items()) == list(expected.items())
                if len({id(targets) for targets, _ in out.calls}) > 1:
                    narrowed.append((self.ctx.vid, round_no))
                return out

        g = line_graph_of_random(24, 8, seed=1)
        params = {"plan": legal_plan(g, TWO_LEVELS, phi_mode)[0]}
        plain = run(g, RecursiveColorProgram, params=params, record_transcript=True)
        monkeypatch.setattr(legal, "Outbox", Recording)
        checked = run(g, Checked, params=params, record_transcript=True)
        assert checked.to_json() == plain.to_json()
        assert checked.extra == plain.extra
        assert narrowed


class TestLineGraphRoutes:
    @given(connected_graphs(min_n=3, max_n=9))
    @settings(max_examples=20, deadline=None)
    def test_edge_route_equals_legal_on_line_graph(self, g):
        edge_col, edge_report = edge_color_via_line_graph(g, TWO_LEVELS)
        lgm = build_line_graph(g)
        vertex_col, _ = legal_color(lgm.lg, TWO_LEVELS)
        assert check_edge_coloring(g, edge_col).legal
        assert check_vertex_coloring(lgm.lg, vertex_col).legal
        assert max(edge_col.colors.values()) <= edge_report.extra["vartheta"]
        assert max(vertex_col.colors.values()) <= vertex_col.palette
        assert edge_col.colors == {
            lgm.edge_of[v]: col for v, col in vertex_col.colors.items()
        }


def _transcript_digest(monkeypatch):
    """sha256 over the transcript (round, src, dst, bits) of every simulator
    run, and the telemetry and outputs of every report, of a fixed set of
    small RecursiveColorProgram runs."""
    transcripts = []
    real_run = sim.run

    def recording_run(*args, **kwargs):
        kwargs["record_transcript"] = True
        report = real_run(*args, **kwargs)
        transcripts.append(report.extra["transcript"])
        return report

    for module in (legal, extensions, sim):
        monkeypatch.setattr(module, "run", recording_run)
    reports = []
    lg = line_graph_of_random(24, 8, seed=1)
    for g in (lg, _spaced(lg, 1009), complete_graph(8)):
        for mode in PHI_MODES:
            reports.append(legal_color(g, TWO_LEVELS, phi_mode=mode)[1])
    dg = line_graph_of_random(16, 5, seed=2)
    for g in (dg, _spaced(dg, 1009)):
        for mode in ("fast", "simple"):
            reports.append(defective_color(g, DefectiveParams(1, 4, dg.delta, 2), mode)[1])
    reports.append(randomized_color(random_gnd(40, 20, seed=3), RandomizedParams(seed=5))[1])
    star_lg = build_line_graph(complete_bipartite(1, 33)).lg
    reports.append(tradeoff_color(star_lg, TradeoffParams("power:0.5", eta=0.25), c=2)[1])
    reports.append(edge_color_via_line_graph(random_gnd(16, 8, seed=1), TWO_LEVELS)[1])
    h = hashlib.sha256()
    h.update(json.dumps(canonical(transcripts)).encode())
    for report in reports:
        doc = [report.telemetry, report.outputs]
        h.update(json.dumps(canonical(doc), sort_keys=True).encode())
    return h.hexdigest()


class TestTranscriptGuard:
    # recorded at commit 306a4f7, before RecursiveColorProgram moved to
    # positional per-phase stores; the runs cover every phi mode on dense and
    # sparse Ids (a from_rho bottom with and without Linial iterations), the
    # bottom-less defective route, both extension levels and the line-graph
    # route
    DIGEST = "52f8e1a5f582263b27b9ba92666e56835467c17b0a7daad75c0e0fb1c10ebd17"

    def test_transcript_telemetry_outputs_unchanged(self, monkeypatch):
        assert _transcript_digest(monkeypatch) == self.DIGEST
