import hashlib
import inspect
import json
import random
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor import extensions, legal, sim
from bnicolor.coloring import VertexColoring
from bnicolor.edgecolor import edge_color_direct, edge_color_via_line_graph
from bnicolor.experiment import ExperimentSpec, report_json, run_experiment
from bnicolor.extensions import RandomizedParams, TradeoffParams, randomized_color, tradeoff_color
from bnicolor.generators import (
    clique_pendant,
    complete_bipartite,
    complete_graph,
    generate,
    hypergraph_line,
    random_gnd,
)
from bnicolor.graph import (
    Graph,
    Knowledge,
    build_line_graph,
    edge_ids,
    edge_knowledge,
    graph_from_edges,
    knowledge,
)
from bnicolor.legal import (
    K_RED,
    LABELS,
    N_KINDS,
    PHI_MODES,
    BottomPlan,
    LevelPlan,
    RecursionPlan,
    RecursiveColorProgram,
    bottom_plan,
    defective_color,
    legal_color,
    legal_plan,
    level_plans,
    linial_coloring,
    run_plan,
    smallest_pprime,
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
from bnicolor.verify import check_edge_coloring, check_vertex_coloring

from conftest import canonical, connected_graphs, recording
from oracles import check_defect_pigeonhole, level_profile


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
        (level,), _ = level_plans("fast", [Lam], params, g.id_bound)
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

    def test_unknown_phi_mode(self):
        for phi_mode in ("improved", LABELS):
            with pytest.raises(ParamError, match=f"phi_mode must be fast or simple, got '{phi_mode}'"):
                defective_color(complete_graph(4), DefectiveParams(1, 2, 3, 1), phi_mode=phi_mode)

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
        # the edge-label level kind is no phi_mode
        for phi_mode in ("warp", LABELS):
            with pytest.raises(ParamError, match=f"unknown phi_mode '{phi_mode}'"):
                legal_color(complete_graph(4), LegalParams(1, 9, 12, 2), phi_mode=phi_mode)


# recurses twice on the line graphs below: [14, 6, 3] at degree 14
TWO_LEVELS = LegalParams(1, 5, 4, 1)


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


def _frozen_direct_plan(params, Lambda0, m_total, uniform_pprime=False):
    """The direct edge route's plan before `legal_plan` built it: the lines of
    `edge_color_direct` and `edge_level_plans`, verbatim but for
    `smallest_pprime`, inlined as its closed form."""
    params.validate(Lambda0)
    schedule = recursion_schedule(params, Lambda0)
    bp = params.b * params.p
    pps = [-(-Lam // ((Lam // bp) // 2 + 1)) for Lam in schedule[:-1]]
    if uniform_pprime:
        # one p' valid for every level: at least 2bp+1 (enough for Lambda >> bp)
        # and at least each level's minimal feasible value
        pps = [max([2 * bp + 1] + pps)] * len(pps)
    levels = [LevelPlan(Lam, params.p, pp * pp, p_prime=pp) for Lam, pp in zip(schedule, pps)]
    # schedule entries bound the INCIDENT degree (line-graph degree), so the
    # bottom greedy needs hat+1 colors; for the whole graph hat = 2*(delta-1)
    # recovers the classical 2*delta-1.
    return RecursionPlan(tuple(levels), bottom_plan(max(m_total, 1), schedule[-1]))


def _plan_fields(build):
    """Every field of build()'s plan that the edge program or a report reads,
    with the levels' kind tag set aside, or build()'s ParamError message."""
    try:
        plan = build()
    except ParamError as e:
        return str(e)
    levels = tuple(replace(level, kind="std") for level in plan.levels)
    return levels, plan.bottom, plan.rho, plan.suffix


class TestEdgePlan:
    def test_equals_the_frozen_builder(self):
        """`legal_plan` at an edge knowledge (N = max(m, 1), n = m) against
        the frozen builder: the same plan, or the same error, on every preset,
        c, degree, m and pacing."""
        compared = 0
        grid = product(
            ("thm45", "thm48_3", "improved_s42", "thm46"), (1, 2, 3, 5), [*range(1, 80), 128, 256, 1024, 4096]
        )
        for preset, c, delta in grid:
            t = smallest_feasible_thm46_t(c, delta) if preset == "thm46" else None
            try:
                params = make_preset(preset, c, delta, t=t)
            except ParamError:
                continue
            for m, paced in product((0, 1000), (False, True)):
                k = Knowledge(max(m, 1), m, delta)
                new = _plan_fields(lambda: legal_plan(k, params, paced=paced))
                assert new == _plan_fields(lambda: _frozen_direct_plan(params, delta, m, paced))
                compared += not isinstance(new, str)
        assert compared == 3988

    def test_edge_knowledge(self):
        """N is the dense edge-Id bound, n the edge count and delta the
        incident degree 2(delta - 1), all at least 1 but n; its paced and
        unpaced plans have levels of the edge-label kind."""
        k = edge_knowledge(complete_graph(9))
        assert k == Knowledge(36, 36, 14)
        for paced in (False, True):
            assert [level.kind for level in legal_plan(k, TWO_LEVELS, paced=paced).levels] == [LABELS] * 2
        assert edge_knowledge(graph_from_edges(6, [(1, 2), (3, 4), (5, 6)])) == Knowledge(3, 3, 1)
        assert edge_knowledge(graph_from_edges(3, [])) == Knowledge(1, 0, 1)


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
                plans = [legal_plan(Knowledge(500, 500, delta), params, paced=u) for u in (False, True)]
            else:
                plans = []
                for mode in PHI_MODES:
                    levels, rho = level_plans(mode, schedule[:-1], params, 500)
                    bottom = bottom_plan(rho or 500, schedule[-1])
                    plans.append(RecursionPlan(levels, bottom, rho is not None))
            for plan in plans:
                assert len(plan.levels) == len(schedule) - 1
                assert plan.suffix[0] == vartheta

    @pytest.mark.parametrize(
        "delta,vartheta,lambdas",
        [(2**16, 410368, [65536, 10242, 1602]), (2**20, 5711872, [1048576, 76460, 5577])],
    )
    def test_plan_from_knowledge_alone(self, delta, vartheta, lambdas):
        """A plan needs no graph, so it can be sized at degrees no simulation
        reaches: thm45 at c = 2 (ROADMAP's plan-scale table)."""
        k = Knowledge(N=2**40, n=2**40, delta=delta)
        plan = legal_plan(k, make_preset("thm45", 2, delta))
        assert (plan.suffix[0], plan.lambdas) == (vartheta, lambdas)

    @pytest.mark.parametrize(
        "levels,bottom",
        [((), bottom_plan(8, 2)), (level_plans("fast", [6], LegalParams(1, 2, 6, 1), 8)[0], None)],
        ids=["no-level", "no-bottom"],
    )
    def test_rho_needs_a_level_and_a_bottom(self, levels, bottom):
        """Without a level, the bottom would start from its own final store;
        without a bottom, rho starts nothing after level 0."""
        RecursionPlan(levels, bottom)
        with pytest.raises(ParamError, match="rho plan needs a level and a bottom"):
            RecursionPlan(levels, bottom, rho=True)

    @pytest.mark.parametrize("n,d,seed,n_levels", [(60, 8, 1, 0), (60, 12, 2, 0), (60, 40, 3, 2)])
    def test_improved_sets_rho_only_with_a_level(self, n, d, seed, n_levels):
        """Improved mode without a level is fast mode: rho is off and the
        coloring and rounds are fast's; with a level rho is on."""
        g = random_gnd(n, d, seed=seed)
        params = LegalParams(1, 9, 12, 2)
        plan = legal_plan(knowledge(g), params, "improved")
        assert (len(plan.levels), plan.rho) == (n_levels, n_levels > 0)
        if not plan.rho:
            col, report = legal_color(g, params, "improved")
            fast_col, fast_report = legal_color(g, params, "fast")
            assert col == fast_col and report.rounds == fast_report.rounds
            assert "rho_rounds" not in report.extra


class TestReadinessCursors:
    """A vertex reaches the same decisions however its messages are batched."""

    @staticmethod
    def _recorded_run(monkeypatch, module, route):
        """route's one RecursiveColorProgram run, which module starts: its
        params, every message each vertex read before it halted, its report."""
        received = defaultdict(list)
        runs = []

        class Recording(RecursiveColorProgram):
            def step(self, round_no, inbox):
                received[self.ctx.vid].extend(inbox)
                return super().step(round_no, inbox)

        def recording_run(g, program, params):
            runs.append((params, run(g, Recording, params=params)))
            return runs[-1][1]

        monkeypatch.setattr(module, "run", recording_run)
        route()
        ((params, report),) = runs
        return params, received, report

    @staticmethod
    def _replay(g, v, params, batches):
        prog = RecursiveColorProgram(Context(v, g.adj[v], g.id_bound, params))
        for round_no, inbox in enumerate(batches, 1):
            prog.step(round_no, inbox)
        return prog

    def _check_replays(self, g, params, received, report, rng):
        """Replay every vertex's messages in one step, and one a step in
        scrambled order; both reach the run's decisions."""
        for v in g.vertices:
            whole = self._replay(g, v, params, [received[v]])
            scrambled = received[v][:]
            rng.shuffle(scrambled)
            single = self._replay(g, v, params, [[]] + [[m] for m in scrambled])
            assert whole.output == report.outputs[v]
            assert single.output == whole.output
            assert single.phis == whole.phis
            assert single.hist == whole.hist

    @pytest.mark.parametrize("spacing", [1, 1009])
    @pytest.mark.parametrize("phi_mode", ["fast", "simple", "improved"])
    def test_one_message_per_step_in_scrambled_order(self, monkeypatch, phi_mode, spacing):
        # sparse Ids (spacing 1009) give every level two Linial iterations
        g = _spaced(line_graph_of_random(24, 8, seed=1), spacing)
        params, received, report = self._recorded_run(
            monkeypatch, legal, lambda: legal_color(g, TWO_LEVELS, phi_mode)
        )
        self._check_replays(g, params, received, report, random.Random(f"{phi_mode}-{spacing}"))
        for v in g.vertices:
            assert len(report.outputs[v]["psi_hist"]) == 2

    @pytest.mark.parametrize(
        "kind,module,graph,algorithm",
        [
            pytest.param(
                "std", legal, lambda: line_graph_of_random(16, 5, seed=2),
                lambda g: defective_color(g, DefectiveParams(1, 4, g.delta, 2)), id="defective",
            ),
            pytest.param(
                "pre_random", legal, lambda: random_gnd(40, 20, seed=3),
                lambda g: randomized_color(g, RandomizedParams(seed=5)), id="randomized",
            ),
            pytest.param(
                "pre_kuhn", legal, lambda: build_line_graph(complete_bipartite(1, 33)).lg,
                lambda g: tradeoff_color(g, TradeoffParams("power:0.5", eta=0.25), c=2),
                id="tradeoff",
            ),
            pytest.param(
                None, legal, lambda: _spaced(line_graph_of_random(24, 8, seed=1), 1009),
                linial_coloring, id="linial",
            ),
        ],
    )
    def test_other_plans_in_scrambled_order(self, monkeypatch, kind, module, graph, algorithm):
        """A bottom-less plan, a pre_random first level, a pre_kuhn first
        level and Linial's plan: no level, two bottom Linial iterations and a
        target no final exceeds. The pre_random and pre_kuhn plans also reduce
        bottom colors with K_RED messages."""
        g = graph()
        params, received, report = self._recorded_run(monkeypatch, module, lambda: algorithm(g))
        plan = params["plan"]
        assert (plan.levels[0].kind if plan.levels else None) == kind
        kinds = {msg.fields[0][0] for inbox in received.values() for _, msg in inbox}
        assert (plan.bottom is not None) == (kind != "std")
        assert (K_RED in kinds) == (kind in ("pre_random", "pre_kuhn"))
        if kind is None:
            assert len(plan.bottom.lin_plans) == 2
            assert plan.bottom.target == plan.bottom.lin_plans[-1].palette
        self._check_replays(g, params, received, report, random.Random(kind or "linial"))

    def test_bigger_reduced_color_above_target_does_not_block(self):
        """The vertex waits for each bigger competitor's reduced color, then
        takes the least color none of its neighbors holds, whether or not the
        competitor's color is above target."""
        plan = RecursionPlan((), BottomPlan(target=2, lin_plans=(), start_palette=8))
        outcomes = []
        for red in (6, 1):
            prog = RecursiveColorProgram(Context(5, [7], 8, {"plan": plan}))
            assert not prog.step(1, []) and prog.output is None
            assert prog.wait == (7, prog.red_at)  # on the competitor's reduced color
            # slot 0 is red_at, as the program files a K_RED message
            out = prog.step(2, [(7, legal._Filed(0, red, (K_RED, N_KINDS), (red - 1, 10)))])
            [(dst, [msg])] = out.items()
            assert dst == 7 and msg.fields[0][0] == K_RED
            outcomes.append((msg.fields[1][0] + 1, prog.output))
        assert outcomes == [
            (1, {"color": 1, "psi_hist": []}),
            (2, {"color": 2, "psi_hist": []}),
        ]


class TestWorkCount:
    def test_most_steps_of_a_waiting_vertex_return_at_once(self, monkeypatch):
        """On the first input of the benchmark's line_legal workload (seed 1),
        at most 30% of RecursiveColorProgram steps resume the program: a step
        whose awaited neighbor has not reported returns at once. Such a step
        builds no outbox either: 4,285 are built, one per resume, where each
        of the 16,624 steps built one before."""
        counts = {"step": 0, "resume": 0, "outbox": 0}
        real_step, real_program = RecursiveColorProgram.step, RecursiveColorProgram._program
        done = object()

        def step(self, round_no, inbox):
            out = real_step(self, round_no, inbox)
            counts["step"] += 1
            counts["outbox"] += out is not None
            return out

        def program(self):
            run = real_program(self)
            while True:
                counts["resume"] += 1
                if next(run, done) is done:
                    return
                yield

        monkeypatch.setattr(RecursiveColorProgram, "step", step)
        monkeypatch.setattr(RecursiveColorProgram, "_program", program)
        spec = ExperimentSpec(
            "line_of",
            {"inner": {"kind": "random_gnd", "params": {"n": 40, "d": 24}}},
            algorithm="legal",
            preset="thm45",
            params={"c": 2, "eps": "3/4"},
            seed=12,
        )
        report = run_experiment(spec)
        assert report["verification"]["legal"] and report["rounds"] == 68
        assert counts["resume"] <= 0.30 * counts["step"]
        assert counts["outbox"] == counts["resume"]

    def test_one_on_send_call_per_batch_run(self, monkeypatch):
        """On the first input of the benchmark's edge_line workload (seed 1),
        `sim.run` calls on_send once per batch run, the consecutive
        destinations of an outbox that hold one batch object: 1,024 times.
        A step that narrows `same` shares one batch among the destinations
        it leaves and one among those it keeps; when each destination got
        its own copy there, it was called 1,061 times, and 31,539 times when
        it was called once per destination."""
        calls, runs = [0], [0]
        real_run, real_step = sim.run, RecursiveColorProgram.step

        def counted_run(*args, on_send, **kwargs):
            def counted(*row):
                calls[0] += 1
                on_send(*row)

            return real_run(*args, on_send=counted, **kwargs)

        def step(self, round_no, inbox):
            out = real_step(self, round_no, inbox)
            prev = None
            for batch in (out or {}).values():
                runs[0] += batch is not prev
                prev = batch
            return out

        monkeypatch.setattr(sim, "run", counted_run)
        monkeypatch.setattr(RecursiveColorProgram, "step", step)
        spec = ExperimentSpec(
            "random_gnd",
            {"n": 30, "d": 24},
            algorithm="edge_line",
            preset="thm45",
            params={"c": 2, "eps": "3/4"},
            seed=12,
        )
        report = run_experiment(spec)
        assert report["verification"]["legal"] and report["rounds"] == 154
        assert 0 < calls[0] <= runs[0] <= 1024


class TestGeneratorRules:
    """`RecursiveColorProgram._program` suspends once per vertex, so what its
    frame holds is held n times over. A comprehension or lambda in its body
    makes every local it reads a closure cell (Python 3.10 and 3.11). Measured
    under Python 3.11.7 on a 2-core VM: on one benchmark `flood` input 5,848
    cells were alive mid-run, gen-0 collections over 24 runs rose from 547 to
    815, and `flood` `run_s` was about 5% worse in 7 of 7 pairs.
    tests/test_imports.py keeps cells out of every vertex program's
    generator. A step's outbox is likewise dropped when the step ends."""

    def test_no_outbox_outlives_its_step(self):
        g = line_graph_of_random(24, 8, seed=1)
        v = g.vertices[0]
        params = {"plan": legal_plan(knowledge(g), TWO_LEVELS)}
        prog = RecursiveColorProgram(Context(v, g.adj[v], g.id_bound, params))
        out = prog.step(1, [])
        # it broadcast its phi and now waits mid-run, its generator suspended
        assert out and prog.output is None
        assert inspect.getgeneratorstate(prog._run) == inspect.GEN_SUSPENDED
        assert prog._sends is None
        held = {id(x) for x in prog._run.gi_frame.f_locals.values()}
        assert not held & {id(out), *map(id, out.values())}


class TestBroadcastOutbox:
    """Each outbox holds, by value and in destination order, what one
    `setdefault(u, []).append(msg)` per `_send` target would have built,
    also in steps where `same` narrows between two sends; a step that does
    not narrow shares one batch among all its destinations."""

    @pytest.mark.parametrize("phi_mode", PHI_MODES)
    def test_outbox_equals_per_target_construction(self, phi_mode):
        narrowed = []

        class Checked(RecursiveColorProgram):
            def step(self, round_no, inbox):
                self.calls = []
                out = super().step(round_no, inbox)
                if out is None:  # blocked: no outbox was built
                    return out
                expected = {}
                for targets, msg in self.calls:
                    for u in targets:
                        expected.setdefault(u, []).append(msg)
                assert list(out.items()) == list(expected.items())
                if len({id(targets) for targets, _ in self.calls}) > 1:
                    narrowed.append((self.ctx.vid, round_no))
                else:
                    assert len({id(batch) for batch in out.values()}) <= 1
                return out

            def _send(self, targets, msg):
                self.calls.append((targets, msg))
                super()._send(targets, msg)

        g = line_graph_of_random(24, 8, seed=1)
        params = {"plan": legal_plan(knowledge(g), TWO_LEVELS, phi_mode)}
        transcripts = []
        plain = recording(run, transcripts)(g, RecursiveColorProgram, params=params)
        checked = recording(run, transcripts)(g, Checked, params=params)
        assert checked.to_json() == plain.to_json()
        assert checked.extra == plain.extra
        assert transcripts[1] == transcripts[0]
        assert narrowed


class TestLineGraphRoutes:
    @given(connected_graphs(min_n=3, max_n=9))
    @settings(max_examples=20, deadline=None)
    def test_edge_route_equals_legal_on_line_graph(self, g):
        """The route runs the recursion on L(G) under the plan of the edge
        Knowledge, the plan the direct route runs."""
        edge_col, edge_report = edge_color_via_line_graph(g, TWO_LEVELS)
        lgm = build_line_graph(g)
        vertex_col, _ = run_plan(lgm.lg, legal_plan(edge_knowledge(g), TWO_LEVELS))
        assert check_edge_coloring(g, edge_col).legal
        assert check_vertex_coloring(lgm.lg, vertex_col).legal
        assert max(edge_col.colors.values()) <= edge_report.extra["vartheta"]
        assert max(vertex_col.colors.values()) <= vertex_col.palette
        assert edge_col.colors == {
            lgm.edge_of[v]: col for v, col in vertex_col.colors.items()
        }


class TestLevelBounds:
    """After i levels, a vertex's degree inside its psi-history class is at
    most the plan's Lambda_i; after the last level, the bottom's hat."""

    @staticmethod
    def check(g, report, hists=None):
        if hists is None:
            hists = {v: out["psi_hist"] for v, out in report.outputs.items()}
        lambdas = report.extra["level_lambdas"]
        profile = level_profile(g, hists)
        assert len(profile) == len(lambdas) > 1
        assert all(d <= lam for d, lam in zip(profile, lambdas)), (profile, lambdas)

    @given(seed=st.integers(0, 2**16), phi_mode=st.sampled_from(PHI_MODES))
    @settings(max_examples=6, deadline=None)
    def test_legal(self, seed, phi_mode):
        line = line_graph_of_random(40, 24, seed)
        # hyperedges of size <= 3 bound neighborhood independence by 3
        for g, c in ((line, 2), (hypergraph_line(3, 200, 40, seed=seed), 3)):
            self.check(g, legal_color(g, make_preset("thm45", c, g.delta), phi_mode)[1])

    @staticmethod
    def phi_defects(g, plan):
        """Per level, the most neighbors of its level class that share a
        vertex's phi; each vertex's phis and psi history are recorded when it
        halts, since reports carry no per-level phi."""
        halted = {}

        class Recording(RecursiveColorProgram):
            def step(self, round_no, inbox):
                out = super().step(round_no, inbox)
                if self.output is not None:
                    halted[self.ctx.vid] = (self.phis, self.hist)
                return out

        run(g, Recording, params={"plan": plan})
        assert len(halted) == len(g.vertices)
        return [
            max(
                sum(halted[u][1][:lvl] == hist[:lvl] and halted[u][0][lvl] == phis[lvl] for u in g.adj[v])
                for v, (phis, hist) in halted.items()
            )
            for lvl in range(len(plan.levels))
        ]

    @given(seed=st.integers(0, 2**16), phi_mode=st.sampled_from(PHI_MODES))
    @settings(max_examples=6, deadline=None)
    def test_legal_phi_defect(self, seed, phi_mode):
        """Each level's phi: in fast and improved mode a vertex shares it with
        at most Lambda_i // (b * p) neighbors of its class (the Kuhn step's
        target defect), in simple mode with none (phi is a legal coloring)."""
        line = line_graph_of_random(40, 24, seed)
        for g, c in ((line, 2), (hypergraph_line(3, 200, 40, seed=seed), 3)):
            params = make_preset("thm45", c, g.delta)
            plan = legal_plan(knowledge(g), params, phi_mode)
            bp = params.b * params.p
            bounds = [0 if phi_mode == "simple" else level.Lambda // bp for level in plan.levels]
            defects = self.phi_defects(g, plan)
            assert bounds and all(d <= b for d, b in zip(defects, bounds)), (defects, bounds)

    @given(
        seed=st.integers(0, 2**16),
        phi_mode=st.sampled_from(["fast", "simple"]),
        bp=st.sampled_from([(1, 4), (2, 3), (1, 8)]),
    )
    @settings(max_examples=6, deadline=None)
    def test_defective(self, seed, phi_mode, bp):
        """The single level's phi: at most Lambda // (b * p) neighbors share
        a vertex's phi in fast mode (the Kuhn step's target defect), none in
        simple mode (phi is the legal Linial coloring)."""
        line = line_graph_of_random(40, 24, seed)
        for g, c in ((line, 2), (hypergraph_line(3, 200, 40, seed=seed), 3)):
            params = DefectiveParams(*bp, g.delta, c)
            report = defective_color(g, params, phi_mode)[1]
            phi = report.extra["phi_colors"]
            defect = max(sum(phi[u] == phi[v] for u in g.adj[v]) for v in g.vertices)
            assert defect <= (g.delta // (bp[0] * bp[1]) if phi_mode == "fast" else 0), (defect, bp)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_edge_line(self, seed):
        """On L(G), with the preset sized as `experiment` sizes it."""
        g = random_gnd(40, 24, seed=seed)
        params = make_preset("thm45", 2, edge_knowledge(g).delta)
        self.check(build_line_graph(g).lg, edge_color_via_line_graph(g, params)[1])

    @classmethod
    def check_edge_direct(cls, g, params):
        """On L(G), in wide, short and paced mode; an L(G) vertex is an
        `edge_ids` Id and its history is its edge's psi telemetry. Each
        level's phi-defect is checked too."""
        lg = build_line_graph(g).lg
        for msg_mode, paced in (("wide", False), ("short", False), ("short", True)):
            report = edge_color_direct(g, params, msg_mode=msg_mode, paced=paced)[1]
            hists = {}
            for (u, w), e in edge_ids(g).items():
                psi = report.telemetry[u]["edges"][w]["psi"]
                hists[e] = [psi[lvl][1] for lvl in sorted(psi)]
            cls.check(lg, report, hists)
            cls.check_phi_defect(g, report, legal_plan(edge_knowledge(g), params, paced=paced))

    @staticmethod
    def check_phi_defect(g, report, plan):
        """At every level, an edge has at most 2*ceil(s_v/p') - 1 equal-phi
        class neighbours at each endpoint v, s_v its group size at v: phi
        orders the labels by endpoint Id, so two edges can share phi with
        different labels at v (`legal.smallest_pprime`)."""
        for v in g.vertices:
            edges = report.telemetry[v]["edges"].values()
            for lvl, level in enumerate(plan.levels):
                groups = defaultdict(list)
                for t in edges:
                    groups[tuple(t["psi"][i][1] for i in range(lvl))].append(t["phi"][lvl][1])
                for phis in groups.values():
                    bound = 2 * -(-len(phis) // level.p_prime) - 1
                    assert max(Counter(phis).values()) - 1 <= bound, (v, lvl, phis)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_edge_direct(self, seed):
        g = random_gnd(40, 24, seed=seed)
        self.check_edge_direct(g, make_preset("thm45", 2, edge_knowledge(g).delta))

    @pytest.mark.parametrize("n", [7, 9, 10, 11, 12, 13])
    def test_edge_direct_complete(self, n):
        """Complete graphs, where phi-defects exceed 2*ceil(Lambda/p') - 2."""
        self.check_edge_direct(complete_graph(n), TWO_LEVELS)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_tradeoff(self, seed):
        """Each pre_kuhn class keeps degree at most class_defect_claimed, the
        inner plan's Lambda_0."""
        params = TradeoffParams("power:0.5", eta=0.25)
        for g in (line_graph_of_random(40, 24, seed), random_gnd(80, 16, seed=seed), complete_graph(33)):
            self.check(g, tradeoff_color(g, params, c=2)[1])


def _transcript_digest(monkeypatch):
    """sha256 over the transcript (round, src, dst, bits) of every simulator
    run, and the telemetry and outputs of every report, of a fixed set of
    small RecursiveColorProgram runs."""
    transcripts = []
    recorded_run = recording(sim.run, transcripts)
    for module in (legal, extensions, sim):
        monkeypatch.setattr(module, "run", recorded_run)
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
    # sparse Ids (a rho plan with and without Linial iterations), the
    # bottom-less defective route, both extension levels and the line-graph
    # route
    DIGEST = "52f8e1a5f582263b27b9ba92666e56835467c17b0a7daad75c0e0fb1c10ebd17"

    def test_transcript_telemetry_outputs_unchanged(self, monkeypatch):
        assert _transcript_digest(monkeypatch) == self.DIGEST


class TestLinialIterationReport:
    # recorded at commit aea904c, when iteration 0 was still a per-vertex
    # dict of Ids; no golden spec or benchmark input runs a Linial iteration
    SHA256 = "80ee4869272bf5d8eb30cc3da8bc5bbe39ab2851992dfdba03878d9ded956ef0"

    def test_report_bytes(self, monkeypatch):
        """The custom legal run on random_gnd(2000, 8) takes a bottom Linial
        iteration, which reads iteration 0, the Id range, and its report
        bytes stay as recorded."""
        plans = []
        real_run = legal.run

        def capturing_run(g, program, params):
            plans.append(params["plan"])
            return real_run(g, program, params=params)

        monkeypatch.setattr(legal, "run", capturing_run)
        spec = ExperimentSpec(
            "random_gnd",
            {"n": 2000, "d": 8},
            algorithm="legal",
            preset="custom",
            params={"b": 1, "p": 9, "lam": 12, "c": 2},
            seed=3,
        )
        report = run_experiment(spec)
        [plan] = plans
        assert sum(map(len, plan.phases)) >= 1
        assert report["rounds"] == 12
        assert hashlib.sha256(report_json(report).encode()).hexdigest() == self.SHA256
