import importlib
import inspect
import json
import pkgutil

import pytest

import bnicolor
from bnicolor import base, edgecolor, experiment, extensions, legal, sim
from bnicolor.coloring import EdgeColoring, VertexColoring
from bnicolor.experiment import (
    ALGORITHMS,
    CSV_COLUMNS,
    RUNNERS,
    ExperimentSpec,
    _verify,
    report_json,
    run_experiment,
    run_repetitions,
    sweep_csv,
    sweep_reports,
)
from bnicolor.generators import generate, random_gnd
from bnicolor.graph import build_line_graph, neighborhood_independence
from bnicolor.params import ParamError
from bnicolor.sim import SimReport, VertexProgram

from conftest import spread_ids

# the modules whose functions the runners call as routes
ROUTE_MODULES = {m.__name__ for m in (base, edgecolor, extensions, legal)}

REQUIRED_KEYS = {
    "schema",
    "n",
    "m",
    "delta",
    "c",
    "algorithm",
    "preset",
    "params",
    "rounds",
    "colors_used",
    "vartheta",
    "measured_defect",
    "max_msg_bits",
    "verification",
    "seed",
}


class TestSpec:
    def test_roundtrip(self):
        spec = ExperimentSpec("cycle", {"n": 9}, algorithm="edge_2delta", seed=3)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ParamError):
            ExperimentSpec.from_dict({"generator": "path", "frobnicate": 1})

    def test_validate(self):
        with pytest.raises(ParamError):
            ExperimentSpec("path", {"n": 3}, algorithm="quantum").validate()
        with pytest.raises(ParamError):
            ExperimentSpec("path", {"n": 3}, msg_mode="loud").validate()
        with pytest.raises(ParamError):
            ExperimentSpec("path", {"n": 3}, repetitions=0).validate()


class TestRunExperiment:
    def test_trivial_edge_spec(self):
        report = run_experiment(
            ExperimentSpec("path", {"n": 3}, algorithm="edge_2delta")
        )
        assert report["schema"] == 1
        assert REQUIRED_KEYS <= set(report)
        assert report["verification"]["legal"]
        assert report["colors_used"] <= 3

    def test_legal_preset_report(self):
        report = run_experiment(
            ExperimentSpec(
                "random_gnd",
                {"n": 30, "d": 8},
                algorithm="legal",
                preset="thm45",
                params={"c": 2, "eps": "3/4"},
            )
        )
        assert report["vartheta"] is not None
        assert report["colors_used"] <= report["vartheta"]
        assert report["verification"]["legal"]

    def test_defective_claim_checked(self):
        report = run_experiment(
            ExperimentSpec(
                "line_of",
                {"inner": {"kind": "random_gnd", "params": {"n": 18, "d": 5}}},
                algorithm="defective",
                params={"b": 1, "p": 4, "c": 2},
            )
        )
        assert not report["verification"]["violated"]
        assert report["measured_defect"] >= 0

    def test_byte_for_byte_determinism(self):
        spec = ExperimentSpec(
            "random_gnd", {"n": 40, "d": 6}, algorithm="edge_2delta", seed=9
        )
        assert report_json(run_experiment(spec)) == report_json(run_experiment(spec))

    def test_repetitions_advance_seed(self):
        spec = ExperimentSpec(
            "random_gnd", {"n": 30, "d": 5}, algorithm="linial", repetitions=3, seed=2
        )
        reports = run_repetitions(spec)
        assert [r["seed"] for r in reports] == [2, 3, 4]
        assert len({json.dumps(r["verification"]) for r in reports}) >= 1


class TestSweep:
    def test_csv_shape(self):
        spec = ExperimentSpec("random_gnd", {"n": 30}, algorithm="edge_2delta")
        points = sweep_reports(spec, "gen_params.d", [3, 5])
        text = sweep_csv(points, "gen_params.d")
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith("gen_params.d,3,")

    def test_sweep_is_per_point_deterministic(self):
        spec = ExperimentSpec("random_gnd", {"n": 30}, algorithm="linial")
        a = sweep_reports(spec, "gen_params.d", [4])
        b = sweep_reports(spec, "gen_params.d", [4])
        assert report_json(a[0][1]) == report_json(b[0][1])


SPARSE_GRAPHS = {
    "gnd40": lambda: spread_ids(random_gnd(40, 12, seed=1), 1),
    "line": lambda: spread_ids(build_line_graph(random_gnd(16, 5, seed=2)).lg, 2),
    "gnd60": lambda: spread_ids(random_gnd(60, 24, seed=3), 3),
}


class TestSparseIds:
    """Every runner on graphs whose Ids reach 2**40, so that message domains and
    the short-mode bit budget are sized by the Id bound, not by n."""

    @pytest.mark.parametrize("graph", sorted(SPARSE_GRAPHS))
    def test_every_runner_verifies_its_claim(self, graph):
        g = SPARSE_GRAPHS[graph]()
        assert max(g.vertices) == 2**40
        c = neighborhood_independence(g)
        # the edge routes color the line graph of g, whose independence is <= 2
        spec_args = {
            "defective": dict(params={"b": 1, "p": 4, "c": c}),
            "legal": dict(preset="thm45", params={"c": c}),
            "edge_direct": dict(preset="thm45", params={"c": 2}),
            "edge_line": dict(preset="thm45", params={"c": 2}),
            "kuhn_edge": dict(params={"p_prime": 3}),
            "tradeoff": dict(params={"c": c}),
        }
        runs = [(algorithm, "wide") for algorithm in RUNNERS] + [("edge_direct", "short")]
        for algorithm, msg_mode in runs:
            spec = ExperimentSpec(
                "random_gnd",
                algorithm=algorithm,
                msg_mode=msg_mode,
                seed=5,
                **spec_args.get(algorithm, {}),
            )
            col, report, *_ = RUNNERS[algorithm](spec, g)
            verification = _verify(g, col)
            assert verification.ok, (algorithm, msg_mode, verification.violated)


def _program_classes():
    """Every VertexProgram subclass defined in a module of bnicolor."""
    classes = set()
    for info in pkgutil.iter_modules(bnicolor.__path__):
        module = importlib.import_module(f"bnicolor.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, VertexProgram)
                and obj is not VertexProgram
                and obj.__module__ == module.__name__
            ):
                classes.add(obj)
    return classes


def _small_spec(algorithm):
    """One small spec of an algorithm on random_gnd(20, 5)."""
    spec_args = {
        "defective": dict(params={"b": 1, "p": 4, "c": 2}),
        "legal": dict(preset="thm45", params={"c": 2}),
        "edge_direct": dict(preset="thm45", params={"c": 2}),
        "edge_line": dict(preset="thm45", params={"c": 2}),
        "kuhn_edge": dict(params={"p_prime": 2}),
        "tradeoff": dict(params={"c": 2}),
    }
    return ExperimentSpec(
        "random_gnd", {"n": 20, "d": 5}, algorithm=algorithm, **spec_args.get(algorithm, {})
    )


def test_every_program_runs_on_some_route(monkeypatch):
    """A vertex program that no route runs is dead code: one small spec per
    route, with `run` patched wherever it is called, must reach every one."""
    ran = set()
    real_run = sim.run

    def recording_run(g, program, *args, **kwargs):
        ran.add(program)
        return real_run(g, program, *args, **kwargs)

    for module in (base, legal, edgecolor, extensions, sim):
        monkeypatch.setattr(module, "run", recording_run)
    for algorithm in RUNNERS:
        assert not run_experiment(_small_spec(algorithm))["verification"]["violated"], algorithm
    programs = _program_classes()
    assert programs, "no VertexProgram subclass found"
    assert programs <= ran, sorted(p.__name__ for p in programs - ran)


def test_every_simulated_route_returns_coloring_and_report(monkeypatch):
    """Each route function a runner calls returns (coloring, SimReport), the
    one shape every route shares; only `randomized_defective`, which draws its
    colors without a simulation, returns the coloring alone."""
    returned = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            returned.append((fn.__name__, result))
            return result

        return wrapper

    routes = [
        name
        for name, obj in vars(experiment).items()
        if inspect.isfunction(obj) and obj.__module__ in ROUTE_MODULES
    ]
    for name in routes:
        monkeypatch.setattr(experiment, name, recording(getattr(experiment, name)))
    for algorithm in RUNNERS:
        returned.clear()
        RUNNERS[algorithm](_small_spec(algorithm), generate("random_gnd", {"n": 20, "d": 5}))
        assert len(returned) == 1, (algorithm, returned)
        name, result = returned[0]
        if name == "randomized_defective":
            assert isinstance(result, VertexColoring)
            continue
        assert isinstance(result, tuple) and len(result) == 2, (algorithm, type(result))
        col, report = result
        assert isinstance(col, (VertexColoring, EdgeColoring)), (algorithm, type(col))
        assert isinstance(report, SimReport), (algorithm, type(report))
