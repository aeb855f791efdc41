"""Experiment specs, the runner, and sweep CSV emission.

An ExperimentSpec names a generator, an algorithm, and their parameters; the
runner builds the graph, runs the algorithm, verifies the output, and emits a
versioned JSON report. Every report embeds its own verification — no path
through this module produces an unchecked coloring. Reports are canonical
(sorted keys, fixed separators), so re-running a deterministic spec reproduces
the file byte-for-byte.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, get_args, get_type_hints

from .base import kuhn_defective_edge
from .coloring import EdgeColoring
from .edgecolor import (
    edge_color_2delta_minus_1,
    edge_color_direct,
    edge_color_via_line_graph,
)
from .extensions import (
    RandomizedParams,
    TradeoffParams,
    randomized_color,
    randomized_defective,
    tradeoff_color,
)
from .generators import generate
from .graph import Graph, edge_knowledge, knowledge
from .legal import defective_color, legal_color, linial_coloring
from .params import (
    DefectiveParams,
    LegalParams,
    ParamError,
    ParamReader,
    make_preset,
)
from .sim import SimReport
from .verify import (
    VerificationReport,
    check_edge_coloring,
    check_vertex_coloring,
)

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "sweep_key",
    "sweep_value",
    "n",
    "m",
    "delta",
    "rounds",
    "colors_used",
    "vartheta",
    "measured_defect",
    "max_msg_bits",
    "legal",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment; it checks its own fields when made (a bool is not an
    int), whether from CLI flags, a spec file, a sweep point or `replace`."""

    generator: str
    gen_params: dict = field(default_factory=dict)
    algorithm: str = "legal"
    preset: Optional[str] = None
    params: dict = field(default_factory=dict)
    msg_mode: str = "wide"
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                expected = " or ".join("None" if t is type(None) else t.__name__ for t in types)
                raise ParamError(
                    f"spec field {name!r} must be {expected}, not {type(value).__name__}"
                )
        if self.algorithm not in ALGORITHMS:
            raise ParamError(
                f"unknown algorithm {self.algorithm!r}; known: {', '.join(ALGORITHMS)}"
            )
        if self.msg_mode not in ("wide", "short"):
            raise ParamError(f"msg_mode must be wide or short, got {self.msg_mode!r}")
        if self.repetitions < 1:
            raise ParamError("repetitions must be >= 1")
        clash = sorted({"preset", "msg_mode"} & self.params.keys(), key=str)
        if clash:
            raise ParamError(f"{clash} are spec fields, not {self.algorithm} parameters")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        extra = set(data) - set(_FIELD_TYPES)
        if extra:
            raise ParamError(f"unknown spec fields: {sorted(extra)}")
        if "generator" not in data:
            raise ParamError("spec field 'generator' is required")
        return cls(**data)

    def reader(self) -> ParamReader:
        """The algorithm's params, plus the fields preset and msg_mode when
        set, so that a runner that never reads one refuses it as unread."""
        fields = {"preset": self.preset, "msg_mode": self.msg_mode}
        fields = {k: v for k, v in fields.items() if v != getattr(ExperimentSpec, k)}
        return ParamReader({**self.params, **fields}, self.algorithm)


# each spec field's accepted types: (str,) for str, (str, NoneType) for Optional[str]
_FIELD_TYPES = {
    name: get_args(hint) or (hint,) for name, hint in get_type_hints(ExperimentSpec).items()
}


def _legal_params_for(read: ParamReader, delta: int) -> LegalParams:
    """Build LegalParams from a preset name or explicit (b, p, lam, c)."""
    c = read.take("c", int, 2)
    preset = read.take("preset", str, "custom")
    if preset != "custom":
        eps, t = read.take("eps", Fraction, None), read.take("t", int, None)
        return make_preset(preset, c, delta, eps=eps, t=t, strict=read.take("strict", bool, False))
    return LegalParams(*(read.take(k, int) for k in ("b", "p", "lam")), c)


# One runner per algorithm: (reader, graph, seed) -> (coloring, report,
# params_used), reading its parameters from `ExperimentSpec.reader()`;
# `run_experiment` reads c from params_used and vartheta from report.extra.
# Each runner calls its algorithm function through this module's globals, so
# a wrapper set on the module attribute sees the call.


def _run_linial(read: ParamReader, g: Graph, seed: int):
    col, report = linial_coloring(g)
    return col, report, {}


def _run_defective(read: ParamReader, g: Graph, seed: int):
    b, p = read.take("b", int), read.take("p", int)
    dp = DefectiveParams(b, p, read.take("Lambda", int, knowledge(g).delta), read.take("c", int, 2))
    col, report = defective_color(g, dp, phi_mode=read.take("phi_mode", str, "fast"))
    return col, report, asdict(dp)


def _run_legal(read: ParamReader, g: Graph, seed: int):
    lp = _legal_params_for(read, knowledge(g).delta)
    col, report = legal_color(g, lp, phi_mode=read.take("phi_mode", str, "fast"))
    return col, report, _params_dict(lp)


def _run_edge_direct(read: ParamReader, g: Graph, seed: int):
    lp = _legal_params_for(read, edge_knowledge(g).delta)
    col, report = edge_color_direct(
        g,
        lp,
        msg_mode=read.take("msg_mode", str, "wide"),
        paced=read.take("paced", bool, False),
        budget_factor=read.take("budget_factor", int, 1),
    )
    return col, report, _params_dict(lp)


def _run_edge_line(read: ParamReader, g: Graph, seed: int):
    lp = _legal_params_for(read, edge_knowledge(g).delta)
    col, report = edge_color_via_line_graph(g, lp, phi_mode=read.take("phi_mode", str, "fast"))
    return col, report, _params_dict(lp)


def _run_edge_2delta(read: ParamReader, g: Graph, seed: int):
    col, report = edge_color_2delta_minus_1(g)
    return col, report, {}


def _run_kuhn_edge(read: ParamReader, g: Graph, seed: int):
    p_prime = read.take("p_prime", int)
    col, report = kuhn_defective_edge(g, p_prime)
    return col, report, {"p_prime": p_prime}


def _randomized_params(read: ParamReader, seed: int) -> RandomizedParams:
    return RandomizedParams(
        kappa=read.take("kappa", float, 2.0),
        eta=read.take("eta", float, 0.5),
        seed=seed,
    )


def _run_randomized_defective(read: ParamReader, g: Graph, seed: int):
    rp = _randomized_params(read, seed)
    col = randomized_defective(g, rp)
    report = SimReport(0, 0, 0, dict(col.colors))
    return col, report, {"kappa": rp.kappa, "eta": rp.eta}


def _run_randomized(read: ParamReader, g: Graph, seed: int):
    rp = _randomized_params(read, seed)
    col, report = randomized_color(g, rp)
    return col, report, {"kappa": rp.kappa, "eta": rp.eta}


def _run_tradeoff(read: ParamReader, g: Graph, seed: int):
    c = read.take("c", int, 2)
    tp = TradeoffParams(
        g_fn=read.take("g_fn", str, "power:0.5"), eta=read.take("eta", float, 0.25)
    )
    col, report = tradeoff_color(g, tp, c)
    return col, report, {"g_fn": tp.g_fn, "eta": tp.eta, "c": c}


RUNNERS = {
    "linial": _run_linial,
    "defective": _run_defective,
    "legal": _run_legal,
    "edge_direct": _run_edge_direct,
    "edge_line": _run_edge_line,
    "edge_2delta": _run_edge_2delta,
    "kuhn_edge": _run_kuhn_edge,
    "randomized_defective": _run_randomized_defective,
    "randomized": _run_randomized,
    "tradeoff": _run_tradeoff,
}
ALGORITHMS = tuple(RUNNERS)


def _params_dict(lp: LegalParams) -> Dict:
    return {"b": lp.b, "p": lp.p, "lam": lp.lam, "c": lp.c, "preset": lp.preset}


def _verify(g: Graph, col) -> VerificationReport:
    if isinstance(col, EdgeColoring):
        return check_edge_coloring(g, col)
    return check_vertex_coloring(g, col)


def run_experiment(spec: ExperimentSpec) -> Dict:
    """Execute generator -> algorithm -> checker; return the report dict. A
    parameter, preset or short msg_mode the algorithm never reads raises ParamError."""
    g = generate(spec.generator, spec.gen_params, seed=spec.seed)
    read = spec.reader()
    col, report, params_used = RUNNERS[spec.algorithm](read, g, spec.seed)
    read.done()
    verification = _verify(g, col)
    out = {
        "schema": SCHEMA_VERSION,
        "generator": spec.generator,
        "gen_params": spec.gen_params,
        "n": g.n,
        "m": g.m,
        "delta": g.delta,
        "c": params_used.get("c"),
        "algorithm": spec.algorithm,
        "preset": spec.preset,
        "params": params_used,
        "msg_mode": spec.msg_mode,
        "rounds": report.rounds,
        "colors_used": col.colors_used(),
        "vartheta": report.extra.get("vartheta"),
        "measured_defect": verification.measured_defect,
        "max_msg_bits": report.max_msg_bits,
        "flags": list(report.flags),
        "verification": verification.to_dict(),
        "seed": spec.seed,
    }
    return out


def report_json(report: Dict) -> str:
    """Canonical serialization: stable key order, fixed separators."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run_repetitions(spec: ExperimentSpec) -> List[Dict]:
    """One report per repetition; repetition i runs with seed spec.seed + i."""
    reports = []
    for i in range(spec.repetitions):
        sub = dataclasses.replace(spec, repetitions=1, seed=spec.seed + i)
        reports.append(run_experiment(sub))
    return reports


def _set_nested(d: Dict, key: str, value):
    """Set gen_params['d'] = 32 from the dotted key 'gen_params.d'; a key that
    passes through a value other than an object raises ParamError."""
    *parents, last = key.split(".")
    for part in parents:
        d = d.setdefault(part, {})
        if not isinstance(d, dict):
            raise ParamError(f"sweep key {key!r}: {part} does not hold an object")
    d[last] = value


def sweep_reports(
    spec: ExperimentSpec, key: str, values: List
) -> List[Tuple[object, Dict]]:
    """Run the spec once per sweep value; `key` is dotted (gen_params.d).
    A point of more than one repetition is refused before any point runs."""
    points = []
    for value in values:
        data = spec.to_dict()
        _set_nested(data, key, value)
        point = ExperimentSpec.from_dict(data)
        if point.repetitions != 1:
            raise ParamError(f"a sweep runs each point once, got repetitions {point.repetitions}")
        points.append((value, point))
    return [(value, run_experiment(point)) for value, point in points]


def sweep_csv(points: List[Tuple[object, Dict]], key: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for value, report in points:
        writer.writerow(
            [
                key,
                value,
                report["n"],
                report["m"],
                report["delta"],
                report["rounds"],
                report["colors_used"],
                report["vartheta"] if report["vartheta"] is not None else "",
                report["measured_defect"],
                report["max_msg_bits"],
                int(report["verification"]["legal"]),
            ]
        )
    return buf.getvalue()
