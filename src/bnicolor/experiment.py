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
from typing import Dict, List, Optional, Tuple

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
from .graph import Graph
from .legal import defective_color, legal_color, linial_coloring
from .params import (
    DefectiveParams,
    LegalParams,
    ParamError,
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


# the JSON types each spec field accepts (a bool is not an int here)
_SPEC_FIELD_TYPES = {
    "generator": (str,),
    "gen_params": (dict,),
    "algorithm": (str,),
    "preset": (str, type(None)),
    "params": (dict,),
    "msg_mode": (str,),
    "repetitions": (int,),
    "seed": (int,),
    "output": (str, type(None)),
}


@dataclass(frozen=True)
class ExperimentSpec:
    generator: str
    gen_params: Dict = field(default_factory=dict)
    algorithm: str = "legal"
    preset: Optional[str] = None
    params: Dict = field(default_factory=dict)
    msg_mode: str = "wide"
    repetitions: int = 1
    seed: int = 0
    output: Optional[str] = None

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ParamError(
                f"unknown algorithm {self.algorithm!r}; known: {', '.join(ALGORITHMS)}"
            )
        if self.msg_mode not in ("wide", "short"):
            raise ParamError(f"msg_mode must be wide or short, got {self.msg_mode!r}")
        if self.repetitions < 1:
            raise ParamError("repetitions must be >= 1")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        extra = set(data) - known
        if extra:
            raise ParamError(f"unknown spec fields: {sorted(extra)}")
        if "generator" not in data:
            raise ParamError("spec field 'generator' is required")
        for name, value in data.items():
            types = _SPEC_FIELD_TYPES[name]
            if isinstance(value, bool) or not isinstance(value, types):
                expected = " or ".join("None" if t is type(None) else t.__name__ for t in types)
                raise ParamError(
                    f"spec field {name!r} must be {expected}, not {type(value).__name__}"
                )
        return cls(**data)


class _ReadParams(dict):
    """An algorithm's parameters, remembering the keys `_param` looked up."""

    def __init__(self, params: Dict):
        super().__init__(params)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _param(spec: ExperimentSpec, key: str, cast, default=None):
    """spec.params[key] (default when absent) through cast. A missing key
    without a default, or a value cast refuses, raises ParamError naming it;
    an int parameter takes integral numbers and strings int() parses, a bool
    parameter only true or false."""
    value = spec.params.get(key, default)
    if value is None:
        raise ParamError(f"{spec.algorithm} needs parameter {key!r}")
    try:
        result = cast(value)
        if cast is int and not (isinstance(value, str) or result == value):
            raise ValueError(value)
        if cast is bool and not isinstance(value, bool):
            raise ValueError(value)
        return result
    except (TypeError, ValueError, ArithmeticError):
        raise ParamError(
            f"{spec.algorithm} parameter {key} must be {cast.__name__}, got {value!r}"
        ) from None


def _c(spec: ExperimentSpec) -> int:
    return _param(spec, "c", int, 2)


def _legal_params_for(spec: ExperimentSpec, delta: int) -> LegalParams:
    """Build LegalParams from a preset name or explicit (b, p, lam, c)."""
    c = _c(spec)
    if spec.preset and spec.preset != "custom":
        eps = _param(spec, "eps", Fraction) if "eps" in spec.params else None
        t = _param(spec, "t", int) if "t" in spec.params else None
        return make_preset(
            spec.preset, c, delta, eps=eps, t=t, strict=_param(spec, "strict", bool, False)
        )
    return LegalParams(*(_param(spec, k, int) for k in ("b", "p", "lam")), c)


# One runner per algorithm: (spec, graph) -> (coloring, report, params_used);
# `run_experiment` reads c from params_used and vartheta from report.extra.
# Each runner calls its algorithm function through this module's globals, so
# a wrapper set on the module attribute sees the call.


def _run_linial(spec: ExperimentSpec, g: Graph):
    col, report = linial_coloring(g)
    return col, report, {}


def _run_defective(spec: ExperimentSpec, g: Graph):
    b, p = _param(spec, "b", int), _param(spec, "p", int)
    dp = DefectiveParams(b, p, _param(spec, "Lambda", int, max(g.delta, 1)), _c(spec))
    col, report = defective_color(g, dp, phi_mode=_param(spec, "phi_mode", str, "fast"))
    return col, report, asdict(dp)


def _run_legal(spec: ExperimentSpec, g: Graph):
    lp = _legal_params_for(spec, max(g.delta, 1))
    col, report = legal_color(g, lp, phi_mode=_param(spec, "phi_mode", str, "fast"))
    return col, report, _params_dict(lp)


def _run_edge_direct(spec: ExperimentSpec, g: Graph):
    lp = _legal_params_for(spec, max(2 * (g.delta - 1), 1))
    col, report = edge_color_direct(
        g,
        lp,
        msg_mode=spec.msg_mode,
        paced=_param(spec, "paced", bool, False),
        budget_factor=_param(spec, "budget_factor", int, 1),
    )
    return col, report, _params_dict(lp)


def _run_edge_line(spec: ExperimentSpec, g: Graph):
    lp = _legal_params_for(spec, max(2 * (g.delta - 1), 1))
    phi_mode = _param(spec, "phi_mode", str, "fast")
    col, report = edge_color_via_line_graph(g, lp, phi_mode=phi_mode)
    return col, report, _params_dict(lp)


def _run_edge_2delta(spec: ExperimentSpec, g: Graph):
    col, report = edge_color_2delta_minus_1(g)
    return col, report, {}


def _run_kuhn_edge(spec: ExperimentSpec, g: Graph):
    p_prime = _param(spec, "p_prime", int)
    col, report = kuhn_defective_edge(g, p_prime)
    return col, report, {"p_prime": p_prime}


def _randomized_params(spec: ExperimentSpec) -> RandomizedParams:
    return RandomizedParams(
        kappa=_param(spec, "kappa", float, 2.0),
        eta=_param(spec, "eta", float, 0.5),
        seed=spec.seed,
    )


def _run_randomized_defective(spec: ExperimentSpec, g: Graph):
    rp = _randomized_params(spec)
    col = randomized_defective(g, rp)
    report = SimReport(0, 0, 0, dict(col.colors))
    return col, report, {"kappa": rp.kappa, "eta": rp.eta}


def _run_randomized(spec: ExperimentSpec, g: Graph):
    rp = _randomized_params(spec)
    col, report = randomized_color(g, rp)
    return col, report, {"kappa": rp.kappa, "eta": rp.eta}


def _run_tradeoff(spec: ExperimentSpec, g: Graph):
    c = _c(spec)
    tp = TradeoffParams(
        g_fn=_param(spec, "g_fn", str, "power:0.5"), eta=_param(spec, "eta", float, 0.25)
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
    """Execute generator -> algorithm -> checker; return the report dict.
    A spec parameter the algorithm never reads raises ParamError."""
    spec.validate()
    g = generate(spec.generator, spec.gen_params, seed=spec.seed)
    params = _ReadParams(spec.params)
    col, report, params_used = RUNNERS[spec.algorithm](dataclasses.replace(spec, params=params), g)
    unread = set(params) - params.read
    if unread:
        raise ParamError(f"unused {spec.algorithm} parameters: {sorted(unread, key=str)}")
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
    spec.validate()
    reports = []
    for i in range(spec.repetitions):
        sub = dataclasses.replace(spec, repetitions=1, seed=spec.seed + i)
        reports.append(run_experiment(sub))
    return reports


def _set_nested(d: Dict, key: str, value):
    """Set gen_params['d'] = 32 from the dotted key 'gen_params.d'."""
    parts = key.split(".")
    for part in parts[:-1]:
        d = d.setdefault(part, {})
    d[parts[-1]] = value


def sweep_reports(
    spec: ExperimentSpec, key: str, values: List
) -> List[Tuple[object, Dict]]:
    """Run the spec once per sweep value; `key` is dotted (gen_params.d)."""
    out = []
    for value in values:
        data = spec.to_dict()
        _set_nested(data, key, value)
        point = ExperimentSpec.from_dict(data)
        out.append((value, run_experiment(point)))
    return out


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
