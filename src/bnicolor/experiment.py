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

from .base import kuhn_defective_edge, linial_coloring
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
from .legal import defective_color, legal_color
from .params import (
    DefectiveParams,
    LegalParams,
    ParamError,
    make_preset,
    smallest_feasible_thm46_t,
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


def _c(spec: ExperimentSpec) -> int:
    return int(spec.params.get("c", 2))


def _legal_params_for(spec: ExperimentSpec, g: Graph, delta: int) -> LegalParams:
    """Build LegalParams from a preset name or explicit (b, p, lam, c)."""
    p = spec.params
    c = _c(spec)
    if spec.preset and spec.preset != "custom":
        eps = Fraction(p["eps"]) if "eps" in p else None
        t = int(p["t"]) if "t" in p else None
        if spec.preset == "thm46" and t is None:
            t = smallest_feasible_thm46_t(c, delta)
            if t is None:
                raise ParamError(
                    f"no feasible thm46 exponent for c={c}, delta={delta}"
                )
        return make_preset(
            spec.preset, c, delta, eps=eps, t=t, strict=bool(p.get("strict", False))
        )
    try:
        return LegalParams(int(p["b"]), int(p["p"]), int(p["lam"]), c)
    except KeyError as exc:
        raise ParamError(f"custom params need b, p, lam (missing {exc})") from exc


# One runner per algorithm: (spec, graph) -> (coloring, report, vartheta,
# params_used, c). Each runner calls its algorithm function through this
# module's globals, so a wrapper set on the module attribute sees the call.


def _run_linial(spec: ExperimentSpec, g: Graph):
    col, report = linial_coloring(g)
    return col, report, None, {}, None


def _run_defective(spec: ExperimentSpec, g: Graph):
    p, c = spec.params, _c(spec)
    dp = DefectiveParams(int(p["b"]), int(p["p"]), int(p.get("Lambda", max(g.delta, 1))), c)
    col, report = defective_color(g, dp, phi_mode=p.get("phi_mode", "fast"))
    return col, report, None, asdict(dp), c


def _run_legal(spec: ExperimentSpec, g: Graph):
    lp = _legal_params_for(spec, g, max(g.delta, 1))
    col, report = legal_color(g, lp, phi_mode=spec.params.get("phi_mode", "fast"))
    return col, report, report.extra["vartheta"], _params_dict(lp), _c(spec)


def _run_edge_direct(spec: ExperimentSpec, g: Graph):
    p = spec.params
    lp = _legal_params_for(spec, g, max(2 * (g.delta - 1), 1))
    col, report = edge_color_direct(
        g,
        lp,
        msg_mode=spec.msg_mode,
        paced=bool(p.get("paced", False)),
        budget_factor=int(p.get("budget_factor", 1)),
    )
    return col, report, report.extra.get("vartheta"), _params_dict(lp), _c(spec)


def _run_edge_line(spec: ExperimentSpec, g: Graph):
    lp = _legal_params_for(spec, g, max(2 * (g.delta - 1), 1))
    col, report = edge_color_via_line_graph(g, lp, phi_mode=spec.params.get("phi_mode", "fast"))
    return col, report, report.extra.get("vartheta"), _params_dict(lp), _c(spec)


def _run_edge_2delta(spec: ExperimentSpec, g: Graph):
    col, report = edge_color_2delta_minus_1(g)
    return col, report, None, {}, None


def _run_kuhn_edge(spec: ExperimentSpec, g: Graph):
    p_prime = int(spec.params["p_prime"])
    col, report = kuhn_defective_edge(g, p_prime)
    return col, report, None, {"p_prime": p_prime}, None


def _randomized_params(spec: ExperimentSpec) -> RandomizedParams:
    p = spec.params
    return RandomizedParams(
        kappa=float(p.get("kappa", 2.0)), eta=float(p.get("eta", 0.5)), seed=spec.seed
    )


def _run_randomized_defective(spec: ExperimentSpec, g: Graph):
    rp = _randomized_params(spec)
    col = randomized_defective(g, rp)
    report = SimReport(0, 0, 0, dict(col.colors))
    return col, report, None, {"kappa": rp.kappa, "eta": rp.eta}, None


def _run_randomized(spec: ExperimentSpec, g: Graph):
    rp = _randomized_params(spec)
    col, report = randomized_color(g, rp)
    return col, report, None, {"kappa": rp.kappa, "eta": rp.eta}, None


def _run_tradeoff(spec: ExperimentSpec, g: Graph):
    p, c = spec.params, _c(spec)
    tp = TradeoffParams(g_fn=str(p.get("g_fn", "power:0.5")), eta=float(p.get("eta", 0.25)))
    col, report = tradeoff_color(g, tp, c)
    return col, report, None, {"g_fn": tp.g_fn, "eta": tp.eta, "c": c}, c


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
    """Execute generator -> algorithm -> checker; return the report dict."""
    spec.validate()
    g = generate(spec.generator, spec.gen_params, seed=spec.seed)
    col, report, vartheta, params_used, c = RUNNERS[spec.algorithm](spec, g)
    verification = _verify(g, col)
    out = {
        "schema": SCHEMA_VERSION,
        "generator": spec.generator,
        "gen_params": spec.gen_params,
        "n": g.n,
        "m": g.m,
        "delta": g.delta,
        "c": c,
        "algorithm": spec.algorithm,
        "preset": spec.preset,
        "params": params_used,
        "msg_mode": spec.msg_mode,
        "rounds": report.rounds,
        "colors_used": col.colors_used(),
        "vartheta": vartheta,
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
