"""Deterministic distributed coloring on graphs of bounded neighborhood
independence: a synchronous message-passing simulator, defective/legal vertex
coloring, direct and line-graph edge coloring, randomized and tradeoff
variants, exact verification oracles, and an experiment harness."""

from .base import kuhn_defective_edge, linial_coloring
from .coloring import EdgeColoring, VertexColoring
from .edgecolor import (
    edge_color_2delta_minus_1,
    edge_color_direct,
    edge_color_via_line_graph,
)
from .experiment import ExperimentSpec, run_experiment
from .extensions import (
    RandomizedParams,
    TradeoffParams,
    randomized_color,
    randomized_defective,
    tradeoff_color,
)
from .generators import generate
from .graph import (
    Graph,
    GraphError,
    build_line_graph,
    graph_from_edges,
    neighborhood_independence,
)
from .legal import defective_color, legal_color
from .params import (
    DefectiveParams,
    LegalParams,
    ParamError,
    defect_bound,
    make_preset,
    recursion_schedule,
    vartheta_of_schedule,
)
from .sim import SimReport, VertexProgram, run, run_on_line_graph
from .verify import (
    VerificationReport,
    brute_chromatic_number,
    check_edge_coloring,
    check_vertex_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "DefectiveParams",
    "EdgeColoring",
    "ExperimentSpec",
    "Graph",
    "GraphError",
    "LegalParams",
    "ParamError",
    "RandomizedParams",
    "SimReport",
    "TradeoffParams",
    "VerificationReport",
    "VertexColoring",
    "VertexProgram",
    "brute_chromatic_number",
    "build_line_graph",
    "check_edge_coloring",
    "check_vertex_coloring",
    "defect_bound",
    "defective_color",
    "edge_color_2delta_minus_1",
    "edge_color_direct",
    "edge_color_via_line_graph",
    "generate",
    "graph_from_edges",
    "kuhn_defective_edge",
    "legal_color",
    "linial_coloring",
    "make_preset",
    "neighborhood_independence",
    "randomized_color",
    "randomized_defective",
    "recursion_schedule",
    "run",
    "run_experiment",
    "run_on_line_graph",
    "tradeoff_color",
    "vartheta_of_schedule",
]
