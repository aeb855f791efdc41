"""Command-line harness: generate graphs, run experiments, verify colorings.

Subcommands:
  gen     write a generated graph in the edge-list format
  run     run one experiment spec and emit its JSON report
  verify  check a coloring file against a graph file (exit 0/1; 2 on bad input)
  bench   sweep one spec parameter and emit a CSV row per point

Each exits 2 with one `bnicolor <command>: ...` line on stderr when a
generator or algorithm parameter is missing or out of range, or when a --spec
file cannot be read or does not hold a JSON object.

Reports land next to stdout unless --out is given; a bare filename is placed
in $BNICOLOR_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from .coloring import parse_edge_coloring, parse_vertex_coloring
from .experiment import (
    ALGORITHMS,
    ExperimentSpec,
    report_json,
    run_repetitions,
    sweep_csv,
    sweep_reports,
)
from .generators import KINDS, generate
from .graph import GraphError, format_edge_list, parse_edge_list
from .params import ParamError
from .verify import check_edge_coloring, check_vertex_coloring

OUT_DIR_ENV = "BNICOLOR_OUT_DIR"


def _out_path(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(name) and os.sep not in name:
        return os.path.join(base, name)
    return name


def _emit(text: str, out: Optional[str]):
    path = _out_path(out)
    if path is None:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _parse_value(raw: str):
    """JSON literal when possible, bare string otherwise (d=32, prob=0.5)."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _kv_pairs(items: List[str]) -> Dict:
    out: Dict = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise SystemExit(f"expected key=value, got {item!r}")
        out[key] = _parse_value(raw)
    return out


def _spec_from_args(args) -> ExperimentSpec:
    if args.spec:
        try:
            with open(args.spec) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParamError(f"cannot read spec {args.spec}: {exc}") from None
        if not isinstance(data, dict):
            raise ParamError(f"spec {args.spec} must hold a JSON object, not {type(data).__name__}")
        return ExperimentSpec.from_dict(data)
    if not args.generator:
        raise SystemExit("either --spec or --generator is required")
    return ExperimentSpec(
        generator=args.generator,
        gen_params=_kv_pairs(args.gen_param),
        algorithm=args.algorithm,
        preset=args.preset,
        params=_kv_pairs(args.param),
        msg_mode=args.msg_mode,
        repetitions=args.repetitions,
        seed=args.seed,
    )


def _add_spec_args(sub):
    sub.add_argument("--spec", help="JSON experiment spec file")
    sub.add_argument("--generator", choices=KINDS, help="generator kind")
    sub.add_argument(
        "--gen-param", action="append", default=[], metavar="K=V",
        help="generator parameter (repeatable), e.g. n=256 d=16",
    )
    sub.add_argument("--algorithm", choices=ALGORITHMS, default="legal")
    sub.add_argument("--preset", default=None, help="parameter preset name")
    sub.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="algorithm parameter (repeatable), e.g. c=2 eps=3/4 b=2",
    )
    sub.add_argument("--msg-mode", choices=("wide", "short"), default="wide")
    sub.add_argument("--repetitions", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def cmd_gen(args) -> int:
    g = generate(args.kind, _kv_pairs(args.gen_param), seed=args.seed)
    _emit(format_edge_list(g), args.out)
    return 0


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    reports = run_repetitions(spec)
    if len(reports) == 1:
        text = report_json(reports[0])
    else:
        text = json.dumps(reports, sort_keys=True, indent=2) + "\n"
    _emit(text, args.out if args.out is not None else spec.output)
    bad = [r for r in reports if r["verification"]["violated"]]
    if bad:
        print(
            f"verification failed on {len(bad)}/{len(reports)} runs: "
            f"{bad[0]['verification']['violated'][:3]}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.graph) as fh:
            g = parse_edge_list(fh.read())
        with open(args.coloring) as fh:
            text = fh.read()
        if args.kind == "edge":
            report = check_edge_coloring(g, parse_edge_coloring(g, text))
        else:
            report = check_vertex_coloring(g, parse_vertex_coloring(text))
    except (OSError, ValueError) as exc:
        print(f"bnicolor verify: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    spec = _spec_from_args(args)
    key, sep, raw = args.sweep.partition("=")
    if not sep:
        raise SystemExit("--sweep needs key=v1,v2,... (dotted keys allowed)")
    values = [_parse_value(v) for v in raw.split(",") if v]
    if not values:
        raise SystemExit("--sweep needs at least one value")
    points = sweep_reports(spec, key, values)
    _emit(sweep_csv(points, key), args.out)
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
        for value, report in points:
            name = f"{spec.algorithm}_{key.replace('.', '_')}_{value}.json"
            with open(os.path.join(args.json_dir, name), "w") as fh:
                fh.write(report_json(report))
    bad = [v for v, r in points if r["verification"]["violated"]]
    if bad:
        print(f"verification failed at sweep values {bad}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnicolor",
        description="Distributed coloring experiments on bounded-independence graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a graph as an edge list")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument(
        "--gen-param", action="append", default=[], metavar="K=V",
        help="generator parameter (repeatable)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(fn=cmd_gen)

    runp = subs.add_parser("run", help="run one experiment and emit JSON")
    _add_spec_args(runp)
    runp.set_defaults(fn=cmd_run)

    ver = subs.add_parser("verify", help="verify a coloring file against a graph")
    ver.add_argument("--graph", required=True, help="edge-list graph file")
    ver.add_argument("--coloring", required=True, help="coloring file")
    ver.add_argument("--kind", choices=("vertex", "edge"), default="vertex")
    ver.set_defaults(fn=cmd_verify)

    bench = subs.add_parser("bench", help="sweep one parameter, emit CSV")
    _add_spec_args(bench)
    bench.add_argument(
        "--sweep", required=True, metavar="KEY=V1,V2,...",
        help="dotted spec key and values, e.g. gen_params.d=16,32,64",
    )
    bench.add_argument(
        "--json-dir", default=None, help="also write one JSON report per point"
    )
    bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ParamError) as exc:
        print(f"bnicolor {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
