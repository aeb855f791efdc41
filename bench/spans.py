"""Span recorder and the layer wrappers the benchmark installs around bnicolor.

Every wrapper is installed by replacing the attribute in the module that looks
the name up at call time. Names are bound at import: `legal` imports
`choose_point` from `base`, each algorithm module imports `run` from `sim`, and
`experiment` imports `generate`, the algorithm functions and the checkers. A
patch on the defining module alone would miss those calls.

Two sets of wrappers exist:

* `coarse_patches`: only the three boundaries seen from `bnicolor.experiment`
  (generate, the algorithm function, check_*). Their cost is a few clock reads
  per operation, so the end-to-end metrics are measured under them.
* `layer_patches`: the coarse ones plus the simulator, the vertex programs'
  `step`, the polynomial kernels and line-graph construction. These add a
  wrapper call per vertex step and per kernel call; the benchmark reports the
  resulting slow-down as the tracing overhead. With `count_kernels` they
  also count `poly_eval` calls, which costs far more than the rest.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

ALGORITHM_FUNCS = (
    "linial_coloring",
    "defective_color",
    "legal_color",
    "edge_color_direct",
    "edge_color_via_line_graph",
    "edge_color_2delta_minus_1",
    "kuhn_defective_edge",
    "randomized_defective",
    "randomized_color",
    "tradeoff_color",
)
CHECK_FUNCS = ("check_vertex_coloring", "check_edge_coloring")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Recorder:
    """Times nested calls and keeps coarse spans in memory.

    Every timed call adds its duration to the enclosing call's child time, so
    a name's self time is its duration minus the time spent in timed calls
    inside it. Self time is also keyed by phase (setup, run, verify), which is
    set by the outermost wrapper of each phase; the self times of one phase
    add up to that phase's inclusive time.
    """

    def __init__(self, workload: str, keep_spans: bool):
        self.workload = workload
        self.keep_spans = keep_spans
        self.spans: list = []
        self.stack: list = []  # open frames: [start, child seconds, span id]
        self.phase = "op"
        self.op = 0
        self.reset()

    def reset(self):
        """Start the tallies of a new operation."""
        self.op += 1
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)  # (phase, name) -> seconds
        self.counts = Counter()
        self.last_msg_round = 0
        self.last_call = None

    def timed(self, name: str, fn, span: bool = True, phase: str = None):
        rec = self

        def wrapper(*args, **kwargs):
            outer_phase = rec.phase
            if phase is not None:
                rec.phase = phase
            parent = rec.stack[-1][2] if rec.stack else None
            own = span and rec.keep_spans
            sid = len(rec.spans) if own else parent
            if own:
                rec.spans.append(None)  # reserve the id; filled on exit
            frame = [perf_counter(), 0.0, sid]
            rec.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.stack.pop()
                dur = end - frame[0]
                if rec.stack:
                    rec.stack[-1][1] += dur
                rec.incl[name] += dur
                rec.self_time[rec.phase, name] += dur - frame[1]
                rec.counts[name] += 1
                if own:
                    rec.spans[sid] = {
                        "id": sid,
                        "parent": parent,
                        "name": name,
                        "start": frame[0],
                        "end": end,
                        "workload": rec.workload,
                        "op": rec.op,
                    }
                rec.phase = outer_phase

        return wrapper

    def counted(self, name: str, fn):
        rec = self

        def wrapper(*args):
            rec.counts[name] += 1
            return fn(*args)

        return wrapper

    def captured(self, fn):
        """Keep the last call of fn, so that it can be timed again alone."""
        rec = self

        def wrapper(*args, **kwargs):
            rec.last_call = (fn, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _tally(self, round_no, out):
        """Count the messages of one outbox, as `sim.run` delivers them."""
        counts = self.counts
        for msgs in out.values():
            batch = msgs if isinstance(msgs, list) else [msgs]
            if batch:
                counts["sim.messages"] += len(batch)
                counts["sim.bits"] += sum(m.bits for m in batch)
                if round_no > self.last_msg_round:
                    self.last_msg_round = round_no

    def traced_run(self, run):
        """Wrap `sim.run` and every program instance it creates.

        Each instance's `step` is timed under `<program module>.step`, and its
        outbox is tallied (timed as `trace.tally`, so that the counting is not
        charged to the simulator loop's self time).
        """
        rec = self
        timed_run = self.timed("sim.run", run)
        tally = self.timed("trace.tally", self._tally, span=False)

        def wrap_instance(inst):
            step = rec.timed(f"{_short(type(inst).__module__)}.step", inst.step, span=False)

            def traced_step(round_no, inbox):
                out = step(round_no, inbox)
                if out:
                    tally(round_no, out)
                return out

            inst.step = traced_step
            return inst

        def wrapper(g, program, *args, **kwargs):
            report = timed_run(g, lambda ctx: wrap_instance(program(ctx)), *args, **kwargs)
            rec.counts["sim.budget_violations"] += report.extra.get("budget_violations", 0)
            return report

        return wrapper

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, sort_keys=True) + "\n")


@contextmanager
def patched(patches):
    """Set each (module, attribute, value) for the duration of the block."""
    saved = []
    try:
        for module, name, value in patches:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def coarse_patches(rec: Recorder):
    exp = import_module("bnicolor.experiment")
    out = [(exp, "generate", rec.timed("generators.generate", exp.generate, phase="setup"))]
    for name in ALGORITHM_FUNCS:
        fn = getattr(exp, name)
        out.append((exp, name, rec.timed(f"{_short(fn.__module__)}.driver", fn, phase="run")))
    for name in CHECK_FUNCS:
        out.append((exp, name, rec.timed("verify.check", rec.captured(getattr(exp, name)), phase="verify")))
    return out


def layer_patches(rec: Recorder, count_kernels: bool):
    mods = {
        name: import_module(f"bnicolor.{name}")
        for name in ("base", "edgecolor", "extensions", "generators", "legal", "sim")
    }
    sim, base, edgecolor = mods["sim"], mods["base"], mods["edgecolor"]
    build = rec.timed("graph.build_line_graph", sim.build_line_graph)
    run = rec.traced_run(sim.run)
    choose_point = rec.timed("base.choose_point", base.choose_point, span=False)
    out = coarse_patches(rec)
    out += [(mods[m], "build_line_graph", build) for m in ("generators", "edgecolor", "sim")]
    out += [(mods[m], "run", run) for m in ("base", "edgecolor", "extensions", "legal", "sim")]
    out += [(mods[m], "choose_point", choose_point) for m in ("base", "legal")]
    if count_kernels:
        poly_eval = rec.counted("numbers.poly_eval", base.poly_eval)
        out += [(mods[m], "poly_eval", poly_eval) for m in ("base", "edgecolor")]
    out += [
        (sim, "run_on_line_graph", rec.timed("sim.run_on_line_graph", sim.run_on_line_graph)),
        (
            edgecolor,
            "conflict_bitmap",
            rec.timed("edgecolor.conflict_bitmap", edgecolor.conflict_bitmap, span=False),
        ),
    ]
    return out
