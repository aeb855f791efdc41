"""Timed and traced runs of one benchmark workload, with their checks.

`measure` gives the end-to-end metrics and `measure_traced` the per-layer
ones; each returns the run's operation tallies, the metric values and their
units. README.md in this directory defines every metric.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import REF_SECONDS, reference_seconds
from spans import Recorder, coarse_patches, layer_patches, patched
from workloads import EXACT_METRICS, TRACE_COUNTERS, expected, make_specs, report_digest

OUT = Path(__file__).resolve().parent / "out"

MIN_OPS = 3  # timed operations per input in an untraced run, whatever --seconds says
MIN_TRACED_OPS = 1  # timed traced operations per input in a traced run
TIMES = ("wall_s", "setup_s", "run_s", "verify_s")
VERIFY_REPEATS = 10  # extra check_*() calls per operation; verify_s takes the median

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "rounds",
    "colors_used": "colors",
    "max_msg_bits": "bits",
}

# per-layer metric -> unit; README.md maps each to the end-to-end metric it moves
PER_LAYER = {
    "generators.generate_s": "s",
    "graph.build_line_graph_s": "s",
    "sim.run_s": "s",
    "sim.step_s": "s",
    "sim.loop_self_s": "s",
    "sim.host_accounting_s": "s",
    "sim.vertex_steps": "count",
    "sim.messages": "count",
    "sim.bits": "count",
    "sim.budget_violations": "count",
    "legal.step_s": "s",
    "edgecolor.step_s": "s",
    "base.choose_point_s": "s",
    "base.choose_point_calls": "count",
    "numbers.poly_eval_calls": "count",
    "edgecolor.conflict_bitmap_s": "s",
    "legal.driver_s": "s",
    "edgecolor.driver_s": "s",
    "extensions.driver_s": "s",
    "verify.check_s": "s",
    "experiment.report_s": "s",
    "sim.loop_self_share": "%",
    "sim.host_accounting_share": "%",
    "legal.step_share": "%",
    "edgecolor.step_share": "%",
    "base.choose_point_share": "%",
    "edgecolor.conflict_bitmap_share": "%",
    "graph.build_line_graph_share": "%",
    "legal.driver_share": "%",
    "edgecolor.driver_share": "%",
    "extensions.driver_share": "%",
    "trace.overhead": "ratio",
}

# Amdahl shares of run_s: self time of each layer inside the algorithm call
SHARES = {
    "sim.loop_self_share": "sim.run",
    "sim.host_accounting_share": "sim.run_on_line_graph",
    "legal.step_share": "legal.step",
    "edgecolor.step_share": "edgecolor.step",
    "base.choose_point_share": "base.choose_point",
    "edgecolor.conflict_bitmap_share": "edgecolor.conflict_bitmap",
    "graph.build_line_graph_share": "graph.build_line_graph",
    "legal.driver_share": "legal.driver",
    "edgecolor.driver_share": "edgecolor.driver",
    "extensions.driver_share": "extensions.driver",
}


class Run:
    """Operation tallies of one benchmark run and the values ops must match.

    The run has several inputs (`workloads.INPUTS`); each operation runs one
    of them, and is checked against that input's reference values.
    """

    def __init__(self, workload: str, seed: int):
        self.specs = make_specs(workload, seed)
        recorded = expected(workload, seed)
        self.expected = recorded or [{} for _ in self.specs]
        self.attempted = 0
        self.failed = 0
        self.digests = [e.get("sha256") for e in self.expected]
        self.counters = [{k: e[k] for k in TRACE_COUNTERS if k in e} for e in self.expected]
        self.reports = [None for _ in self.specs]

    def attempt(self, i, op, rec, traced=False):
        """Run and check one operation on input i; return its report, or None if it failed."""
        self.attempted += 1
        gc.collect()
        rec.reset()
        try:
            report, digest = op(self.specs[i])
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = []
        verification = report["verification"]
        if not verification["legal"] or verification["violated"]:
            problems.append(f"verification failed: {verification}")
        want = self.expected[i]
        self.digests[i] = self.digests[i] or digest
        if digest != self.digests[i]:
            problems.append(f"report sha256 {digest} != {self.digests[i]}")
        for key in EXACT_METRICS:
            if key in want and report[key] != want[key]:
                problems.append(f"{key} {report[key]} != recorded {want[key]}")
        if traced:
            # the simulator reports the last round in which a message was sent;
            # the host simulation reports 2T + 2 host rounds for T logical ones
            seen = rec.last_msg_round
            rounds = 2 * seen + 2 if rec.counts["sim.run_on_line_graph"] else seen
            if rounds != report["rounds"]:
                problems.append(f"last message round {seen} does not give rounds {report['rounds']}")
            counters = {k: rec.counts[k] for k in TRACE_COUNTERS}
            self.counters[i] = self.counters[i] or counters
            if counters != self.counters[i]:
                problems.append(f"traced counters {counters} != {self.counters[i]}")
        if problems:
            print(f"op {self.attempted} (input {i}) failed: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        self.reports[i] = report
        return report

    def print_reference(self):
        """One line per input with the values `workloads.WORKLOADS` records."""
        for i, report in enumerate(self.reports):
            if report is not None:
                counters = [self.counters[i].get(k) for k in TRACE_COUNTERS]
                row = [self.digests[i]] + [report[k] for k in EXACT_METRICS] + counters
                print(f"  input {i} ({self.specs[i].seed}): {json.dumps(row)}")

    def sweep(self, seconds, least):
        """Input indices round robin, at least `least` times each and until
        `seconds` have passed."""
        deadline = perf_counter() + seconds
        n = 0
        while n < least * len(self.specs) or perf_counter() < deadline:
            yield n % len(self.specs)
            n += 1


def paired(call):
    """call() between two timings of the reference kernel.

    Returns its result and the factor that turns seconds measured during the
    call into reference seconds (reference.py).
    """
    before = reference_seconds()
    result = call()
    return result, 2 * REF_SECONDS / (before + reference_seconds())


def seconds_of(call):
    start = perf_counter()
    call()
    return perf_counter() - start


def phase_times(rec):
    """(wall, setup, run, verify) seconds of the operation just recorded."""
    drivers = sum(v for k, v in rec.incl.items() if k.endswith(".driver"))
    return (
        rec.incl["experiment.op"],
        rec.incl["generators.generate"],
        drivers,
        rec.incl["verify.check"],
    )


def layer_metrics(rec):
    """Per-layer metrics of the traced operation just recorded."""
    incl, counts = rec.incl, rec.counts
    run_self = {name: s for (phase, name), s in rec.self_time.items() if phase == "run"}
    run_s = phase_times(rec)[2]
    out = {
        "generators.generate_s": incl["generators.generate"],
        "graph.build_line_graph_s": incl["graph.build_line_graph"],
        "sim.run_s": incl["sim.run"],
        "sim.step_s": sum(v for k, v in incl.items() if k.endswith(".step")),
        # run - step, without the trace's own outbox tally
        "sim.loop_self_s": run_self.get("sim.run", 0.0),
        "sim.host_accounting_s": run_self.get("sim.run_on_line_graph", 0.0),
        "legal.step_s": incl["legal.step"],
        "edgecolor.step_s": incl["edgecolor.step"],
        "base.choose_point_s": incl["base.choose_point"],
        "base.choose_point_calls": counts["base.choose_point"],
        "numbers.poly_eval_calls": counts["numbers.poly_eval"],
        "edgecolor.conflict_bitmap_s": incl["edgecolor.conflict_bitmap"],
        "legal.driver_s": run_self.get("legal.driver", 0.0),
        "edgecolor.driver_s": run_self.get("edgecolor.driver", 0.0),
        "extensions.driver_s": run_self.get("extensions.driver", 0.0),
        "verify.check_s": incl["verify.check"],
        "experiment.report_s": rec.self_time["op", "experiment.op"],
    }
    out["sim.vertex_steps"] = sum(v for k, v in counts.items() if k.endswith(".step"))
    for key in ("sim.messages", "sim.bits", "sim.budget_violations"):
        out[key] = counts[key]
    # self seconds for now; `measure_traced` turns them into shares of run_s
    for key, name in SHARES.items():
        out[key] = run_self.get(name, 0.0)
    out["run_s"] = run_s
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def per_input(samples):
    """Sum over the run's inputs of the median of each input's samples."""
    return sum(statistics.median(values) for values in samples if values)


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics.

    Each time is in reference seconds (reference.py): the sum, over the
    run's inputs, of the median of that input's operations.
    """
    run = Run(workload, seed)
    deadline = perf_counter() + seconds
    reference_seconds()  # warm-up
    samples = {key: [[] for _ in run.specs] for key in TIMES}
    scales = []
    rec = Recorder(workload, keep_spans=False)
    op = rec.timed("experiment.op", report_digest)

    def timed_op(i):
        """Phase seconds of one operation on input i, or None if it failed."""
        if run.attempt(i, op, rec) is None:
            return None
        times = list(phase_times(rec))
        check, args, kwargs = rec.last_call
        repeats = [seconds_of(lambda: check(*args, **kwargs)) for _ in range(VERIFY_REPEATS)]
        times[3] = statistics.median([times[3]] + repeats)
        return times

    with patched(coarse_patches(rec)):
        for i in run.sweep(deadline - perf_counter(), MIN_OPS):
            times, scale = paired(lambda: timed_op(i))
            scales.append(scale)
            if times is not None:
                for key, value in zip(TIMES, times):
                    samples[key][i].append(value * scale)
    kernel = [REF_SECONDS / scale for scale in scales]  # how loaded the machine was
    print(
        f"workload {workload} seed {seed}: {len(run.specs)} inputs, "
        f"{run.attempted} operations, {run.failed} failed; reference kernel "
        f"median {statistics.median(kernel):.4g} s, quartiles "
        f"{' .. '.join(f'{q:.4g}' for q in _quartiles(kernel))} s"
    )
    run.print_reference()
    metrics = {key: per_input(per) for key, per in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reports = [r for r in run.reports if r is not None]
    for key in EXACT_METRICS:
        metrics[key] = statistics.mean(r[key] for r in reports) if reports else 0
    return run, metrics, END_TO_END


def measure_traced(workload, seed, seconds):
    """Per-layer metrics: one untraced operation per input, one that counts
    kernel calls, then timed traced ones.

    Counting `poly_eval` wraps millions of calls and about doubles
    `choose_point`'s time, so the timed operations leave it out and the count
    comes from the counting operations alone. Times are in reference seconds,
    summed over the inputs of each input's median; counts are sums over the
    inputs.
    """
    run = Run(workload, seed)
    deadline = perf_counter() + seconds
    reference_seconds()  # warm-up
    k = len(run.specs)
    plain = Recorder(workload, keep_spans=False)
    untraced_run_s = 0.0
    untimed_op = plain.timed("experiment.op", report_digest)
    with patched(coarse_patches(plain)):
        for i in range(k):
            report, scale = paired(lambda: run.attempt(i, untimed_op, plain))
            if report is not None:
                untraced_run_s += phase_times(plain)[2] * scale
    counting = Recorder(workload, keep_spans=False)
    poly_eval_calls = 0
    with patched(layer_patches(counting, count_kernels=True)):
        for i in range(k):
            run.attempt(i, counting.timed("experiment.op", report_digest), counting, traced=True)
            poly_eval_calls += counting.counts["numbers.poly_eval"]
    rec = Recorder(workload, keep_spans=True)
    op = rec.timed("experiment.op", report_digest)
    per_op = [[] for _ in range(k)]
    with patched(layer_patches(rec, count_kernels=False)):
        for i in run.sweep(deadline - perf_counter(), MIN_TRACED_OPS):
            report, scale = paired(lambda: run.attempt(i, op, rec, traced=True))
            if report is not None:
                values = layer_metrics(rec)
                per_op[i].append(
                    {key: v if PER_LAYER.get(key) == "count" else v * scale for key, v in values.items()}
                )
    out = OUT / f"spans-{workload}-seed{seed}.jsonl"
    rec.write_spans(out)
    print(
        f"workload {workload} seed {seed} traced: {sum(map(len, per_op))} timed operations "
        f"on {k} inputs, spans in {out}"
    )
    run.print_reference()
    measured = [ops for ops in per_op if ops]

    def total(key, unit):
        # counts are exact and repeat from one operation to the next
        estimate = (lambda values: values[0]) if unit == "count" else statistics.median
        return sum(estimate([m[key] for m in ops]) for ops in measured)

    metrics = {key: total(key, unit) for key, unit in PER_LAYER.items() if key != "trace.overhead"}
    traced_run_s = total("run_s", "s")
    for key in SHARES:
        metrics[key] = 100.0 * metrics[key] / traced_run_s if traced_run_s else 0
    metrics["numbers.poly_eval_calls"] = poly_eval_calls
    metrics["trace.overhead"] = traced_run_s / untraced_run_s if untraced_run_s else 0
    for key in ("sim.run_s", "sim.step_s", "sim.loop_self_s", "base.choose_point_s", "trace.overhead"):
        print(f"  {key:28s} {metrics[key]:.6g}")
    return run, metrics, PER_LAYER
