"""bnicolor benchmark.

Each workload is a set of ExperimentSpecs of one shape, built from the seed,
each run through `bnicolor.experiment.run_experiment` (generate -> algorithm
-> verify -> canonical report) again and again for the given number of
seconds:

    python3 bench/run.py --workload flood --seed 1 --seconds 28 --trace 0

With `--trace 0` the last line of output is a JSON object with the end-to-end
metrics: seconds per pass over the inputs and its setup/run/verify split, in
reference seconds (reference.py), peak RSS, and the mean simulated rounds,
colors and message bits. With `--trace 1` one untraced pass is followed by
traced operations, and the object holds the per-layer metrics instead; the
spans are written to `bench/out/spans-<workload>-seed<seed>.jsonl`.

Every operation is checked: it fails if it raises, if its coloring does not
verify as legal, or if its report differs from the one recorded for the
default seed (for other seeds, from the run's first report of that input).

    python3 bench/run.py --check golden    # one small spec per algorithm/preset/mode
    python3 bench/run.py --check heldout   # every workload twice on a held-out seed

The library is imported from `src/` next to this directory; the benchmark
exits non-zero without a result if it is not there.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import bnicolor
    except ImportError as exc:
        sys.exit(f"bench: cannot import bnicolor from {SRC}: {exc}")
    if Path(bnicolor.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: bnicolor was imported from {bnicolor.__file__}, not {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", choices=("golden", "heldout"))
    args = parser.parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    if args.check:
        from checks import check_golden, check_heldout

        return check_golden() if args.check == "golden" else check_heldout()
    if args.workload not in WORKLOADS or args.seed is None or not args.seconds or args.seconds <= 0:
        parser.error(
            f"--workload ({', '.join(WORKLOADS)}), --seed and a positive --seconds are required"
        )
    from measure import measure, measure_traced

    measure_fn = measure_traced if args.trace else measure
    run, metrics, units = measure_fn(args.workload, args.seed, args.seconds)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
