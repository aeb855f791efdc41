"""The core suite under `python -O`, which strips `assert` statements.

Every guarantee the library relies on must be an explicit check, so the base,
CLI, coloring, edge-coloring, experiment, extensions, generator, graph, legal,
numbers, params, simulator and verify tests must pass with optimization on as
well. pytest still checks the tests' own asserts
there, because it rewrites them into explicit raises.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORE = (
    "tests/test_base.py",
    "tests/test_cli.py",
    "tests/test_coloring.py",
    "tests/test_edgecolor.py",
    "tests/test_experiment.py",
    "tests/test_extensions.py",
    "tests/test_generators.py",
    "tests/test_graph.py",
    "tests/test_legal.py",
    "tests/test_numbers.py",
    "tests/test_params.py",
    "tests/test_sim.py",
    "tests/test_verify.py",
)


def test_core_suite_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *CORE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout.splitlines()[-1]
