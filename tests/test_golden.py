"""The benchmark's golden corpus: report hashes of 20 small specs covering
every algorithm, preset and message mode must stay byte-identical. The
benchmark's layer wrappers must also still reach every route."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from bnicolor.experiment import ExperimentSpec, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def test_golden_report_hashes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--check", "golden"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "golden corpus: 20/20 reports match" in proc.stdout


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CUSTOM = {"b": 1, "p": 9, "lam": 12, "c": 2}

# one small spec per route, with the driver span its algorithm function reports
ROUTES = [
    ("legal.driver", dict(generator="random_gnd", gen_params={"n": 30, "d": 8}, algorithm="legal", preset="thm45", params={"c": 2, "eps": "3/4"})),
    ("legal.driver", dict(generator="random_gnd", gen_params={"n": 30, "d": 8}, algorithm="defective", params={"b": 1, "p": 4, "c": 2})),
    ("edgecolor.driver", dict(generator="random_gnd", gen_params={"n": 16, "d": 5}, algorithm="edge_direct", preset="custom", params=CUSTOM, msg_mode="short")),
    ("edgecolor.driver", dict(generator="cycle", gen_params={"n": 12}, algorithm="edge_line", preset="custom", params=CUSTOM)),
    ("edgecolor.driver", dict(generator="random_gnd", gen_params={"n": 20, "d": 5}, algorithm="edge_2delta")),
    ("extensions.driver", dict(generator="random_gnd", gen_params={"n": 200, "d": 24}, algorithm="randomized", seed=4)),
    ("extensions.driver", dict(generator="random_gnd", gen_params={"n": 80, "d": 16}, algorithm="tradeoff", params={"c": 2})),
    ("base.driver", dict(generator="random_gnd", gen_params={"n": 20, "d": 5}, algorithm="kuhn_edge", params={"p_prime": 2})),
]


@pytest.mark.parametrize("driver,fields", ROUTES, ids=[f["algorithm"] for _, f in ROUTES])
def test_layer_patches_reach_every_route(driver, fields):
    spans = _load_spans()
    rec = spans.Recorder("guard", keep_spans=False)
    with spans.patched(spans.layer_patches(rec, count_kernels=True)):
        report = run_experiment(ExperimentSpec(**fields))
    assert not report["verification"]["violated"]
    assert rec.counts[driver] == 1
    assert rec.counts["sim.run"] >= 1
    assert rec.counts["sim.messages"] > 0
