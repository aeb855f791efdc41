"""The benchmark's golden corpus: report hashes of 20 small specs covering
every algorithm, preset and message mode must stay byte-identical."""

import subprocess
import sys
from pathlib import Path

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
