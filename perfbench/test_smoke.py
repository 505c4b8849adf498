"""Smoke test of the benchmark itself: tiny inputs, every metric reported.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_reports_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--smoke", "--seconds", "0"],
        capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr
