"""Each benchmark workload completes a short traced run.

A traced run reads a span for every layer call ``perfbench/tracing.py``
wraps, so it fails when the program stops making one of those calls.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["listing1", "wide", "deep"])
def test_traced_run_is_correct(workload, tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1", "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, run.stderr[-2000:]
