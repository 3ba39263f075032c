"""The traced benchmark run of every workload exits 0 with ``correct: true``.

``perfbench/tracing.py`` patches hughop's module attributes by name, and its
worker checks the iterations it traced against the fixed workload sizes, so
a change that renames a patched function or changes how many iterations go
through ``run_kernels`` fails here.  Each run is one traced unit, a few
seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["lg25-plain", "lg100-hessian", "models"])
def test_traced_run_is_correct(workload):
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
