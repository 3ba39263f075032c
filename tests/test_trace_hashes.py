"""Every shipped kernel's short traces match the committed hash manifest.

The check runs ``tools/trace_hashes.py --check`` in a fresh interpreter, so
that BLAS is pinned to one thread before numpy is imported.  Hashes are only
comparable within the environment the manifest records (Python, numpy,
scipy, BLAS, thread count); in another environment a mismatch skips.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_hashes.py"


def test_traces_match_manifest():
    result = subprocess.run(
        [sys.executable, str(TOOL), "--check"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = result.stdout.splitlines()
    differs = [line for line in lines if line.startswith("environment differs")]
    if result.returncode == 1 and differs:
        pytest.skip(differs[0])
    mismatched = [line for line in lines if line.startswith("MISMATCH")]
    assert result.returncode == 0, "\n".join(mismatched) or result.stderr
