"""The sampler path loads no scipy module; only the probit models need it.

Each check runs in a fresh interpreter, so that modules the test session
already imported do not hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"


def loaded_modules(code: str) -> list[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_scipy_modules(code: str) -> list[str]:
    return [m for m in loaded_modules(code) if m.split(".")[0] == "scipy"]


def test_importing_the_package_and_cli_loads_no_scipy():
    assert loaded_scipy_modules("import hughop, hughop.cli") == []


def test_importing_the_package_loads_numpy_fft():
    # numpy loads numpy.fft on first use; ess needs it, so the load belongs
    # to import, not to the first ess call of a run
    assert "numpy.fft" in loaded_modules("import hughop")


def test_hughop_run_loads_no_scipy(tmp_path):
    config = {
        "target": {"target": "lg", "a": 5.0, "scales": "U", "dim": 5},
        "kernels": [{"kernel": "hug", "T": 1.0, "B": 5}, {"kernel": "hop", "lambda": 2.0}],
        "iterations": 300,
        "burn_in": 50,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    code = f"from hughop.cli import main\nassert main({argv!r}) == 0"
    assert loaded_scipy_modules(code) == []
    assert (tmp_path / "out" / "trace.csv").exists()


def test_model_runs_loads_scipy_special_at_import():
    # the probit models' cost stays in set-up, not in the first model call
    assert "scipy.special" in loaded_scipy_modules("import hughop.model_runs")
