"""What a fresh interpreter loads: warm figure commands must not import scipy.

Each check runs in its own interpreter, since this test session has scipy
loaded already (test_ite_flow imports scipy.linalg).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from grover_ite_lab import bench

REPO_ROOT = Path(__file__).resolve().parent.parent

REPORT_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

WARM_FIGURES = """
import sys
import grover_ite_lab
from grover_ite_lab import cli
for exp in ("fig-a", "fig-b", "fig-c", "fixed-point"):
    code = cli.main(["bench", exp, "--strict", "--out", f"{sys.argv[1]}/{exp}.csv"],
                    standalone_mode=False)
    assert code in (None, 0), (exp, code)
"""

FRESH_FIT = """
from grover_ite_lab.qsp_engine import fit_ite_phases
fit_ite_phases(1.0, 8)
"""


def scipy_modules_after(script: str, tmp_path) -> list[str]:
    """Names of the scipy modules loaded once ``script`` has run in a fresh interpreter."""
    cache = tmp_path / "cache"
    shutil.copytree(REPO_ROOT / ".fit_cache", cache)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    env[bench.CACHE_ENV_VAR] = str(cache)
    done = subprocess.run(
        [sys.executable, "-c", script + REPORT_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_warm_figure_commands_do_not_import_scipy(tmp_path):
    assert scipy_modules_after(WARM_FIGURES, tmp_path) == []
    for exp in ("fig-a", "fig-b", "fig-c", "fixed-point"):
        assert (tmp_path / f"{exp}.csv").stat().st_size > 0


def test_a_fresh_fit_imports_scipy_optimize(tmp_path):
    # positive control: the check above can fail
    assert "scipy.optimize" in scipy_modules_after(FRESH_FIT, tmp_path)
