"""Package-level checks: the root import stays light and every demo runs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _env():
    path = os.environ.get("PYTHONPATH")
    src = str(REPO / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_package_root_does_not_import_scipy():
    code = "import sys, grflab; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=_env(), cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    assert list(tmp_path.iterdir()) == []  # demos leave nothing in the cwd
