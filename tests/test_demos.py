"""Every demo script runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path, child_env):
    # tmp_path as working directory: demos write files such as scaling_demo.csv there
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, env=child_env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
