"""Every script in demos/ runs to exit 0 in a fresh interpreter.

Each demo is copied into a temporary directory first, so the ones that write
files write them there and not into demos/output/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import doubleslit as ds

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(ds.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    if demo.stem == "intensity_profiles":
        assert "none == forgets bitwise: True" in result.stdout.splitlines()
