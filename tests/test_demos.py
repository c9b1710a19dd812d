"""Every walkthrough in ``demos/`` runs to completion with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import subplanck

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    # the child imports this tree's package even from a relative PYTHONPATH
    root = str(Path(subplanck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
