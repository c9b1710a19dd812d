"""scripts/digest.py runs its battery and prints one sha256."""

import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "digest.py"


def test_prints_one_sha256():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300, check=True
    )
    assert re.fullmatch(r"[0-9a-f]{64}\n", done.stdout)
