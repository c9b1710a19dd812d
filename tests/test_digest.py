"""scripts/digest.py runs its battery and prints its pinned sha256.

A change that moves any recorded byte must update DIGEST and say so.
"""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "digest.py"
DIGEST = "4edff24c3d33e71641fc7941ec645418c80425f9aa068131650477f65b15743e"


def test_prints_one_sha256():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300, check=True
    )
    assert done.stdout == DIGEST + "\n"
