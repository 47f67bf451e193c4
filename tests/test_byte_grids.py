"""The byte-identity grids of `tests/byte_grids.py` keep the digests
recorded in `tests/byte_grids.json`.

The grids run in a fresh interpreter, through the script that prints
their digests, so no state left by another test can change a byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fistab

GRIDS = Path(__file__).with_name("byte_grids.py")


def test_byte_grids_keep_their_digests():
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(GRIDS)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(GRIDS.with_suffix(".json").read_text())
    current = json.loads(proc.stdout)
    changed = sorted(name for name in current.keys() | recorded.keys()
                     if current.get(name) != recorded.get(name))
    assert not changed, (
        f"grids whose bytes changed: {changed}; to name the requests, diff the listings of "
        f"`PYTHONPATH=src python tests/byte_grids.py --requests NAME` in this checkout and in "
        f"one that keeps the recorded digests"
    )
