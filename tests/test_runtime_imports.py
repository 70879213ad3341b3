"""networkx is a test-only dependency: no world or CLI path imports it.

Routing runs over the topology's own adjacency, so building and running
a flash-crowd world and a cohort world, then importing the CLI, must
leave ``networkx`` out of ``sys.modules``.  The check runs in a fresh
interpreter, since this test process imports networkx itself.
"""

from __future__ import annotations

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

_PROBE = """
import sys
from repro.baselines.modes import Mode
from repro.experiments.exp_e2_flash_crowd import run_mode
from repro.experiments.exp_e18_iot_beacons import run_flood

run_mode(Mode.EONA, seed=0, horizon_s=60.0)
run_flood(seed=0, horizon_s=20.0)
import repro.cli
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_worlds_and_cli_do_not_import_networkx():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
