"""``eona serve infp`` stops cleanly on SIGINT and on SIGTERM.

Both signals must end the server through its shutdown path (feed,
world and tracer closed, the ``served ...`` line printed, exit 0), also
when it was started with SIGINT ignored, as a background job of a
non-interactive shell is.
"""

from __future__ import annotations

import os
import signal
import subprocess

import pytest

from repro.experiments.service_worlds import serve_command

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["int", "term"])
def test_serve_infp_stops_cleanly_on_signal(sig):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    process = subprocess.Popen(
        serve_command(seed=0, port=0, time_scale=1.0, horizon_s=600.0, run_for_s=120.0),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
        preexec_fn=_ignore_sigint,
    )
    try:
        assert process.stdout.readline().startswith("SERVING ")
        process.send_signal(sig)
        out, _ = process.communicate(timeout=15)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0
    assert "served connections=" in out
