"""Run ``eona serve infp`` in this process, optionally traced.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_infp.py --seed 7 --run-for 11 [--trace perfbench/out/server.jsonl]

The InfP plane is started through the CLI's own entry point
(``repro.cli.main(["serve", "infp", …])``) at time scale 1, so its world
advances one simulated second per host second and stays a small share
of the server's CPU.  The CLI prints ``SERVING port=<n>`` once bound and
serves for ``--run-for`` host seconds.  On the way out this shim prints one
``PERFBENCH {json}`` line: the process's peak RSS and, with ``--trace``,
the server-side span totals (``GlassService.handle_frame``,
``SimPacer.tick``, the codec, and the world's layers).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import tracing

#: Simulated horizon of the served world, as in E2/E20.
HORIZON_S = 600.0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-for", type=float, required=True, help="host seconds to serve")
    parser.add_argument("--trace", default=None, help="write spans here (JSON lines)")
    args = parser.parse_args(argv)

    # Loaded before the recorder installs, so names they import are wrapped.
    import repro.cli
    import repro.experiments.service_worlds  # noqa: F401
    import repro.transport  # noqa: F401

    recorder = None
    if args.trace:
        root = Path(__file__).resolve().parent.parent
        recorder = tracing.Recorder(tracing.layer_table(root))
        recorder.install()
    try:
        code = repro.cli.main(
            [
                "serve", "infp",
                "--seed", str(args.seed),
                "--time-scale", "1",
                "--horizon", str(HORIZON_S),
                "--run-for", str(args.run_for),
            ]
        )
    finally:
        if recorder is not None:
            recorder.uninstall()
    report = {
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        recorder.save(Path(args.trace))
        report["trace"] = recorder.totals()
        report["handler_modules"] = recorder.handler_modules
        report["left_installed"] = tracing.installed_wrappers()
    print("PERFBENCH " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
