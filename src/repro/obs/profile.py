"""The one sanctioned host-clock read.

The simulator's determinism discipline (simlint's ``wallclock`` and
``obs-hotpath`` rules) bans host timers everywhere except this layer.
:func:`wall_clock` is how any layer reads the host's monotonic clock
(the experiment registry, e7's scalability measurements and the
transport layer route through it instead of importing :mod:`time`).

Per-layer wall-time measurement is not done in-process: the repository
benchmark (``perfbench/``, see ``perfbench/README.md``) times every
layer from outside the program through
:attr:`repro.simkernel.kernel.Simulator.default_dispatch_hook`.
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """Monotonic host seconds (``time.perf_counter``).

    Non-``obs`` layers that legitimately need wall time (the experiment
    registry's run timing, e7's scalability measurements) call this
    instead of importing :mod:`time`, keeping the ``obs-hotpath`` lint
    rule's guarantee: every host-timer read is auditable in one layer.
    """
    return time.perf_counter()
