"""The row-at-a-time cohort beacon builder, kept as a test oracle.

This is how :class:`~repro.cohorts.engine.CohortEngine` built a beacon
before it computed every ending row's metrics as array passes: numpy
scalars pulled out one row at a time, ``engagement_vec`` and
``satisfaction_from_plt_array`` called on one value.  It reads the same
generation state and performs the same floating-point operations, so
``tests/cohorts/test_beacon_oracle.py`` asserts that the engine's
records equal its records with ``==``.  It is not used by ``src/``.
"""

from __future__ import annotations

from repro.cohorts.specs import VIDEO
from repro.cohorts.vecsteps import engagement_vec
from repro.telemetry.records import SessionRecord
from repro.web.qoe import satisfaction_from_plt_array


def scalar_beacon(engine, row: int, now: float, abandoned: bool) -> SessionRecord:
    """The beacon of generation ``row`` of ``engine`` at time ``now``."""
    g = engine._g
    spec = engine.specs[int(engine._cohort[row])]
    if spec.kind == VIDEO:
        play = float(g["play_s"][row])
        rebuffer = float(g["rebuffer_s"][row])
        denominator = play + rebuffer
        joined = bool(g["started"][row])
        if denominator > 0:
            buffering_ratio = rebuffer / denominator
        else:
            buffering_ratio = 0.0 if joined else 1.0
        mean_bitrate = float(g["bitrate_play_s"][row]) / play if play > 0 else 0.0
        join_time = float(g["join_time_s"][row]) if joined else -1.0
        engagement = (
            float(
                engagement_vec(
                    buffering_ratio,
                    mean_bitrate,
                    join_time,
                    max_bitrate_mbps=engine.ladder.highest,
                )
            )
            if joined
            else 0.0
        )
        metrics = {
            "buffering_ratio": buffering_ratio,
            "rebuffer_time_s": rebuffer,
            "mean_bitrate_mbps": mean_bitrate,
            "join_time_s": join_time,
            "play_time_s": play,
            "abandoned": 1.0 if abandoned else 0.0,
            "engagement": engagement,
        }
    else:
        plt = max(float(now - g["arrival_t"][row]), 1e-9)
        metrics = {
            "plt_s": plt,
            "total_mbit": float(g["downloaded_mbit"][row]),
            "mean_throughput_mbps": float(g["downloaded_mbit"][row]) / plt,
            "satisfaction": float(satisfaction_from_plt_array([plt])[0]),
        }
    return SessionRecord(time=now, attrs=spec.beacon_attrs(), metrics=metrics)
