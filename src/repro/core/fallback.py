"""Graceful degradation shared by both EONA control loops (DESIGN.md §10)."""

from __future__ import annotations

from typing import Optional

from repro.core.interfaces import LookingGlass, QueryResult
from repro.core.registry import AccessDeniedError
from repro.obs.trace import TRACER


class GlassFallback:
    """Glass-failure accounting, fallback and damped re-engagement.

    A glass that dies must not take the control loop with it.
    ``glass_error_threshold`` consecutive failures trip a fallback to
    status-quo behavior; ``reengage_ticks`` consecutive good answers
    re-engage EONA, damped so a flapping glass cannot make the
    controller oscillate.  The AppP and the InfP both inherit this
    machine.  Each provides ``self.name`` (the requester of every
    query), calls :meth:`_note_glass_failure` / :meth:`_note_glass_ok`
    at its own granularity, and overrides :meth:`_on_fallback_activate`.

    Args:
        fallback_enabled: Degrade to status-quo behavior when the
            glasses fail repeatedly; ``False`` keeps counting
            ``glass_errors`` but never trips (the E15 rigid ablation).
        glass_error_threshold: Consecutive failures before fallback
            engages.
        reengage_ticks: Consecutive good answers before a recovered
            glass is trusted again.
        stale_tolerance_s: Answers older than this count as failures (a
            frozen glass keeps answering, but lies); ``inf`` trusts any
            age.
    """

    name: str

    def __init__(
        self,
        fallback_enabled: bool,
        glass_error_threshold: int,
        reengage_ticks: int,
        stale_tolerance_s: float,
    ):
        self.fallback_enabled = fallback_enabled
        self.glass_error_threshold = glass_error_threshold
        self.reengage_ticks = reengage_ticks
        self.stale_tolerance_s = stale_tolerance_s
        self.glass_errors = 0
        self.fallback_activations = 0
        self.fallback_reengagements = 0
        self.fallback_active = False
        self._glass_fail_streak = 0
        self._glass_ok_streak = 0

    def _guarded_query(self, glass: LookingGlass, query: str) -> Optional[QueryResult]:
        """Ask ``glass``; ``None`` when it denied, raised or answered stale.

        An access denial is configuration, not a fault, and counts
        nothing.  Any other exception, or an answer older than
        ``stale_tolerance_s``, adds one to ``glass_errors``.  Streaks are
        the caller's to update.
        """
        try:
            result = glass.query(self.name, query)
        except AccessDeniedError:
            return None
        except Exception:
            self.glass_errors += 1
            return None
        if result.age_s > self.stale_tolerance_s:
            self.glass_errors += 1
            return None
        return result

    def _note_glass_failure(self) -> None:
        """One failure; a full streak engages fallback."""
        self._glass_ok_streak = 0
        self._glass_fail_streak += 1
        if (
            self.fallback_enabled
            and not self.fallback_active
            and self._glass_fail_streak >= self.glass_error_threshold
        ):
            self.fallback_active = True
            self.fallback_activations += 1
            self._on_fallback_activate()
            if TRACER.enabled:
                TRACER.emit(
                    "fallback-engage", policy=self.name, errors=self.glass_errors
                )

    def _note_glass_ok(self) -> None:
        """One good answer; in fallback, a full streak re-engages EONA."""
        self._glass_fail_streak = 0
        if not self.fallback_active:
            return
        self._glass_ok_streak += 1
        if self._glass_ok_streak >= self.reengage_ticks:
            self.fallback_active = False
            self._glass_ok_streak = 0
            self.fallback_reengagements += 1
            if TRACER.enabled:
                TRACER.emit("fallback-reengage", policy=self.name)

    def _on_fallback_activate(self) -> None:
        """Drop the state EONA information built, so fallback is status quo."""
