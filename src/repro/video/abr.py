"""Adaptive bitrate (ABR) algorithms.

Each algorithm maps the player's observations -- recent chunk
throughputs, buffer level, last bitrate -- to the next chunk's bitrate.
All algorithms respect an external *rate cap*: that cap is the hook
EONA-enhanced AppP logic uses to push players down the ladder when the
I2A interface attributes congestion to the access ISP (Figure 3).
"""

from __future__ import annotations

import abc
import math
import statistics
from dataclasses import dataclass, field
from typing import List, Optional

from repro.video.ladder import BitrateLadder


@dataclass
class AbrContext:
    """Inputs to one ABR decision.

    Attributes:
        ladder: The available encodings.
        buffer_level_s: Current buffered media.
        throughput_samples_mbps: Recent chunk throughputs, oldest first.
        last_bitrate_mbps: Previous chunk's bitrate (``None`` on join).
        rate_cap_mbps: External cap from the AppP control logic
            (``inf`` when no guidance is active).
    """

    ladder: BitrateLadder
    buffer_level_s: float
    throughput_samples_mbps: List[float] = field(default_factory=list)
    last_bitrate_mbps: Optional[float] = None
    rate_cap_mbps: float = math.inf

    def throughput_estimate(self) -> float:
        """Harmonic mean of recent samples (robust to spikes); 0 if none."""
        samples = [s for s in self.throughput_samples_mbps if s > 0]
        if not samples:
            return 0.0
        return harmonic_mean(samples)


def harmonic_mean(samples: List[float]) -> float:
    """``statistics.harmonic_mean`` of positive samples, bit for bit.

    The stdlib adds the rounded reciprocals ``1 / x`` exactly, as
    ``Fraction``s, and rounds ``n / sum`` once.  Each finite reciprocal
    is a float, so its ``as_integer_ratio`` denominator is a power of
    two: the exact sum is an integer over the largest denominator, and
    one int true division (correctly rounded) gives the same float.
    Non-finite reciprocals and a zero sum go to the stdlib itself.
    """
    n = len(samples)
    if n == 1:
        return samples[0]
    ratios = []
    for sample in samples:
        reciprocal = 1 / sample
        if not math.isfinite(reciprocal):
            return statistics.harmonic_mean(samples)
        ratios.append(reciprocal.as_integer_ratio())
    shift = max(denominator for _, denominator in ratios).bit_length() - 1
    total = sum(
        numerator << (shift + 1 - denominator.bit_length())
        for numerator, denominator in ratios
    )
    if not total:
        return statistics.harmonic_mean(samples)
    return (n << shift) / total


class AbrAlgorithm(abc.ABC):
    """Interface every ABR implements."""

    @abc.abstractmethod
    def choose(self, ctx: AbrContext) -> float:
        """Return the bitrate (one of the ladder's rungs) for the next chunk."""

    def _apply_cap(self, bitrate: float, ctx: AbrContext) -> float:
        if math.isfinite(ctx.rate_cap_mbps):
            return min(bitrate, ctx.ladder.highest_at_most(ctx.rate_cap_mbps))
        return bitrate


class RateBasedAbr(AbrAlgorithm):
    """Pick the highest rung below a safety fraction of estimated throughput.

    This is the classic throughput-chasing design whose interaction with
    shared bottlenecks is known to be unstable (the paper cites FESTIVE
    on exactly this point).
    """

    def __init__(self, safety: float = 0.85):
        if not 0 < safety <= 1:
            raise ValueError(f"safety out of range: {safety!r}")
        self.safety = safety

    def choose(self, ctx: AbrContext) -> float:
        estimate = ctx.throughput_estimate()
        if estimate <= 0:
            bitrate = ctx.ladder.lowest
        else:
            bitrate = ctx.ladder.highest_at_most(self.safety * estimate)
        return self._apply_cap(bitrate, ctx)


class BufferBasedAbr(AbrAlgorithm):
    """BBA-style: map buffer occupancy linearly onto the ladder.

    Below the reservoir → lowest rung; above reservoir+cushion → highest
    rung; linear in between.  Throughput is ignored entirely.
    """

    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 15.0):
        if reservoir_s < 0 or cushion_s <= 0:
            raise ValueError("reservoir must be >= 0 and cushion > 0")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def choose(self, ctx: AbrContext) -> float:
        rungs = ctx.ladder.bitrates_mbps
        level = ctx.buffer_level_s
        if level <= self.reservoir_s:
            bitrate = rungs[0]
        elif level >= self.reservoir_s + self.cushion_s:
            bitrate = rungs[-1]
        else:
            fraction = (level - self.reservoir_s) / self.cushion_s
            index = min(len(rungs) - 1, int(fraction * len(rungs)))
            bitrate = rungs[index]
        return self._apply_cap(bitrate, ctx)


class BolaAbr(AbrAlgorithm):
    """BOLA: Lyapunov-drift buffer control (Spiteri et al., INFOCOM'16).

    Each decision maximizes ``(V * utility(rung) + V*gamma - buffer) /
    chunk_size`` over the rungs, where utility is the log of the rung's
    relative size.  Pure buffer feedback like BBA, but with a principled
    utility/size trade-off; included as a post-paper ABR to show the
    substrate generalizes beyond the 2014-era algorithms.

    Args:
        gamma_p: Playback-smoothness weight (seconds); larger values
            favour fewer switches.
        buffer_target_s: Buffer level the control parameter ``V`` is
            tuned for.
    """

    def __init__(self, gamma_p: float = 5.0, buffer_target_s: float = 20.0):
        if gamma_p <= 0 or buffer_target_s <= 0:
            raise ValueError("gamma_p and buffer_target_s must be positive")
        self.gamma_p = gamma_p
        self.buffer_target_s = buffer_target_s

    def choose(self, ctx: AbrContext) -> float:
        rungs = ctx.ladder.bitrates_mbps
        utilities = [math.log(rate / rungs[0]) + 1.0 for rate in rungs]
        # V calibrated so the top rung is chosen at the buffer target.
        v = (self.buffer_target_s - ctx.ladder.chunk_duration_s) / (
            utilities[-1] + self.gamma_p / ctx.ladder.chunk_duration_s
        )
        v = max(v, 1e-9)
        best_rate = rungs[0]
        best_score = -math.inf
        for rate, utility in zip(rungs, utilities):
            size = ctx.ladder.chunk_size_mbit(rate)
            score = (
                v * (utility + self.gamma_p / ctx.ladder.chunk_duration_s)
                - ctx.buffer_level_s
            ) / size
            if score > best_score:
                best_score = score
                best_rate = rate
        return self._apply_cap(best_rate, ctx)


class FestiveAbr(AbrAlgorithm):
    """A FESTIVE-flavoured stabilized ABR.

    Uses the harmonic-mean bandwidth estimate, moves at most one rung
    per decision, and requires ``up_patience`` consecutive decisions
    favouring an upgrade before actually upgrading -- trading bitrate
    for stability, as FESTIVE does.
    """

    def __init__(self, safety: float = 0.85, up_patience: int = 3):
        if not 0 < safety <= 1:
            raise ValueError(f"safety out of range: {safety!r}")
        if up_patience < 1:
            raise ValueError(f"up_patience must be >= 1, got {up_patience!r}")
        self.safety = safety
        self.up_patience = up_patience
        self._up_votes = 0

    def choose(self, ctx: AbrContext) -> float:
        estimate = ctx.throughput_estimate()
        target = (
            ctx.ladder.highest_at_most(self.safety * estimate)
            if estimate > 0
            else ctx.ladder.lowest
        )
        last = ctx.last_bitrate_mbps
        if last is None:
            return self._apply_cap(ctx.ladder.lowest, ctx)
        if target > last:
            self._up_votes += 1
            if self._up_votes >= self.up_patience:
                self._up_votes = 0
                return self._apply_cap(ctx.ladder.step_up(last), ctx)
            return self._apply_cap(last, ctx)
        self._up_votes = 0
        if target < last:
            return self._apply_cap(ctx.ladder.step_down(last), ctx)
        return self._apply_cap(last, ctx)
