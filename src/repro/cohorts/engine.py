"""The fluid-cohort engine: millions of sessions as a few numpy rows.

Scalar sessions (:class:`~repro.video.player.AdaptivePlayer`,
:class:`~repro.web.browser.Browser`) are one Python object plus an
event chain each, which caps populations at laptop scale.  The cohort
engine evolves *generations* instead: all sessions of one cohort that
arrive in the same tick form a single homogeneous numpy row whose
state (buffer level, play time, rebuffer time, bitrate...) advances
with vectorized twins of the scalar step functions
(:mod:`repro.cohorts.vecsteps`).  State is proportional to
``cohorts × (content_duration / dt)`` — independent of the session
count, which only scales the ``count`` weights.

Network coupling: each cohort holds one persistent weighted flow on the
:class:`~repro.network.fluidsim.FluidNetwork` — weight = live session
count, demand = the sum of its sessions' demands — so a cohort of *n*
competes for bandwidth exactly as *n* individual flows would under
weighted max-min fairness.  All per-tick demand/weight changes are
applied through :meth:`FluidNetwork.update_streams`, one allocator
solve per tick.

Telemetry: when a generation finishes (or abandons), the engine emits
one cohort-weighted :class:`~repro.telemetry.records.SessionRecord`
— per-session means, weight = session count — to its beacon sink
(normally :meth:`AppPController.ingest_cohort_beacons` or
:meth:`GroupByAggregator.add` with ``weight=``).  Individual records
never materialize unless a scenario asks for them via
:meth:`CohortEngine.sample_individuals`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy

from repro.cohorts.specs import VIDEO, CohortSpec
from repro.cohorts.vecsteps import buffer_advance_vec, engagement_vec, rung_for_throughput
from repro.network.fluidsim import Transfer
from repro.telemetry.records import SessionRecord
from repro.video.ladder import DEFAULT_LADDER, BitrateLadder
from repro.web.qoe import satisfaction_from_plt_array
from repro.workloads.arrivals import BatchedPoissonArrivals

#: ``(record, sessions)``: one cohort beacon and the head count it stands for.
BeaconSink = Callable[[SessionRecord, float], None]

_FLOAT_COLUMNS = (
    "count",
    "buffer_s",
    "wait_s",
    "join_time_s",
    "play_s",
    "rebuffer_s",
    "rebuffer_events",
    "bitrate_mbps",
    "bitrate_play_s",
    "downloaded_mbit",
    "arrival_t",
)
_BOOL_COLUMNS = ("started", "stalled")

#: Beacon metric keys per cohort kind, in the order a record carries them.
_VIDEO_METRICS = (
    "buffering_ratio",
    "rebuffer_time_s",
    "mean_bitrate_mbps",
    "join_time_s",
    "play_time_s",
    "abandoned",
    "engagement",
)
_WEB_METRICS = ("plt_s", "total_mbit", "mean_throughput_mbps", "satisfaction")


def _per_row(
    names: Tuple[str, ...], columns: Tuple[numpy.ndarray, ...]
) -> Iterator[Dict[str, float]]:
    """Yield one ``{name: value}`` dict of Python floats per row of ``columns``."""
    return (dict(zip(names, values)) for values in zip(*(c.tolist() for c in columns)))


class CohortEngine:
    """Evolve cohorts of sessions as fluid numpy generations.

    Args:
        ctx: A :class:`~repro.core.context.SimContext` (used
            duck-typed: ``ctx.sim``, ``ctx.network``, ``ctx.rng`` — the
            engine deliberately avoids importing the core layer).
        specs: One :class:`CohortSpec` per cohort.
        ladder: Encoding ladder video cohorts adapt over.
        dt_s: Tick length; smaller ticks track the scalar player more
            closely at proportionally more solves.
        beacon_sink: Receives ``(record, sessions)`` per finished
            generation; defaults to counting only.
        until: Stop ticking at this simulated time (``None`` = run
            until externally stopped).
        startup_threshold_s: Buffered media required to join
            (mirrors :class:`~repro.video.buffer.PlaybackBuffer`).
        resume_threshold_s: Buffered media required to resume a stall.
        max_buffer_s: Buffer target; downloads pace to it
            (mirrors :class:`~repro.video.player.AdaptivePlayer`).
        abandon_rebuffer_s: Total stall after which sessions abandon
            (``None`` disables abandonment).
        safety: Rate-based ABR safety fraction.
    """

    def __init__(
        self,
        ctx,
        specs: Sequence[CohortSpec],
        ladder: BitrateLadder = DEFAULT_LADDER,
        dt_s: float = 1.0,
        beacon_sink: Optional[BeaconSink] = None,
        until: Optional[float] = None,
        startup_threshold_s: float = 4.0,
        resume_threshold_s: float = 4.0,
        max_buffer_s: float = 20.0,
        abandon_rebuffer_s: Optional[float] = 120.0,
        safety: float = 0.85,
    ):
        if not specs:
            raise ValueError("need at least one cohort")
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s!r}")
        self.sim = ctx.sim
        self.network = ctx.network
        self.specs: Tuple[CohortSpec, ...] = tuple(specs)
        self.ladder = ladder
        self.dt_s = dt_s
        self.beacon_sink = beacon_sink
        self.until = until
        self.startup_threshold_s = startup_threshold_s
        self.resume_threshold_s = resume_threshold_s
        self.max_buffer_s = max_buffer_s
        self.abandon_rebuffer_s = abandon_rebuffer_s
        self.safety = safety

        n = len(self.specs)
        self._duration = numpy.array([s.content_duration_s for s in self.specs])
        self._device_cap = numpy.array([s.device_cap_mbps for s in self.specs])
        self._burst = numpy.array(
            [min(s.burst_demand_mbps, s.device_cap_mbps) for s in self.specs]
        )
        self._page_mbit = numpy.array([s.page_mbit for s in self.specs])
        self._is_video = numpy.array([s.kind == VIDEO for s in self.specs])
        self._arrivals = BatchedPoissonArrivals(
            [s.arrival_rate_per_s for s in self.specs],
            ctx.rng.generator("cohort-arrivals"),
        )
        self._sample_rng = ctx.rng.generator("cohort-sampling")
        self._streams: List[Optional[Transfer]] = [None] * n
        self._stream_weight = numpy.zeros(n)
        self._stream_demand = numpy.zeros(n)

        # Generation state: one row per (cohort, arrival tick) batch.
        self._cohort = numpy.zeros(0, dtype=numpy.int64)
        self._g: Dict[str, numpy.ndarray] = {
            name: numpy.zeros(0) for name in _FLOAT_COLUMNS
        }
        for name in _BOOL_COLUMNS:
            self._g[name] = numpy.zeros(0, dtype=bool)
        self._paced = numpy.zeros(0, dtype=bool)

        self.counters: Dict[str, int] = {
            "cohort.ticks": 0,
            "cohort.arrivals": 0,
            "cohort.generations_spawned": 0,
            "cohort.completed": 0,
            "cohort.abandoned": 0,
            "cohort.beacons": 0,
            "cohort.stream_updates": 0,
            "cohort.individuals_sampled": 0,
        }
        self.gauges: Dict[str, float] = {
            "cohort.peak_concurrent_sessions": 0.0,
            "cohort.peak_generations": 0.0,
            "cohort.peak_state_bytes": 0.0,
        }
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin ticking (one simulator event per ``dt``)."""
        if self._running:
            raise RuntimeError("cohort engine already started")
        self._running = True
        self._update_streams()
        self.sim.schedule(self.dt_s, self._tick)

    def prefill(self, sessions_per_cohort: Sequence[float]) -> None:
        """Seed steady-state populations before the first tick.

        Each cohort receives its count spread uniformly over playback
        positions (one generation per tick-of-content), as if the
        population had been arriving at a constant rate for one full
        content duration — the steady state a pure arrival process
        would only reach after ``content_duration_s`` of warm-up.
        """
        if self._running:
            raise RuntimeError("prefill before start()")
        if len(sessions_per_cohort) != len(self.specs):
            raise ValueError("need one count per cohort")
        now = self.sim.now
        for index, total in enumerate(sessions_per_cohort):
            if total <= 0:
                continue
            spec = self.specs[index]
            slots = max(1, int(spec.content_duration_s / self.dt_s))
            per_slot = float(total) / slots
            positions = (numpy.arange(slots) + 0.5) * (
                spec.content_duration_s / slots
            )
            rows = self._blank_rows(slots)
            rows["count"][:] = per_slot
            rows["play_s"][:] = positions
            rows["arrival_t"][:] = now - positions
            rows["join_time_s"][:] = self.startup_threshold_s
            rows["buffer_s"][:] = min(self.max_buffer_s, self.startup_threshold_s)
            if spec.kind == VIDEO:
                rows["bitrate_mbps"][:] = self.ladder.lowest
                rows["bitrate_play_s"][:] = self.ladder.lowest * positions
                rows["started"][:] = True
            else:
                rows["downloaded_mbit"][:] = 0.0
                rows["play_s"][:] = 0.0
            self._append(numpy.full(slots, index, dtype=numpy.int64), rows)
            self.counters["cohort.arrivals"] += int(round(float(total)))
            self.counters["cohort.generations_spawned"] += slots

    def attach_appp(self, appp) -> None:
        """Route beacons into an AppP controller's cohort-ingest path."""
        self.beacon_sink = lambda record, sessions: appp.ingest_cohort_beacons(
            [(record, sessions)]
        )

    def attach_aggregator(self, aggregator) -> None:
        """Route beacons straight into a weighted group-by aggregator."""
        self.beacon_sink = lambda record, sessions: aggregator.add(
            record, weight=sessions
        )

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def generations(self) -> int:
        """Live generation rows (the engine's real working-set size)."""
        return int(self._cohort.size)

    @property
    def concurrent_sessions(self) -> float:
        """Sessions currently in flight, across all cohorts."""
        return float(self._g["count"].sum())

    def state_bytes(self) -> int:
        """Exact bytes held in generation + per-cohort arrays."""
        total = self._cohort.nbytes + self._paced.nbytes
        for array in self._g.values():
            total += array.nbytes
        for array in (
            self._duration,
            self._device_cap,
            self._burst,
            self._page_mbit,
            self._is_video,
            self._stream_weight,
            self._stream_demand,
        ):
            total += array.nbytes
        return int(total)

    def cohort_counts(self) -> numpy.ndarray:
        """Live session count per cohort."""
        return numpy.bincount(
            self._cohort, weights=self._g["count"], minlength=len(self.specs)
        )

    def sample_individuals(self, k: int) -> List[SessionRecord]:
        """Materialize ``k`` individual session snapshots, on demand.

        Sessions are drawn proportionally to generation head counts
        (deterministic per the ``cohort-sampling`` stream).  Each
        record carries the generation's current per-session state —
        the only point where a cohort turns back into individuals.
        """
        if k <= 0 or self._cohort.size == 0:
            return []
        weights = self._g["count"]
        probabilities = weights / weights.sum()
        rows = self._sample_rng.choice(self._cohort.size, size=k, p=probabilities)
        records = self._beacons(rows, self.sim.now, numpy.zeros(k, dtype=bool))
        self.counters["cohort.individuals_sampled"] += k
        return records

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        dt = self.dt_s
        now = self.sim.now
        self.counters["cohort.ticks"] += 1
        if self._cohort.size:
            self._advance(dt, now)
            self._retire(now)
        self._spawn_arrivals(dt, now)
        self._update_streams()
        self._update_gauges()
        if self.until is None or now + dt <= self.until + 1e-9:
            self.sim.schedule(dt, self._tick)
        else:
            self._running = False
            self._shutdown_streams()

    def _advance(self, dt: float, now: float) -> None:
        g = self._g
        cohort = self._cohort
        rates = numpy.array(
            [
                stream.rate_mbps if stream is not None else 0.0
                for stream in self._streams
            ]
        )
        # Per-session share of the cohort stream over the last interval:
        # the rate was allocated against the weight set last tick.
        share = numpy.divide(
            rates,
            self._stream_weight,
            out=numpy.zeros_like(rates),
            where=self._stream_weight > 0,
        )
        row_thr = share[cohort]
        # ABR throughput estimate: a scalar player measures each chunk's
        # *burst* throughput, so pacing does not lower its estimate.  A
        # demand-limited cohort flow (allocated everything it asked for)
        # likewise has link headroom: its sessions would burst at up to
        # their burst cap, so that — not the paced share — is the
        # estimate.  A capacity-limited flow's share IS the achievable
        # throughput.
        demand_limited = (self._stream_weight > 0) & (
            rates >= self._stream_demand - 1e-6
        )
        estimate = numpy.where(demand_limited, self._burst, share)[cohort]
        vid = self._is_video[cohort]
        started0 = g["started"].copy()
        stalled0 = g["stalled"].copy()

        # ABR: joined sessions re-select from their current share; pre-join
        # sessions fetch the lowest rung (a scalar player with no samples
        # does exactly this), web rows carry no bitrate.
        chosen = rung_for_throughput(
            self.ladder, estimate, self._device_cap[cohort], self.safety
        )
        g["bitrate_mbps"] = numpy.where(vid & started0, chosen, g["bitrate_mbps"])

        # Fill: seconds of media downloaded this tick, paced to the buffer
        # target (a full buffer only re-fills what playback drains).
        bitrate = g["bitrate_mbps"]
        fill_raw = numpy.divide(
            row_thr * dt,
            bitrate,
            out=numpy.zeros_like(bitrate),
            where=vid & (bitrate > 0),
        )
        drain_allowance = numpy.where(started0 & ~stalled0, dt, 0.0)
        allowance = numpy.maximum(
            self.max_buffer_s - g["buffer_s"], 0.0
        ) + drain_allowance
        fill = numpy.minimum(fill_raw, allowance)
        self._paced = vid & (fill_raw > allowance + 1e-12)
        buffer_before = g["buffer_s"]
        buffer_filled = buffer_before + fill

        # Join: cross the startup threshold, with fractional-tick timing.
        joining = vid & ~started0
        crossed = joining & (buffer_filled >= self.startup_threshold_s)
        frac_join = numpy.divide(
            self.startup_threshold_s - buffer_before,
            fill,
            out=numpy.ones_like(fill),
            where=fill > 0,
        ).clip(0.0, 1.0)
        g["join_time_s"] = numpy.where(
            crossed, g["wait_s"] + frac_join * dt, g["join_time_s"]
        )
        g["wait_s"] = numpy.where(joining & ~crossed, g["wait_s"] + dt, g["wait_s"])

        # Resume: stalled sessions keep filling; crossing the resume
        # threshold ends the stall partway through the tick.
        stalled_rows = vid & started0 & stalled0
        resumed = stalled_rows & (buffer_filled >= self.resume_threshold_s)
        frac_resume = numpy.divide(
            self.resume_threshold_s - buffer_before,
            fill,
            out=numpy.ones_like(fill),
            where=fill > 0,
        ).clip(0.0, 1.0)
        g["rebuffer_s"] = numpy.where(
            stalled_rows,
            g["rebuffer_s"] + numpy.where(resumed, frac_resume * dt, dt),
            g["rebuffer_s"],
        )

        # Drain: the shared step function does the playback accounting.
        playing = vid & started0 & ~stalled0
        elapsed = (
            numpy.where(playing, dt, 0.0)
            + numpy.where(crossed, (1.0 - frac_join) * dt, 0.0)
            + numpy.where(resumed, (1.0 - frac_resume) * dt, 0.0)
        )
        started = started0 | crossed
        stalled_for_drain = stalled0 & ~resumed
        new_buffer, played, waiting, now_stalled = buffer_advance_vec(
            buffer_filled, elapsed, started, stalled_for_drain
        )
        drained = elapsed > 0
        newly_stalled = drained & now_stalled & ~stalled_for_drain
        g["buffer_s"] = new_buffer
        g["play_s"] = g["play_s"] + played
        g["bitrate_play_s"] = g["bitrate_play_s"] + bitrate * played
        g["rebuffer_s"] = g["rebuffer_s"] + numpy.where(drained, waiting, 0.0)
        g["rebuffer_events"] = g["rebuffer_events"] + numpy.where(
            newly_stalled, 1.0, 0.0
        )
        g["started"] = started
        g["stalled"] = now_stalled
        g["downloaded_mbit"] = g["downloaded_mbit"] + numpy.where(
            vid, fill * bitrate, row_thr * dt
        )

    def _retire(self, now: float) -> None:
        g = self._g
        vid = self._is_video[self._cohort]
        done_video = vid & (g["play_s"] >= self._duration[self._cohort] - 1e-9)
        done_web = ~vid & (g["downloaded_mbit"] >= self._page_mbit[self._cohort])
        abandoned = numpy.zeros_like(done_video)
        if self.abandon_rebuffer_s is not None:
            abandoned = vid & ~done_video & (
                g["rebuffer_s"] >= self.abandon_rebuffer_s
            )
        ending = done_video | done_web | abandoned
        if not ending.any():
            return
        rows = numpy.nonzero(ending)[0]
        gave_up = abandoned[rows]
        records = self._beacons(rows, now, gave_up)
        counters = self.counters
        for record, sessions, quit_early in zip(
            records, g["count"][rows].tolist(), gave_up.tolist()
        ):
            counters["cohort.beacons"] += 1
            if quit_early:
                counters["cohort.abandoned"] += int(round(sessions))
            else:
                counters["cohort.completed"] += int(round(sessions))
            if self.beacon_sink is not None:
                self.beacon_sink(record, sessions)
        self._keep(~ending)

    def _spawn_arrivals(self, dt: float, now: float) -> None:
        counts = self._arrivals.counts(dt)
        spawning = counts > 0
        if not spawning.any():
            return
        indices = numpy.nonzero(spawning)[0]
        rows = self._blank_rows(indices.size)
        rows["count"][:] = counts[indices].astype(float)
        # Arrivals landed throughout the elapsed tick: credit the mean
        # half-tick of pre-join waiting instead of quantizing to zero.
        rows["wait_s"][:] = dt / 2.0
        rows["arrival_t"][:] = now - dt / 2.0
        rows["bitrate_mbps"][:] = numpy.where(
            self._is_video[indices], self.ladder.lowest, 0.0
        )
        self._append(indices.astype(numpy.int64), rows)
        self.counters["cohort.arrivals"] += int(counts.sum())
        self.counters["cohort.generations_spawned"] += int(indices.size)

    # ------------------------------------------------------------------
    # network coupling
    # ------------------------------------------------------------------
    def _update_streams(self) -> None:
        counts = self.cohort_counts()
        vid = self._is_video[self._cohort]
        burst = self._burst[self._cohort]
        # A session demands its bitrate once paced (full buffer), its
        # burst cap while filling; web sessions always burst.
        per_row = self._g["count"] * numpy.where(
            vid & self._paced, self._g["bitrate_mbps"], burst
        )
        demand = numpy.bincount(
            self._cohort, weights=per_row, minlength=len(self.specs)
        )
        updates: List[Tuple[Transfer, float, Optional[float]]] = []
        for index, spec in enumerate(self.specs):
            stream = self._streams[index]
            weight = float(counts[index])
            if weight <= 0:
                if stream is not None:
                    self.network.abort(stream)
                    self._streams[index] = None
                    self._stream_weight[index] = 0.0
                continue
            cohort_demand = max(float(demand[index]), 1e-6)
            if stream is None:
                self._streams[index] = self.network.start_stream(
                    spec.src_node,
                    spec.node,
                    demand_mbps=cohort_demand,
                    via=spec.via,
                    owner=f"cohort:{spec.cdn}",
                    weight=weight,
                )
            else:
                updates.append((stream, cohort_demand, weight))
            self._stream_weight[index] = weight
            self._stream_demand[index] = cohort_demand
        if updates:
            self.network.update_streams(updates)
            self.counters["cohort.stream_updates"] += len(updates)

    def _shutdown_streams(self) -> None:
        for index, stream in enumerate(self._streams):
            if stream is not None:
                self.network.abort(stream)
                self._streams[index] = None
                self._stream_weight[index] = 0.0

    # ------------------------------------------------------------------
    # beacons
    # ------------------------------------------------------------------
    def _beacons(
        self, rows: numpy.ndarray, now: float, abandoned: numpy.ndarray
    ) -> List[SessionRecord]:
        """One cohort-weighted beacon per entry of ``rows``, in order.

        ``rows`` indexes the generation arrays (entries may repeat) and
        ``abandoned`` flags each entry.  Every metric is an elementwise
        float64 pass over the rows of one kind, so each value equals the
        one a row-at-a-time computation would give.
        """
        cohorts = self._cohort[rows]
        vid = self._is_video[cohorts]
        video = _per_row(_VIDEO_METRICS, self._video_columns(rows[vid], abandoned[vid]))
        web = _per_row(_WEB_METRICS, self._web_columns(rows[~vid], now))
        specs = self.specs
        return [
            SessionRecord(
                time=now,
                attrs=specs[cohort].beacon_attrs(),
                metrics=next(video) if is_video else next(web),
            )
            for cohort, is_video in zip(cohorts.tolist(), vid.tolist())
        ]

    def _video_columns(
        self, rows: numpy.ndarray, abandoned: numpy.ndarray
    ) -> Tuple[numpy.ndarray, ...]:
        """The :data:`_VIDEO_METRICS` columns of video ``rows``."""
        g = self._g
        play = g["play_s"][rows]
        rebuffer = g["rebuffer_s"][rows]
        joined = g["started"][rows]
        denominator = play + rebuffer
        # No playback and no stall: a joined session buffered nothing, an
        # unjoined one spent its whole life waiting.
        buffering_ratio = numpy.divide(
            rebuffer, denominator, out=numpy.where(joined, 0.0, 1.0), where=denominator > 0
        )
        mean_bitrate = numpy.divide(
            g["bitrate_play_s"][rows], play, out=numpy.zeros_like(play), where=play > 0
        )
        join_time = numpy.where(joined, g["join_time_s"][rows], -1.0)
        engagement = engagement_vec(
            buffering_ratio, mean_bitrate, join_time, max_bitrate_mbps=self.ladder.highest
        )
        return (
            buffering_ratio,
            rebuffer,
            mean_bitrate,
            join_time,
            play,
            numpy.where(abandoned, 1.0, 0.0),
            numpy.where(joined, engagement, 0.0),
        )

    def _web_columns(self, rows: numpy.ndarray, now: float) -> Tuple[numpy.ndarray, ...]:
        """The :data:`_WEB_METRICS` columns of web ``rows``."""
        downloaded = self._g["downloaded_mbit"][rows]
        plt = numpy.maximum(now - self._g["arrival_t"][rows], 1e-9)
        return (plt, downloaded, downloaded / plt, satisfaction_from_plt_array(plt))

    # ------------------------------------------------------------------
    # array plumbing
    # ------------------------------------------------------------------
    def _blank_rows(self, size: int) -> Dict[str, numpy.ndarray]:
        rows: Dict[str, numpy.ndarray] = {
            name: numpy.zeros(size) for name in _FLOAT_COLUMNS
        }
        for name in _BOOL_COLUMNS:
            rows[name] = numpy.zeros(size, dtype=bool)
        rows["join_time_s"][:] = -1.0
        return rows

    def _append(self, cohorts: numpy.ndarray, rows: Dict[str, numpy.ndarray]) -> None:
        self._cohort = numpy.concatenate([self._cohort, cohorts])
        for name, array in self._g.items():
            self._g[name] = numpy.concatenate([array, rows[name]])
        self._paced = numpy.concatenate(
            [self._paced, numpy.zeros(cohorts.size, dtype=bool)]
        )

    def _keep(self, mask: numpy.ndarray) -> None:
        self._cohort = self._cohort[mask]
        for name, array in self._g.items():
            self._g[name] = array[mask]
        self._paced = self._paced[mask]

    def _update_gauges(self) -> None:
        concurrent = self.concurrent_sessions
        gauges = self.gauges
        if concurrent > gauges["cohort.peak_concurrent_sessions"]:
            gauges["cohort.peak_concurrent_sessions"] = concurrent
        if self.generations > gauges["cohort.peak_generations"]:
            gauges["cohort.peak_generations"] = float(self.generations)
        state = float(self.state_bytes())
        if state > gauges["cohort.peak_state_bytes"]:
            gauges["cohort.peak_state_bytes"] = state
