"""Record/replay feeds: round trips, divergence, graceful exhaustion."""

from __future__ import annotations

import json

import pytest

from repro.core.interfaces import GlassUnavailableError
from repro.transport import (
    FrameRecorder,
    LoopbackTransport,
    RecordingTransport,
    RemoteLookingGlass,
    ReplayTransport,
    TransportClosed,
    TransportError,
)


def proxy_for(world, transport, **kwargs):
    return RemoteLookingGlass(transport, owner="isp", kind="i2a", **kwargs)


def record_session(world, path, queries=3):
    """Run some queries through a recording loopback; return the feed path."""
    recorder = RecordingTransport(
        LoopbackTransport(world.service.handle_frame),
        str(path),
        clock=lambda: world.sim.now,
    )
    proxy = proxy_for(world, recorder)
    results = [proxy.query("appp", "congestion") for _ in range(queries)]
    recorder.close()
    return results


class TestRecording:
    def test_feed_holds_one_json_object_per_direction(self, world, tmp_path):
        feed = tmp_path / "session.jsonl"
        record_session(world, feed, queries=2)
        records = [json.loads(line) for line in feed.read_text().splitlines()]
        assert [r["dir"] for r in records] == ["send", "recv", "send", "recv"]
        assert [r["seq"] for r in records] == [1, 1, 2, 2]
        # Frames are embedded as parsed envelopes, not quoted strings.
        assert records[0]["frame"]["type"] == "QueryRequest"
        assert records[1]["frame"]["type"] == "QueryReply"

    def test_recording_is_transparent_to_the_session(self, world, tmp_path):
        results = record_session(world, tmp_path / "f.jsonl", queries=1)
        direct = world.glass.query("appp", "congestion")
        assert results[0].payload == direct.payload

    def test_frame_recorder_tees_the_handler_side(self, world, tmp_path):
        feed = tmp_path / "server.jsonl"
        recorder = FrameRecorder(
            world.service.handle_frame, str(feed),
            clock=lambda: world.sim.now,
        )
        proxy = proxy_for(world, LoopbackTransport(recorder))
        proxy.query("appp", "congestion")
        recorder.close()
        assert recorder.frames_recorded == 1
        records = [json.loads(line) for line in feed.read_text().splitlines()]
        assert [r["dir"] for r in records] == ["send", "recv"]
        assert records[1]["frame"]["type"] == "QueryReply"

    def test_frame_recorder_keeps_a_too_deep_frame_raw(self, world, tmp_path):
        feed = tmp_path / "server.jsonl"
        recorder = FrameRecorder(world.service.handle_frame, str(feed))
        frame = "[" * 100_000
        reply = recorder(frame)
        recorder.close()
        assert json.loads(reply)["type"] == "ErrorReply"
        records = [json.loads(line) for line in feed.read_text().splitlines()]
        assert records[0]["frame"] == frame
        assert records[1]["frame"]["type"] == "ErrorReply"


class TestReplay:
    def test_same_queries_replay_to_the_same_answers(self, world, tmp_path):
        feed = tmp_path / "session.jsonl"
        live = record_session(world, feed, queries=3)
        replay = ReplayTransport(str(feed))
        assert replay.remaining() == 3
        proxy = proxy_for(world, replay)
        replayed = [proxy.query("appp", "congestion") for _ in range(3)]
        assert [r.payload for r in replayed] == [r.payload for r in live]
        assert [r.age_s for r in replayed] == [r.age_s for r in live]
        assert replay.remaining() == 0
        # No server ran: the recorded session served every answer.
        assert world.served == 3

    def test_strict_replay_rejects_a_diverging_query(self, world, tmp_path):
        feed = tmp_path / "session.jsonl"
        record_session(world, feed, queries=1)
        world.glass.register("other", lambda: [])
        proxy = proxy_for(world, ReplayTransport(str(feed), strict=True), retries=0)
        with pytest.raises(GlassUnavailableError, match="divergence"):
            proxy.query("appp", "other")

    def test_lenient_replay_serves_positionally(self, world, tmp_path):
        feed = tmp_path / "session.jsonl"
        record_session(world, feed, queries=1)
        proxy = proxy_for(world, ReplayTransport(str(feed), strict=False))
        result = proxy.query("appp", "anything-goes")
        assert result.query == "congestion"  # the recorded reply, as-is

    def test_exhaustion_degrades_to_glass_unavailable(self, world, tmp_path):
        feed = tmp_path / "session.jsonl"
        record_session(world, feed, queries=1)
        transport = ReplayTransport(str(feed))
        proxy = proxy_for(world, transport, retries=1)
        proxy.query("appp", "congestion")
        with pytest.raises(GlassUnavailableError, match="exhausted"):
            proxy.query("appp", "congestion")
        with pytest.raises(TransportClosed):
            transport.request("x", 1.0)

    def test_malformed_feed_line_names_the_location(self, tmp_path):
        feed = tmp_path / "broken.jsonl"
        feed.write_text('{"dir": "send"}\nnot json\n')
        with pytest.raises(TransportError, match="broken.jsonl:2"):
            ReplayTransport(str(feed))
