"""TcpTransport + TcpGlassServer: one process, two endpoints, real sockets."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core.interfaces import GlassUnavailableError
from repro.transport import (
    CONTROL_OWNER,
    RemoteLookingGlass,
    TcpGlassServer,
    TcpTransport,
    TransportClosed,
    drain_trace,
)
from repro.transport.tcp import MAX_FRAME_BYTES, READ_CHUNK_BYTES


@pytest.fixture
def served(world):
    """``world``'s GlassService on a real TCP port, in a daemon thread."""
    bound = threading.Event()
    server = TcpGlassServer(
        world.service.handle_frame, port=0,
        on_bound=lambda port: bound.set(),
    )
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    assert bound.wait(timeout=10.0), "server never bound a port"
    yield server
    server.stop()
    thread.join(timeout=10.0)


def proxy_for(server, owner="isp", kind="i2a", **kwargs):
    transport = TcpTransport(port=server.bound_port)
    kwargs.setdefault("timeout_s", 5.0)
    return RemoteLookingGlass(transport, owner=owner, kind=kind, **kwargs), transport


class TestRoundTrip:
    def test_query_travels_the_socket(self, world, served):
        proxy, transport = proxy_for(served)
        try:
            result = proxy.query("appp", "congestion")
        finally:
            transport.close()
        assert result.payload[0]["scope"] == "access"
        assert world.served == 1
        assert served.connections == 1
        # frames_served increments after the reply is flushed; give the
        # server coroutine a beat to get there.
        deadline = time.monotonic() + 5.0
        while served.frames_served < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert served.frames_served >= 1

    def test_connection_persists_across_requests(self, world, served):
        proxy, transport = proxy_for(served)
        try:
            for _ in range(3):
                proxy.query("appp", "congestion")
        finally:
            transport.close()
        assert transport.reconnects == 1
        assert served.connections == 1

    def test_remote_causes_never_enter_the_local_trace(self, world, served):
        # The real cross-process contract, minus the second interpreter:
        # the TCP adapter declares in_process=False, so the reply's cause
        # must be remapped even though both ends share this test process.
        from repro.obs import spans

        proxy, transport = proxy_for(served)
        try:
            with spans.capture() as events:
                result = proxy.query("appp", "congestion")
        finally:
            transport.close()
        remapped = [
            e for e in events
            if e["kind"] == "i2a-hint" and e.get("via") == "remote-query"
        ]
        assert len(remapped) == 1
        assert result.cause == remapped[0]["cause"]
        assert proxy.stats()["causes_remapped"] == 1


class TestControl:
    def test_ping_and_queries(self, world, served):
        proxy, transport = proxy_for(served, owner=CONTROL_OWNER, kind="")
        try:
            ping = proxy.query(CONTROL_OWNER, "__ping__")
            exported = proxy.query(CONTROL_OWNER, "__queries__")
        finally:
            transport.close()
        assert "t" in ping.payload
        assert exported.payload == [{"owner": "isp", "query": "congestion"}]

    def test_trace_streams_over_the_wire(self, world, served):
        # Generate server-side trace events, then pull them via __trace__.
        from repro.obs.trace import TRACER

        TRACER.enable(capacity=1000)
        proxy, transport = proxy_for(served)
        control, control_transport = proxy_for(served, owner=CONTROL_OWNER, kind="")
        try:
            proxy.query("appp", "congestion")
            events, emitted = drain_trace(control, requester="appp")
        finally:
            transport.close()
            control_transport.close()
        assert emitted >= 1
        assert any(e["kind"] == "i2a-hint" for e in events)


class TestFailure:
    def test_unreachable_port_degrades_to_glass_unavailable(self, world, served):
        served.stop()
        # Pick a port nothing listens on (the ephemeral one, after stop,
        # may linger in TIME_WAIT -- use the discard port instead).
        transport = TcpTransport(port=9, connect_timeout_s=0.5)
        proxy = RemoteLookingGlass(
            transport, owner="isp", kind="i2a", timeout_s=0.5, retries=1,
        )
        try:
            with pytest.raises(GlassUnavailableError, match="2 attempt"):
                proxy.query("appp", "congestion")
        finally:
            transport.close()
        assert proxy.queries_failed == 1

    def test_closed_transport_refuses_requests(self, world, served):
        transport = TcpTransport(port=served.bound_port)
        transport.close()
        with pytest.raises(TransportClosed):
            transport.request("x", 1.0)


class TestLargeFrames:
    def test_reply_longer_than_one_read_arrives_whole(self):
        bound = threading.Event()
        server = TcpGlassServer(
            lambda frame: frame[::-1], port=0, on_bound=lambda port: bound.set()
        )
        thread = threading.Thread(target=server.serve, daemon=True)
        thread.start()
        assert bound.wait(timeout=10.0), "server never bound a port"
        frame = "".join(chr(ord("a") + i % 26) for i in range(5 * READ_CHUNK_BYTES + 17))
        transport = TcpTransport(port=server.bound_port)
        try:
            assert transport.request(frame, 10.0) == frame[::-1]
        finally:
            transport.close()
            server.stop()
            thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestHostileFrames:
    def test_oversized_frame_gets_one_error_reply_then_close(self, world, served):
        address = ("127.0.0.1", served.bound_port)
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(b"[" * (MAX_FRAME_BYTES + 1) + b"\n")
            with sock.makefile("rb") as stream:
                reply = stream.readline()
                assert stream.read() == b""  # then the server hangs up
        parsed = json.loads(reply)
        assert parsed["type"] == "ErrorReply"
        assert parsed["body"]["error"] == "CodecError"
        # The server survives it: a second client is still served.
        proxy, transport = proxy_for(served)
        try:
            result = proxy.query("appp", "congestion")
        finally:
            transport.close()
        assert result.payload[0]["scope"] == "access"
