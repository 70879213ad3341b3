"""TCP transport: asyncio stream server and a synchronous client.

Framing is newline-delimited ``eona-msg/1`` JSON -- one frame per line,
UTF-8 -- over a persistent connection.  This is the only module in the
repository allowed to touch :mod:`asyncio`/:mod:`socket` machinery (the
``transport-io`` simlint rule); everything above it sees the
:class:`~repro.transport.base.Transport` protocol.

The client is deliberately synchronous: ``request()`` drives a private
event loop for exactly one round trip under ``asyncio.wait_for``, so
callers (the governor tick inside a simulated world, the CLI) need no
event loop of their own.  Blocking the caller for the round trip *is*
the latency on this adapter -- TCP serves the wall-clock regime, the
loopback adapter the sim-clock regime.  A timed-out or failed round
trip tears the connection down before raising, so a late reply to an
abandoned request can never be mis-correlated with the next one.

The server couples the asyncio accept loop with a
:class:`~repro.transport.service.SimPacer` tick, so a serving process
advances its simulated world in step with the wall clock between
requests (the shared-clock contract, DESIGN.md §14).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.obs.profile import wall_clock
from repro.transport.base import (
    Transport,
    TransportClosed,
    TransportError,
    TransportTimeout,
    register_transport,
)
from repro.transport.codec import ErrorReply, encode
from repro.transport.service import SimPacer

FrameHandler = Callable[[str], str]

#: Largest accepted frame; a congestion payload is ~300 bytes, trace
#: streaming batches stay well under this.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Largest single socket read of the client: the stream reader's default
#: limit, below glibc's default 128 KiB mmap threshold.
READ_CHUNK_BYTES = 64 * 1024


class TcpGlassServer:
    """Serve a frame handler on a TCP port, pacing a sim between polls.

    Args:
        handler: Frame-level dispatcher
            (:meth:`~repro.transport.service.GlassService.handle_frame`).
        host: Bind address (default loopback).
        port: Bind port; 0 picks a free one (read :attr:`bound_port`
            inside ``on_bound``).
        pacer: Optional :class:`~repro.transport.service.SimPacer`
            ticked between accept-loop polls.
        horizon_s: Sim-time cap for the pacer (the world stops
            advancing there but the server keeps answering).
        run_for_s: Wall-clock lifetime; ``None`` serves until the
            process is interrupted.
        poll_s: Accept-loop tick period (wall seconds).
        on_bound: Callback invoked with the bound port once listening.
    """

    def __init__(
        self,
        handler: FrameHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        pacer: Optional[SimPacer] = None,
        horizon_s: Optional[float] = None,
        run_for_s: Optional[float] = None,
        poll_s: float = 0.02,
        on_bound: Optional[Callable[[int], None]] = None,
    ):
        self.handler = handler
        self.host = host
        self.port = port
        self.pacer = pacer
        self.horizon_s = horizon_s
        self.run_for_s = run_for_s
        self.poll_s = poll_s
        self.on_bound = on_bound
        self.bound_port: Optional[int] = None
        self.connections = 0
        self.frames_served = 0
        self._stop = False

    def stop(self) -> None:
        """Ask the serve loop to exit after the current poll."""
        self._stop = True

    def serve(self) -> None:
        """Run the server until ``run_for_s`` elapses or :meth:`stop`."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        sockets = server.sockets or ()
        self.bound_port = sockets[0].getsockname()[1] if sockets else None
        if self.on_bound is not None and self.bound_port is not None:
            self.on_bound(self.bound_port)
        if self.pacer is not None:
            self.pacer.start()
        started = wall_clock()
        try:
            async with server:
                while not self._stop:
                    if self.pacer is not None:
                        self.pacer.tick(self.horizon_s)
                    if (
                        self.run_for_s is not None
                        and wall_clock() - started >= self.run_for_s
                    ):
                        break
                    await asyncio.sleep(self.poll_s)
        finally:
            server.close()

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line is over MAX_FRAME_BYTES
                    await self._refuse_oversized(reader, writer)
                    break
                if not line:
                    break
                frame = line.decode("utf-8", errors="replace").strip()
                if not frame:
                    continue
                reply = self.handler(frame)
                writer.write(reply.encode("utf-8") + b"\n")
                await writer.drain()
                self.frames_served += 1
        except (ConnectionError, OSError):
            pass  # client went away; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _refuse_oversized(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer an oversized frame with one :class:`ErrorReply`, then EOF.

        The stream has lost its frame boundary, so the connection ends
        here.  Input is read and dropped until the client closes its
        side: closing a socket with unread input resets the connection,
        which could destroy the reply in flight.
        """
        reply = ErrorReply(
            msg_id=0,
            error="CodecError",
            message=f"frame exceeds {MAX_FRAME_BYTES} bytes",
        )
        writer.write(encode(reply).encode("utf-8") + b"\n")
        writer.write_eof()
        await writer.drain()
        while await reader.read(64 * 1024):
            pass


@register_transport("tcp")
class TcpTransport(Transport):
    """Synchronous TCP client over a private asyncio loop.

    Args:
        host: Server address.
        port: Server port.
        connect_timeout_s: Budget for establishing the connection
            (charged within each request's ``timeout_s`` as well).
    """

    in_process = False

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0,
        connect_timeout_s: float = 5.0,
    ):
        super().__init__()
        self.host = host
        self.port = int(port)
        self.connect_timeout_s = connect_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._closed = False
        self.reconnects = 0

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None or self._loop.is_closed():
            self._loop = asyncio.new_event_loop()
        return self._loop

    async def _connect(self) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port, limit=MAX_FRAME_BYTES),
            self.connect_timeout_s,
        )
        # asyncio's socket transport reads into a fresh 256 KiB buffer per
        # recv(), for replies of a few hundred bytes.  In a client process
        # without large imports that cost about two page faults per reply
        # (10,260 vs 3,414 minor faults over 3,000 queries).
        self._writer.transport.max_size = READ_CHUNK_BYTES  # type: ignore[attr-defined]
        self.reconnects += 1

    async def _roundtrip(self, frame: str) -> str:
        await self._connect()
        assert self._writer is not None and self._reader is not None
        self._writer.write(frame.encode("utf-8") + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return line.decode("utf-8").strip()

    def request(self, frame: str, timeout_s: float) -> str:
        if self._closed:
            raise TransportClosed("tcp transport is closed")
        loop = self._ensure_loop()
        self.frames_sent += 1
        self._trace("send", host=self.host, port=self.port)
        try:
            reply = loop.run_until_complete(
                asyncio.wait_for(self._roundtrip(frame), timeout_s)
            )
        except asyncio.TimeoutError:
            # The reply may still be in flight; a fresh connection keeps
            # it from being read as the answer to the *next* request.
            self._drop_connection(loop)
            raise TransportTimeout(
                f"no reply from {self.host}:{self.port} within {timeout_s:g}s"
            ) from None
        except (ConnectionError, OSError) as error:
            self._drop_connection(loop)
            raise TransportError(
                f"tcp {self.host}:{self.port}: {error}"
            ) from None
        self.frames_received += 1
        self._trace("recv", host=self.host, port=self.port)
        return reply

    def _drop_connection(self, loop: asyncio.AbstractEventLoop) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                loop.run_until_complete(writer.wait_closed())
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and not self._loop.is_closed():
            self._drop_connection(self._loop)
            self._loop.close()
        self._loop = None
