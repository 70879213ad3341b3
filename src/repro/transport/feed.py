"""JSONL feed transports: record a live session, replay it offline.

A feed file is one JSON object per line::

    {"dir": "send", "seq": 1, "t": 12.5, "frame": {...envelope...}}
    {"dir": "recv", "seq": 1, "t": 12.5, "frame": {...envelope...}}

``frame`` embeds the parsed ``eona-msg/1`` envelope (not a quoted
string) so feeds stay greppable/jq-able; ``t`` is the recording side's
clock.  :class:`RecordingTransport` tees both directions of any inner
adapter into such a file -- the CI service smoke uploads one as an
artifact.  :class:`ReplayTransport` serves a recorded feed back:
requests are matched against the recorded ``send`` frames in order
(same owner/query sequence required), each answered with the recorded
reply.  A same-seed client replayed against its own feed therefore
reproduces the original session without any server process at all.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

from repro.transport.base import (
    Transport,
    TransportClosed,
    TransportError,
    register_transport,
)
from repro.transport.codec import CodecError, QueryRequest, decode


def _feed_line(direction: str, seq: int, t: float, frame: str) -> str:
    """One feed record; ``frame`` embeds the parsed envelope if it parses.

    A frame that is not JSON, or is nested too deeply to parse or to
    serialize again, is kept as the raw string.
    """
    record = {"dir": direction, "seq": seq, "t": t, "frame": frame}
    try:
        line = json.dumps({**record, "frame": json.loads(frame)}, sort_keys=True)
    except (ValueError, RecursionError):
        line = json.dumps(record, sort_keys=True)
    return line + "\n"


@register_transport("record")
class RecordingTransport(Transport):
    """Tee every frame of ``inner`` into a JSONL feed file.

    Args:
        inner: The adapter actually moving frames.
        path: Feed file to (over)write.
        clock: Timestamp source for the ``t`` field; defaults to 0.0
            (timestamps are provenance, not replay-relevant).
    """

    def __init__(
        self,
        inner: Transport,
        path: str,
        clock: Optional[Callable[[], float]] = None,
    ):
        super().__init__()
        self.inner = inner
        self.path = path
        self.clock = clock or (lambda: 0.0)
        self._file = open(path, "w", encoding="utf-8", buffering=1)
        self._seq = 0
        self.name = f"record+{inner.name or type(inner).__name__}"

    @property
    def in_process(self) -> bool:  # type: ignore[override]
        return self.inner.in_process

    @property
    def pipelined(self) -> bool:  # type: ignore[override]
        return self.inner.pipelined

    def _write(self, direction: str, seq: int, frame: str) -> None:
        if not self._file.closed:
            self._file.write(_feed_line(direction, seq, self.clock(), frame))

    def request(self, frame: str, timeout_s: float) -> str:
        self._seq += 1
        seq = self._seq
        self.frames_sent += 1
        self._write("send", seq, frame)
        reply = self.inner.request(frame, timeout_s)
        self.frames_received += 1
        self._write("recv", seq, reply)
        return reply

    def send_request(
        self, frame: str, on_reply: Callable[[str], None]
    ) -> None:
        self._seq += 1
        seq = self._seq
        self.frames_sent += 1
        self._write("send", seq, frame)

        def tee(reply: str) -> None:
            self.frames_received += 1
            self._write("recv", seq, reply)
            on_reply(reply)

        self.inner.send_request(frame, tee)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
        self.inner.close()


class FrameRecorder:
    """Server-side tee: wrap a frame handler, feed-file both directions.

    The handler-shaped sibling of :class:`RecordingTransport` --
    ``eona serve --record`` wraps
    :meth:`~repro.transport.service.GlassService.handle_frame` with one
    of these, so the serving process itself produces a replayable feed
    (requests as ``send``, its replies as ``recv``).
    """

    def __init__(
        self,
        handler: Callable[[str], str],
        path: str,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.handler = handler
        self.path = path
        self.clock = clock or (lambda: 0.0)
        self._file = open(path, "w", encoding="utf-8", buffering=1)
        self._seq = 0
        self.frames_recorded = 0

    def _write(self, direction: str, seq: int, frame: str) -> None:
        if not self._file.closed:
            self._file.write(_feed_line(direction, seq, self.clock(), frame))

    def __call__(self, frame: str) -> str:
        self._seq += 1
        seq = self._seq
        self._write("send", seq, frame)
        reply = self.handler(frame)
        self._write("recv", seq, reply)
        self.frames_recorded += 1
        return reply

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


@register_transport("replay")
class ReplayTransport(Transport):
    """Serve recorded replies back to a client re-issuing the same queries.

    The feed's ``recv`` records are consumed in order; each request is
    validated against the corresponding recorded ``send`` (same glass
    owner and query name -- ``msg_id`` may differ, correlation is
    positional).  Running past the end of the feed raises
    :class:`TransportClosed`, which the client proxy maps onto its
    glass-unavailable machinery -- a truncated recording degrades
    gracefully instead of crashing the control loop.
    """

    def __init__(self, path: str, strict: bool = True):
        super().__init__()
        self.path = path
        self.strict = strict
        self._sends: List[dict] = []
        self._recvs: List[str] = []
        self._cursor = 0
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as error:
                    raise TransportError(
                        f"{path}:{line_no}: malformed feed line: {error}"
                    ) from None
                frame = record.get("frame")
                frame_text = (
                    frame if isinstance(frame, str)
                    else json.dumps(frame, sort_keys=True)
                )
                if record.get("dir") == "send":
                    self._sends.append(record)
                elif record.get("dir") == "recv":
                    self._recvs.append(frame_text)

    def remaining(self) -> int:
        """Recorded replies not yet served."""
        return len(self._recvs) - self._cursor

    def request(self, frame: str, timeout_s: float) -> str:
        if self._cursor >= len(self._recvs):
            raise TransportClosed(
                f"replay feed {self.path!r} exhausted after "
                f"{self._cursor} replies"
            )
        index = self._cursor
        self._cursor += 1
        self.frames_sent += 1
        if self.strict and index < len(self._sends):
            recorded = self._sends[index].get("frame")
            self._check_matches(frame, recorded, index)
        reply = self._recvs[index]
        self.frames_received += 1
        self._trace("replay", seq=index + 1)
        return reply

    def _check_matches(
        self, frame: str, recorded: object, index: int
    ) -> None:
        try:
            live = decode(frame)
        except CodecError:
            return
        if not isinstance(live, QueryRequest) or not isinstance(recorded, dict):
            return
        body = recorded.get("body")
        if not isinstance(body, dict):
            return
        if (
            body.get("owner") != live.owner
            or body.get("query") != live.query
        ):
            raise TransportError(
                f"replay divergence at frame {index + 1}: live query "
                f"{live.owner}/{live.query} vs recorded "
                f"{body.get('owner')}/{body.get('query')} "
                f"(feed {self.path!r})"
            )

    def close(self) -> None:
        self._cursor = len(self._recvs)
