"""The benchmark's own open-loop HTTP/1.1 load generator.

One asyncio thread drives two keep-alive connections.  Requests are
written at their *due* time whether or not earlier answers have arrived
(HTTP pipelining gives the depth), so a slow server faces a growing queue
instead of a politely waiting client.  Every request is timed from its
due time, and how late the generator itself sent it is kept too.

The module speaks plain HTTP and knows nothing about the program under
test beyond URLs, so the load it offers stays the same when the server's
own load tools change.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import time
from typing import Deque, Dict, List, Optional, Sequence

#: An answer slower than this (seconds) counts as a timeout.
REQUEST_TIMEOUT = 10.0
#: Keep-alive connections of one generator.
CONNECTIONS = 2


class Request:
    """One generated request and, once answered, its outcome."""

    __slots__ = (
        "index", "op", "key", "phase", "raw", "due", "sent", "done",
        "status", "body", "error",
    )

    def __init__(self, index: int, op: str, key, phase: str, raw: bytes):
        self.index = index
        self.op = op
        self.key = key
        self.phase = phase
        self.raw = raw
        self.due = 0.0
        self.sent = 0.0
        self.done: Optional[float] = None
        self.status: Optional[int] = None
        self.body = b""
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        return (self.done - self.due) if self.done is not None else float("inf")

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


def get(path: str, request_id: int) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: bench\r\nX-Bench-Id: {request_id}\r\n\r\n"
    ).encode("latin-1")


def post_json(path: str, body: bytes, request_id: int) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nX-Bench-Id: {request_id}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader):
    """``(status, body)`` of the next response; chunked bodies are joined."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    length, chunked = 0, False
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "transfer-encoding" and "chunked" in value.lower():
            chunked = True
    if not chunked:
        return status, (await reader.readexactly(length) if length else b"")
    parts = []
    while True:
        size = int((await reader.readline()).strip().split(b";")[0], 16)
        if size == 0:
            await reader.readline()
            return status, b"".join(parts)
        parts.append(await reader.readexactly(size))
        await reader.readexactly(2)


class Connection:
    """One pipelined keep-alive connection: write now, match answers FIFO."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.pending: Deque[Request] = collections.deque()
        self.writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None

    async def open(self) -> None:
        reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))

    def send(self, request: Request) -> None:
        self.pending.append(request)
        self.writer.write(request.raw)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                status, body = await read_response(reader)
                now = time.perf_counter()
                request = self.pending.popleft()
                request.status, request.body, request.done = status, body, now
        except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError) as exc:
            self._fail_pending(f"reset: {type(exc).__name__}: {exc}")

    def _fail_pending(self, error: str) -> None:
        now = time.perf_counter()
        while self.pending:
            request = self.pending.popleft()
            request.error, request.done = error, now

    async def close(self, error: str = "reset: connection closed by the client") -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._fail_pending(error)
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class Generator:
    """Open-loop driver over :data:`CONNECTIONS` keep-alive connections."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conns: List[Connection] = []

    async def open(self) -> None:
        self.conns = [Connection(self.host, self.port) for _ in range(CONNECTIONS)]
        for conn in self.conns:
            await conn.open()

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []

    def outstanding(self) -> int:
        return sum(len(conn.pending) for conn in self.conns)

    async def run(self, requests: Sequence[Request], offsets: Sequence[float]) -> Dict[str, float]:
        """Send ``requests[i]`` at ``offsets[i]`` seconds from now; wait for answers.

        Returns the phase's timing facts: its scheduled length, the backlog
        (requests still unanswered) when the last request was due plus one
        latency limit, and how long the answers took to drain.  Requests
        not answered within :data:`REQUEST_TIMEOUT` after the phase fail as
        timeouts; their connections are then re-opened.  No garbage
        collection runs in this process while a phase is sent and answered:
        a collection pauses sends and answer timestamps alike, and the pause
        would be charged to the server.
        """
        gc.disable()
        try:
            return await self._run(requests, offsets)
        finally:
            gc.enable()

    async def _run(self, requests: Sequence[Request], offsets: Sequence[float]) -> Dict[str, float]:
        start = time.perf_counter()
        for i, (request, offset) in enumerate(zip(requests, offsets)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            request.due = due
            request.sent = time.perf_counter()
            self.conns[i % len(self.conns)].send(request)
        end = start + (offsets[-1] if len(offsets) else 0.0)
        await asyncio.sleep(max(end + 0.1 - time.perf_counter(), 0.0))
        backlog = self.outstanding()
        deadline = time.perf_counter() + REQUEST_TIMEOUT
        while self.outstanding() and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        drained = time.perf_counter() - end
        if self.outstanding():
            await self.close()  # fails what is left as timeouts ...
            await self.open()  # ... and gives the next phase clean connections
            for request in requests:
                if request.error and request.error.startswith("reset: connection closed"):
                    request.error = "timeout"
        return {"scheduled_s": end - start, "backlog": backlog, "drain_s": drained}


async def burst(gen: "Generator", requests: Sequence[Request], inflight: int) -> None:
    """Send as fast as answers come back, at most ``inflight`` outstanding (untimed)."""
    for i, request in enumerate(requests):
        while gen.outstanding() >= inflight:
            await asyncio.sleep(0.001)
        request.due = request.sent = time.perf_counter()
        gen.conns[i % len(gen.conns)].send(request)
    deadline = time.perf_counter() + REQUEST_TIMEOUT
    while gen.outstanding() and time.perf_counter() < deadline:
        await asyncio.sleep(0.005)


async def fetch(host: str, port: int, raw: bytes) -> Request:
    """One request on a fresh connection (control calls such as ``/metrics``)."""
    conn = Connection(host, port)
    await conn.open()
    request = Request(-1, "control", None, "control", raw)
    request.due = request.sent = time.perf_counter()
    conn.send(request)
    deadline = time.perf_counter() + REQUEST_TIMEOUT
    while request.done is None and time.perf_counter() < deadline:
        await asyncio.sleep(0.001)
    await conn.close()
    return request
