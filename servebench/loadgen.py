"""Clients that drive the server: an asyncio open loop over at most two
pipelined connections, a blocking closed-loop connection, a saturating
closed loop over two of them, and a subscriber thread that timestamps
pushed events.

Request payloads are encoded before timing starts; responses are kept as
raw lines and decoded after the timed phase, so the client's own work in
the timed window is a socket write and a line read per request."""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .server import HOST


@dataclass
class Record:
    """One request's timeline (``time.monotonic`` seconds) and raw reply."""

    index: int
    payload: bytes
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    line: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        """From when the request was due (open loop) or sent (closed)."""
        return (self.done - (self.due or self.sent)) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3 if self.due else 0.0


@dataclass
class _Conn:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pending: deque = field(default_factory=deque)


async def _open_loop(port: int, plan: list[tuple[float, bytes]], connections: int,
                     grace: float) -> list[Record]:
    loop = asyncio.get_running_loop()
    conns = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection(HOST, port, limit=1 << 24)
        conns.append(_Conn(reader, writer))
    records = [Record(index, payload) for index, (_, payload) in enumerate(plan)]
    finished = asyncio.Event()
    remaining = [len(records)]

    def settle(record: Record) -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            finished.set()

    async def read(conn: _Conn) -> None:
        while True:
            try:
                line = await conn.reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                line, failure = b"", f"transport: {exc}"
            else:
                failure = "transport: connection closed"
            if not line:
                while conn.pending:
                    record = conn.pending.popleft()
                    record.error = failure
                    record.done = loop.time()
                    settle(record)
                return
            record = conn.pending.popleft()
            record.done = loop.time()
            record.line = line
            settle(record)

    readers = [asyncio.create_task(read(conn)) for conn in conns]
    if not records:
        finished.set()
    start = loop.time() + 0.05
    turn = 0
    for record, (offset, payload) in zip(records, plan):
        record.due = start + offset
        delay = record.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        # Least-loaded connection; ties alternate.
        turn += 1
        conn = min(conns, key=lambda c: (len(c.pending), (conns.index(c) + turn) % len(conns)))
        record.sent = loop.time()
        conn.pending.append(record)
        conn.writer.write(payload)
    try:
        await asyncio.wait_for(finished.wait(), grace)
    except asyncio.TimeoutError:
        pass
    for conn in conns:
        conn.writer.close()
    for task in readers:
        task.cancel()
    for task in readers:
        try:
            await task
        except asyncio.CancelledError:
            pass
    for conn in conns:
        try:
            await conn.writer.wait_closed()
        except ConnectionError:
            pass
        while conn.pending:
            record = conn.pending.popleft()
            record.error = "timeout: no response"
            record.done = loop.time()
    return records


def open_loop(port: int, plan: list[tuple[float, bytes]], *, connections: int = 2,
              grace: float = 30.0) -> list[Record]:
    """Send ``plan`` (offset seconds, encoded request) on schedule,
    whatever the server's progress, over ``connections`` pipelined
    connections (least outstanding first).  ``asyncio``'s loop clock is
    ``time.monotonic``, shared with the other clients."""
    return asyncio.run(_open_loop(port, plan, connections, grace))


class Connection:
    """A blocking NDJSON connection for closed loops and subscribers."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=timeout)
        self.file = self.sock.makefile("rb")

    def call(self, record: Record) -> Record:
        """One closed-loop exchange, filling ``record``'s timeline."""
        record.sent = time.monotonic()
        try:
            self.sock.sendall(record.payload)
            line = self.file.readline()
        except OSError as exc:
            record.error = f"transport: {exc}"
        else:
            if line:
                record.line = line
            else:
                record.error = "transport: server closed the connection"
        record.done = time.monotonic()
        return record

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def closed_loop(port: int, payloads: list[bytes], seconds: float, *,
                connections: int = 2) -> list[Record]:
    """Keep one request outstanding on each of ``connections`` blocking
    connections for ``seconds``, taking ``payloads`` in order, so the
    server never waits for the client.  Returns the records in payload
    order."""
    conns = [Connection(port) for _ in range(connections)]
    lock = threading.Lock()
    cursor = iter(enumerate(payloads))
    records: list[Record] = []
    started = time.monotonic()

    def drive(conn: Connection) -> None:
        while time.monotonic() - started < seconds:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            record = conn.call(Record(*item))
            with lock:
                records.append(record)
            if record.error is not None:
                return

    threads = [threading.Thread(target=drive, args=(conn,), name="servebench-closed")
               for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in conns:
        conn.close()
    records.sort(key=lambda record: record.index)
    return records


class Subscriber(threading.Thread):
    """Reads pushed lines off a subscribed connection, stamping each on
    arrival, until the connection closes."""

    def __init__(self, conn: Connection) -> None:
        super().__init__(name="servebench-subscriber", daemon=True)
        self.conn = conn
        self.events: list[tuple[float, bytes]] = []
        self.error: Optional[str] = None

    def run(self) -> None:
        while True:
            try:
                line = self.conn.file.readline()
            except (OSError, ValueError) as exc:
                self.error = str(exc)
                return
            if not line:
                return
            self.events.append((time.monotonic(), line))

    def stop(self, timeout: float = 10.0) -> None:
        try:
            self.conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.join(timeout)
        self.conn.close()
