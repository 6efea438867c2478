"""Open-loop HTTP replay of an admission schedule over keep-alive connections.

Requests are written when they are due, whether or not earlier answers
have arrived (HTTP/1.1 pipelining), so a slow server receives the same
load as a fast one and its backlog shows up as latency.  Each request is
timed from its due time, not from when it was written, and the replay
records how late the generator itself ran.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Replay:
    """What one replay saw, request by request, on the client side."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    transport_errors: int = 0
    by_outcome: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    server_latencies_s: List[float] = field(default_factory=list)
    transport_s: List[float] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    window: Tuple[float, float] = (0.0, 0.0)  # perf_counter start, end

    @property
    def conserves(self) -> bool:
        return (
            self.admitted + self.rejected + self.shed + self.transport_errors
            == self.offered
        )

    def add(self, other: "Replay") -> None:
        """Fold ``other``'s ledger into this one (latencies excluded)."""
        self.offered += other.offered
        self.admitted += other.admitted
        self.rejected += other.rejected
        self.shed += other.shed
        self.transport_errors += other.transport_errors
        for key, count in other.by_outcome.items():
            self.by_outcome[key] = self.by_outcome.get(key, 0) + count


def encode_admit(payload: Dict) -> bytes:
    """One keep-alive ``POST /v1/admit`` request, ready to write."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        "POST /v1/admit HTTP/1.1\r\n"
        "Host: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, (json.loads(body) if body else {})


async def get_json(host: str, port: int, path: str) -> Dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        _status, payload = await read_response(reader)
        return payload
    finally:
        writer.close()
        await writer.wait_closed()


async def replay(
    host: str,
    port: int,
    items: Sequence[Tuple[float, bytes]],
    *,
    connections: int = 2,
    timeout_s: float = 60.0,
) -> Replay:
    """Offer ``items`` (due offset in seconds, request bytes) open-loop.

    Request ``i`` goes to connection ``i % connections``; answers on a
    connection come back in the order its requests were written.
    """
    loop = asyncio.get_running_loop()
    result = Replay(offered=len(items))
    conns = [
        await asyncio.open_connection(host, port) for _ in range(connections)
    ]
    outstanding = [collections.deque() for _ in conns]
    expected = [
        len(range(ci, len(items), connections)) for ci in range(connections)
    ]
    answered = 0

    async def read_all(ci: int) -> None:
        nonlocal answered
        reader = conns[ci][0]
        for _ in range(expected[ci]):
            _status, payload = await read_response(reader)
            due = outstanding[ci].popleft()
            latency = loop.time() - due
            answered += 1
            category = payload.get("category")
            if category == "admitted":
                result.admitted += 1
            elif category == "rejected":
                result.rejected += 1
            else:
                result.shed += 1
            wire = str(payload.get("outcome"))
            result.by_outcome[wire] = result.by_outcome.get(wire, 0) + 1
            result.latencies_s.append(latency)
            server = payload.get("decision_latency")
            if server is not None:
                result.server_latencies_s.append(server)
                result.transport_s.append(max(0.0, latency - server))

    async def send_all() -> None:
        start = loop.time() + 0.005
        for index, (at, data) in enumerate(items):
            due = start + at
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            ci = index % connections
            outstanding[ci].append(due)
            result.lateness_s.append(max(0.0, loop.time() - due))
            writer = conns[ci][1]
            writer.write(data)
            if writer.transport.get_write_buffer_size() > 65536:
                await writer.drain()

    began = time.perf_counter()
    tasks = [loop.create_task(send_all())] + [
        loop.create_task(read_all(ci)) for ci in range(connections)
    ]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout_s)
    except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
            ValueError):
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        result.transport_errors = result.offered - answered
    finally:
        for _reader, writer in conns:
            writer.close()
        for _reader, writer in conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass
    ended = time.perf_counter()
    result.wall_s = ended - began
    result.window = (began, ended)
    return result


def lateness_growing(lateness_s: Sequence[float], slack_s: float) -> bool:
    """True when the generator's last quarter ran later than its first.

    A generator that keeps up sends the last requests as punctually as
    the first; one that cannot keep up falls further behind over time.
    """
    quarter = len(lateness_s) // 4
    if quarter == 0:
        return False
    head = sorted(lateness_s[:quarter])[quarter // 2]
    tail = sorted(lateness_s[-quarter:])[quarter // 2]
    return tail - head > slack_s


def run_replay(host: str, port: int, items, **kwargs) -> Replay:
    return asyncio.run(replay(host, port, items, **kwargs))


def fetch_stats(host: str, port: int) -> Optional[Dict]:
    try:
        return asyncio.run(get_json(host, port, "/stats"))
    except (OSError, asyncio.IncompleteReadError, ValueError):
        return None
