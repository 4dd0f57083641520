"""Open- and closed-loop HTTP load from one process over pipelined connections.

A :class:`Pipe` is one keep-alive HTTP/1.1 connection: :meth:`Pipe.send`
writes a request immediately and returns a future that a reader task
resolves with ``(status, body, t_recv)`` in request order, so many
requests can be in flight on one socket (the shape the server's
micro-batcher coalesces).

Open loop (:func:`open_loop`): arrivals are due on a fixed-rate
schedule regardless of replies; each sample is timed from its *due*
time, so a stall is charged to every request it delays, and the
generator's own lateness (send time minus due time) is recorded.
Closed loop (:func:`closed_loop`): a fixed number of requests is kept
in flight; each reply releases the next send.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict
from typing import List
from typing import Optional

clock = time.perf_counter


class Pipe:
    """One pipelined keep-alive connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: "asyncio.Queue[asyncio.Future]" = asyncio.Queue()
        self.task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Pipe":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, method: str, path: str, body: bytes = b"",
             tenant: Optional[str] = None) -> "asyncio.Future":
        extra = "x-tenant: %s\r\n" % (tenant,) if tenant else ""
        head = ("%s %s HTTP/1.1\r\nHost: bench\r\n%sContent-Length: %d\r\n\r\n"
                % (method, path, extra, len(body)))
        future = asyncio.get_running_loop().create_future()
        self.pending.put_nowait(future)
        self.writer.write(head.encode("ascii") + body)
        return future

    async def _read_loop(self) -> None:
        try:
            while True:
                future = await self.pending.get()
                head = await self.reader.readuntil(b"\r\n\r\n")
                lines = head.split(b"\r\n")
                status = int(lines[0].split(b" ", 2)[1])
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = await self.reader.readexactly(length) if length else b""
                if not future.done():
                    future.set_result((status, body, clock()))
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as error:
            self._fail_pending(error)
        except asyncio.CancelledError:
            self._fail_pending(ConnectionError("connection closed"))
            raise

    def _fail_pending(self, error: BaseException) -> None:
        while not self.pending.empty():
            future = self.pending.get_nowait()
            if not future.done():
                future.set_exception(ConnectionError(str(error)))

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def request_json(pipe: Pipe, method: str, path: str, payload=None):
    """One request/response round trip; returns ``(status, decoded body)``."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    status, raw, _ = await pipe.send(method, path, body)
    await pipe.writer.drain()
    return status, json.loads(raw)


class Step:
    """One HTTP request of a unit; times in seconds on :data:`clock`.

    ``start`` is when the request was due: the arrival time for a unit's
    first request, the send time for a later step that by design waits
    for the previous reply.
    """

    __slots__ = ("verb", "start", "sent", "recv", "status", "body", "outcome")

    def __init__(self, verb: str, start: float):
        self.verb = verb
        self.start = start
        self.sent = None
        self.recv = None
        self.status = None
        self.body = None
        #: Set by the answer check: succeeded / failed / shed / wrong.
        self.outcome = None

    @property
    def latency(self) -> float:
        return self.recv - self.start

    @property
    def lateness(self) -> float:
        return self.sent - self.start


class Sample:
    """One unit of work (a query, or a whole session) and its steps."""

    __slots__ = ("index", "due", "steps")

    def __init__(self, index: int, due: float):
        self.index = index
        self.due = due
        self.steps: List[Step] = []


async def send_step(pipe: Pipe, step: Step, method: str, path: str,
                    body: bytes = b"", tenant: Optional[str] = None) -> Step:
    """Send one request and fill ``step`` with its reply."""
    step.sent = clock()
    try:
        step.status, step.body, step.recv = await pipe.send(method, path, body, tenant)
    except (ConnectionError, OSError) as error:
        step.status, step.body, step.recv = -1, str(error).encode(), clock()
    return step


async def open_loop(pipes: List[Pipe], units: List, rate: float,
                    seconds: float) -> List[Sample]:
    """Start ``units[i]`` at ``t0 + i / rate`` until ``seconds`` elapse.

    A unit is a coroutine function ``unit(pipe, sample)`` that sends its
    request(s) as steps of the sample.  Units run concurrently, so a slow
    reply never delays later arrivals; unit ``i`` uses connection
    ``i mod len(pipes)``.
    """
    count = min(len(units), int(rate * seconds))
    samples: List[Sample] = []
    tasks = []
    t0 = clock() + 0.01
    for index in range(count):
        due = t0 + index / rate
        delay = due - clock()
        if delay > 0.0005:
            await asyncio.sleep(delay)
        sample = Sample(index, due)
        samples.append(sample)
        tasks.append(asyncio.ensure_future(units[index](pipes[index % len(pipes)], sample)))
    await asyncio.gather(*tasks)
    return samples


async def closed_loop(pipes: List[Pipe], units: List, depth: int,
                      seconds: float) -> List[Sample]:
    """Keep ``depth`` units in flight for ``seconds``; each is due when sent."""
    samples: List[Sample] = []
    deadline = clock() + seconds
    cursor = iter(range(len(units)))

    async def worker(slot: int) -> None:
        for index in cursor:
            if clock() >= deadline:
                return
            sample = Sample(index, clock())
            samples.append(sample)
            await units[index](pipes[slot % len(pipes)], sample)

    await asyncio.gather(*[worker(slot) for slot in range(depth)])
    return samples


def query_unit(request: Dict):
    """A unit sending one NDJSON query line to ``/v1/query``."""
    body = json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"

    async def unit(pipe: Pipe, sample: Sample) -> None:
        step = Step("query", sample.due)
        sample.steps.append(step)
        await send_step(pipe, step, "POST", "/v1/query", body)

    return unit


def session_unit(script: Dict):
    """A unit running one session: create, its steps in order, delete.

    Each step waits for the previous reply (a read must see the chain
    its observes committed), so only the create is due on the arrival
    schedule; later steps are timed from their own send.
    """
    name, tenant = script["session"], script["tenant"]
    base = "/v1/sessions/%s/" % (name,)

    def encode(payload) -> bytes:
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    async def unit(pipe: Pipe, sample: Sample) -> None:
        step = Step("create", sample.due)
        sample.steps.append(step)
        await send_step(pipe, step, "POST", "/v1/sessions",
                        encode({"session": name, "model": script["model"]}), tenant)
        if step.status != 200:
            return
        for spec in script["steps"]:
            step = Step(spec["verb"], clock())
            sample.steps.append(step)
            await send_step(pipe, step, "POST", base + spec["verb"],
                            encode({"event": spec["event"]}), tenant)
            if step.status != 200:
                return
        step = Step("delete", clock())
        sample.steps.append(step)
        await send_step(pipe, step, "DELETE", base[:-1], b"", tenant)

    return unit
