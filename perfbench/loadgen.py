"""Closed-loop load generation: one thread per keep-alive connection.

The client is its own process, so it never competes with the server for
a GIL.  Each thread sends its stream's next request only after reading
the previous reply in full; latency is timed from just before the
request is written to just after the body is read.  Responses are kept
as raw bytes and decoded only after the timed phase, when they are
checked against the direct ``Wrapper`` result.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, List, Optional

from harness import ConnectionBudget, ServerProcess, call, call_json, nproc
from streams import Request


class Sample:
    """One attempted request and what came back."""

    __slots__ = ("request", "latency_s", "status", "body", "error", "trace")

    def __init__(self, request: Request):
        self.request = request
        self.latency_s = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None
        #: The server's span tree for this request (traced phase only).
        self.trace: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200


class Phase:
    """The samples of one closed-loop phase and its wall time."""

    def __init__(self, samples: List[Sample], wall_s: float):
        self.samples = samples
        self.wall_s = wall_s

    def extend(self, other: "Phase") -> None:
        """Append another block of the same phase."""
        self.samples += other.samples
        self.wall_s += other.wall_s

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def succeeded(self) -> int:
        return sum(1 for s in self.samples if s.ok)

    def latencies_ms(self) -> List[float]:
        return [s.latency_s * 1e3 for s in self.samples if s.ok]

    def throughput(self) -> float:
        """Successful responses per second of the phase's wall time."""
        return self.succeeded / self.wall_s


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of raw samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def send(connection, path: str, sample: Sample) -> None:
    """POST the sample's request and time it up to the last body byte."""
    started = time.perf_counter()
    sample.status, sample.body = call(connection, "POST", path, sample.request.body)
    sample.latency_s = time.perf_counter() - started


def fetch_trace(connection, sample: Sample) -> None:
    """Pull the request's span tree from ``/debug/traces/<id>``."""
    trace_id = json.loads(sample.body).get("trace_id")
    if not trace_id:
        sample.error = "response carries no trace_id"
        return
    status, body = call(connection, "GET", f"/debug/traces/{trace_id}")
    if status != 200:
        sample.error = f"trace {trace_id} not retrievable ({status})"
        return
    sample.trace = json.loads(body)


def closed_loop(
    connections: list,
    streams: List[Iterator[Request]],
    path: str,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    traced: bool = False,
    on_response: Optional[Callable[[int], None]] = None,
) -> Phase:
    """Drive every connection with its stream until ``seconds`` elapse or
    each has sent ``count`` requests.

    A request in flight when time runs out completes and counts.  A
    transport error ends that client's loop (its connection may not be
    replaced: see :class:`harness.ConnectionBudget`).  ``on_response``
    is called with the running number of completed responses."""
    samples: List[List[Sample]] = [[] for _ in connections]
    completed = 0
    lock = threading.Lock()
    start_gate = threading.Barrier(len(connections) + 1)
    # Set by this thread just before the gate opens; workers read it after.
    deadline = float("inf")

    def worker(index: int) -> None:
        nonlocal completed
        connection = connections[index]
        stream = streams[index]
        out = samples[index]
        start_gate.wait()
        sent = 0
        while (count is None or sent < count) and time.perf_counter() < deadline:
            sample = Sample(next(stream))
            out.append(sample)
            sent += 1
            try:
                send(connection, path, sample)
                if traced and sample.status == 200:
                    fetch_trace(connection, sample)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                # A dropped connection or an undecodable reply: the
                # request failed, and this client stops.
                sample.error = f"{type(exc).__name__}: {exc}"
                return
            if on_response is not None:
                with lock:
                    completed += 1
                    done = completed
                on_response(done)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(len(connections))
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    if seconds is not None:
        deadline = started + seconds
    start_gate.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return Phase([s for group in samples for s in group], wall)


def set_up(workload, root: Path, out_dir: Path, tag: str):
    """Spawn a server and bring it to the first measured request.

    Returns ``(server, connections, warm-up samples, seconds)``: spawn,
    wrapper registration through ``POST /wrappers``, warm-up requests
    and doc_id seeding all count as set-up."""
    workload.reset()
    started = time.perf_counter()
    server = ServerProcess(root, out_dir, tag)
    server.start()
    try:
        budget = ConnectionBudget("127.0.0.1", server.port, nproc())
        connections = [budget.connect() for _ in range(workload.clients)]
        call_json(connections[0], "POST", "/wrappers", workload.registration())
        samples = []
        for request in workload.warmup():
            sample = Sample(request)
            samples.append(sample)
            send(connections[0], workload.path, sample)
    except BaseException:
        server.stop()
        raise
    return server, connections, samples, time.perf_counter() - started


def tear_down(server: ServerProcess, connections) -> None:
    """Close the client's connections, then stop the server."""
    for connection in connections:
        connection.close()
    server.stop()
