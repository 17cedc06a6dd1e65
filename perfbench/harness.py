"""The server under test, as a separate process, and the client's sockets.

:class:`ServerProcess` spawns ``python -m repro.serve`` from the
checkout's ``src/`` with one process shard and otherwise the CLI
defaults (tracing on, 512-entry result cache, 10 ms flush deadline),
binds an ephemeral port, and writes the access log to a file.  It also
reads the peak resident memory (``VmHWM``) of the server and of every
process below it -- the shard worker.

:class:`ConnectionBudget` hands out the client's keep-alive connections:
at most ``nproc`` per server, and no reconnects, so the load generator
can never open more sockets than the machine has cores (a dropped
connection is a failed request, not something to retry around).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The line ``python -m repro.serve`` prints once its listener is bound.
_LISTENING = "repro.serve listening on http://"

#: Seconds a server gets to bind its port, and to drain on SIGTERM.
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 20.0


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


class ConnectionBudget:
    """At most ``limit`` client connections to one server, ever.

    Every connection the client opens to a server is taken from here,
    so exceeding the budget -- a reconnect after a drop, or a code path
    that opens a second socket -- fails the run instead of silently
    adding load generators."""

    def __init__(self, host: str, port: int, limit: int):
        self.host = host
        self.port = port
        self.limit = limit
        self.opened = 0

    def connect(self) -> http.client.HTTPConnection:
        if self.opened >= self.limit:
            raise BenchError(
                f"client would open connection {self.opened + 1} "
                f"but nproc is {self.limit}"
            )
        self.opened += 1
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        connection.connect()
        return connection


def call(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[bytes] = None,
) -> Tuple[int, bytes]:
    """One request on a keep-alive connection; ``(status, body bytes)``."""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def call_json(connection, method: str, path: str, payload=None) -> dict:
    """A control request that must succeed; returns the decoded body."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    status, data = call(connection, method, path, body)
    if status >= 300:
        raise BenchError(f"{method} {path} answered {status}: {data[:200]!r}")
    return json.loads(data)


class ServerProcess:
    """``python -m repro.serve --shards 1`` on an ephemeral port."""

    def __init__(self, root: Path, out_dir: Path, tag: str):
        self.root = root
        self.access_log = out_dir / f"access-{tag}.jsonl"
        self.stderr_path = out_dir / f"server-{tag}.stderr"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        for path in (self.access_log, self.stderr_path):
            if path.exists():
                path.unlink()
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, "-m", "repro.serve",
            "--port", "0",
            "--shards", "1",
            "--access-log", str(self.access_log),
        ]
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                command,
                cwd=str(self.root),
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        self.port = self._await_listening()

    def _await_listening(self) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + _START_TIMEOUT
        buffer = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffer += chunk
            for line in buffer.decode("utf-8", "replace").splitlines():
                if line.startswith(_LISTENING):
                    address = line[len(_LISTENING):].split()[0]
                    return int(address.rsplit(":", 1)[1])
        self.stop()
        raise BenchError(
            f"server did not report a listening port: {self.stderr_tail()}"
        )

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-600:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and all its descendants."""
        if self.proc is None:
            return 0.0
        total_kb = 0
        for pid in [self.proc.pid] + _descendants(self.proc.pid):
            total_kb += _vm_hwm_kb(pid)
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL as a last resort."""
        proc = self.proc
        if proc is None:
            return
        # The shard worker and multiprocessing's resource tracker are the
        # server's children; they are waited for too.
        children = _descendants(proc.pid)
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # Also reached when the wait above is interrupted: the server
            # and its shard never outlive the benchmark.
            if proc.poll() is None:
                for pid in _descendants(proc.pid):
                    _kill(pid)
                proc.kill()
                proc.wait(timeout=_STOP_TIMEOUT)
            if proc.stdout is not None:
                proc.stdout.close()
            self.proc = None
            _await_exit(children)

    def discard_logs(self) -> None:
        """Remove the access log and stderr once they have been checked
        (a run that fails a check keeps them for diagnosis)."""
        for path in (self.access_log, self.stderr_path):
            if path.exists():
                path.unlink()

    def access_log_requests(self) -> List[dict]:
        """The access log's per-request lines (boot notices skipped)."""
        records = []
        with open(self.access_log, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("event") == "request":
                    records.append(record)
        return records


def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        for task in _listdir(f"/proc/{parent}/task"):
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            stack.extend(children)
    return found


def _listdir(path: str) -> List[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _await_exit(pids: List[int], timeout: float = 5.0) -> None:
    """Wait for orphaned descendants to end; SIGKILL what outstays."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = [pid for pid in pids if _alive(pid)]
        if not pids:
            return
        time.sleep(0.02)
    for pid in pids:
        _kill(pid)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast this box runs
    right now.  Shared machines drift by tens of percent over minutes;
    this is what to compare runs against before blaming the code."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1e3)
    times.sort()
    return times[len(times) // 2]


def machine_metadata(root: Path) -> Dict[str, object]:
    """What the numbers were measured on: cores, Python, OS, commit."""
    commit = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if done.returncode == 0:
            commit = done.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    # A checkout without .git still identifies its code by content.
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }
