"""Sharded long-lived evaluation pool for compiled wrappers.

The batch APIs of :mod:`repro.wrap.extraction` spin a process pool up per
call; a server cannot afford that.  :class:`ShardExecutor` owns a fixed
set of *shards* -- each a single-worker ``ProcessPoolExecutor`` -- that
live for the whole server lifetime.  A compiled wrapper is pickled and
installed into each shard exactly once (plans + kernel tables, a few KB);
after that, only ``(html, doc_id | None)`` items travel to a shard and
only flat output columns (:class:`~repro.wrap.output.FlatOutput`, a few
arrays per page) plus a small stats dict per page travel back.  Every
shard flavour -- process, inline, and the remote daemon of
:mod:`repro.serve.shard` -- hosts the same :class:`ShardRuntime` and
its single ``wrap`` operation.

Documents are routed to shards by content hash, so identical documents
always land on the same shard and a multi-document batch splits into at
most one sub-batch per shard.  ``shards=0`` selects the *inline* mode --
a single thread-backed shard with no pickling -- used by tests and by
single-core boxes where process fan-out cannot pay for itself.
"""

from __future__ import annotations

import hashlib
import os
import signal
from collections import OrderedDict
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ServeError,
    ServerOverloaded,
    ShardCrashed,
    WrapperNotResident,
)
from repro.serve.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    process_injector,
    release_hangs,
)
from repro.wrap.extraction import Wrapper, WrapperState
from repro.wrap.output import FlatOutput


def content_hash(html: str) -> str:
    """Stable content hash of one document (routing and cache key)."""
    return hashlib.sha256(html.encode("utf-8", "surrogatepass")).hexdigest()


#: Cap on retained per-document states per shard.  A state holds one
#: snapshot (columns + payloads, roughly the document's size in memory),
#: so this bounds shard memory like ``max_installed`` bounds resident
#: wrappers.
_STATE_CAP = 128


def _shard_ping() -> bool:
    """Health-check round trip: proves the worker is alive and draining."""
    return True


class ShardRuntime:
    """Everything one shard holds, behind its one evaluation operation.

    The state is the resident compiled wrappers (LRU), the per-document
    :class:`~repro.wrap.extraction.WrapperState` store of the incremental
    warm path (LRU under ``_STATE_CAP``), and an optional
    :class:`~repro.serve.faults.FaultInjector`.  Every shard flavour hosts
    one: a process worker keeps a module-level runtime, an inline shard
    and a remote shard daemon own one each.  Losing a runtime (worker
    death, respawn) is always safe: a missing wrapper is a retryable
    :class:`~repro.errors.WrapperNotResident` and a missing state is just
    a cold run.

    ``max_installed`` caps resident wrappers on shards that evict on
    their own (the daemon); local shards leave eviction to the router's
    :meth:`ShardExecutor.ensure_installed`.

    >>> from repro.datalog import parse_program
    >>> runtime = ShardRuntime()
    >>> runtime.install("k", Wrapper().add_datalog("item", parse_program(
    ...     "item(x) :- label_li(x).", query="item")))
    True
    >>> reply = runtime.wrap("k", [("<ul><li>a</ul>", None),
    ...                            ("<ul><li>a<li>b</ul>", "doc-1")])
    >>> [page.to_tree().to_sexpr() for page in reply["pages"]]
    ['result(item)', 'result(item, item)']
    >>> reply["stats"][1]["warm"], list(runtime.states)
    (False, [('k', 'doc-1')])
    >>> runtime.wrap("k", [("<ul><li>a<li>c</ul>", "doc-1")])["stats"][0]["warm"]
    True
    """

    def __init__(
        self,
        injector: Optional[FaultInjector] = None,
        max_installed: Optional[int] = None,
    ) -> None:
        self.injector = injector
        self.max_installed = max_installed
        self.wrappers: "OrderedDict[str, Wrapper]" = OrderedDict()
        #: ``(wrapper key, doc_id) -> WrapperState``: the previous
        #: version's snapshot + derived kernel masks.
        self.states: "OrderedDict[Tuple[str, str], WrapperState]" = OrderedDict()

    def install(self, key: str, wrapper: Wrapper) -> bool:
        self.wrappers[key] = wrapper
        self.wrappers.move_to_end(key)
        if self.max_installed is not None:
            while len(self.wrappers) > self.max_installed:
                self.wrappers.popitem(last=False)
        return True

    def uninstall(self, key: str) -> bool:
        return self.wrappers.pop(key, None) is not None

    def wrap(self, key: str, items: List[Tuple[str, Optional[str]]]) -> dict:
        """Evaluate ``(html, doc_id | None)`` items with wrapper ``key``.

        Returns ``{"pages": [...], "stats": [...]}``: one
        :class:`~repro.wrap.output.FlatOutput` and one stats dict (stage
        clocks, per-plan kernel stats, reuse) per item.  An item with a
        ``doc_id`` is evaluated against the state its previous version
        left behind, and its new state is kept; an item without one runs
        cold and keeps nothing.  Fault injection applies to the pages
        only -- the stats are observability metadata, not results, so
        garbling faults target what the client actually consumes.
        """
        wrapper = self.wrappers.get(key)
        if wrapper is None:
            # Retryable: the wrapper was evicted or the worker was
            # respawned; the next attempt re-installs it.
            raise WrapperNotResident(
                f"wrapper {key!r} is not resident on this shard; retry the request"
            )
        self.wrappers.move_to_end(key)
        if self.injector is not None:
            self.injector.before_call(key, [html for html, _ in items])
        pages: List[FlatOutput] = []
        stats: List[dict] = []
        for html, doc_id in items:
            state_key = (key, doc_id)
            prior = None if doc_id is None else self.states.get(state_key)
            output, state, stat = wrapper.wrap_html_stateful(html, prior)
            if doc_id is not None:
                self.states[state_key] = state
                self.states.move_to_end(state_key)
                while len(self.states) > _STATE_CAP:
                    self.states.popitem(last=False)
            pages.append(output)
            stats.append(stat)
        if self.injector is not None:
            pages = self.injector.after_call(key, pages)
        return {"pages": pages, "stats": stats}


#: The process-shard worker's runtime (one per worker process).
_WORKER = ShardRuntime()


def _worker_call(op: str, *args):
    """Run one :class:`ShardRuntime` operation inside a process worker."""
    _WORKER.injector = process_injector()
    return getattr(_WORKER, op)(*args)


def _forget_on_failure(shard, key: str):
    def callback(future: Future) -> None:
        if future.cancelled() or future.exception() is not None:
            shard.installed.pop(key, None)

    return callback


class _ProcessShard:
    """One single-worker process, wrappers installed once.

    A dead worker (OOM-killed, segfaulted) breaks its ``ProcessPoolExecutor``
    permanently; submissions after that respawn the pool -- the in-flight
    request fails with a retryable :class:`ServerOverloaded`, installed
    wrappers are forgotten (so they re-install on the next request), and
    the shard heals itself.
    """

    def __init__(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=1)
        #: Installed wrapper keys in LRU order (see ensure_installed).
        self.installed: "OrderedDict[str, bool]" = OrderedDict()

    def _call(self, fn, *args) -> Future:
        # Never submit to a freshly respawned pool here: the respawn
        # cleared the installed set, so the caller must go back through
        # ensure_installed first.  Raising the retryable error (mapped to
        # 503) makes the next attempt do exactly that.
        # Both raises below are *blameless*: the pool broke under some
        # earlier request, so whatever documents this submission carries
        # cannot be what killed the worker -- they must not earn
        # quarantine strikes.
        if getattr(self.pool, "_broken", False):
            self._respawn()
            crash = ShardCrashed(
                "shard worker died; shard respawned, retry the request"
            )
            crash.blameless = True
            raise crash
        try:
            return self.pool.submit(fn, *args)
        except BrokenExecutor:
            self._respawn()
            crash = ShardCrashed(
                "shard worker died; shard respawned, retry the request"
            )
            crash.blameless = True
            raise crash from None

    def _respawn(self) -> None:
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=1)
        self.installed.clear()

    def install(self, key: str, wrapper: Wrapper) -> Future:
        return self._call(_worker_call, "install", key, wrapper)

    def uninstall(self, key: str) -> Future:
        return self._call(_worker_call, "uninstall", key)

    def submit(self, key: str, items: List[Tuple[str, Optional[str]]]) -> Future:
        return self._call(_worker_call, "wrap", key, items)

    def ping(self) -> Future:
        return self._call(_shard_ping)

    def kill(self) -> None:
        """Hard-kill the worker (hung past a deadline) and respawn.

        SIGKILL, not terminate(): a worker stuck in C code or an
        injected hang must die unconditionally.  In-flight futures fail
        with :class:`BrokenExecutor`, which callers map to the retryable
        crash path."""
        for pid in list(getattr(self.pool, "_processes", {}) or {}):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):  # pragma: no cover - raced exit
                pass
        self._respawn()

    def close(self) -> None:
        self.pool.shutdown(wait=True, cancel_futures=True)


class _InlineShard:
    """Thread-backed shard: no pickling, shared-memory :class:`ShardRuntime`.

    Faults are injected *softly* here (simulated crashes instead of
    process death), so the whole recovery stack is exercisable without
    spawning processes."""

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-shard"
        )
        self.installed: "OrderedDict[str, bool]" = OrderedDict()
        self.runtime = ShardRuntime(
            FaultInjector(faults, hard=False, shard_tag="inline")
            if faults is not None and faults.enabled
            else None
        )

    def install(self, key: str, wrapper: Wrapper) -> Future:
        return self.pool.submit(self.runtime.install, key, wrapper)

    def uninstall(self, key: str) -> Future:
        return self.pool.submit(self.runtime.uninstall, key)

    def submit(self, key: str, items: List[Tuple[str, Optional[str]]]) -> Future:
        return self.pool.submit(self.runtime.wrap, key, items)

    def ping(self) -> Future:
        return self.pool.submit(_shard_ping)

    def kill(self) -> None:
        """Simulated hard kill: new pool, empty store, hangs released.

        Mirrors process-shard death semantics — the wrapper store is
        lost (forcing re-install) and any injected hang is unblocked so
        the abandoned worker thread can exit.  The fault injector (and
        its call counter) deliberately survives: an inline chaos run is
        one deterministic call sequence, so a plan combining
        ``kill_every`` with delays keeps firing *all* its faults instead
        of resetting to the kill-only prefix after every respawn."""
        release_hangs()
        old = self.pool
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-shard"
        )
        self.installed.clear()
        self.runtime = ShardRuntime(self.runtime.injector)
        old.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        release_hangs()
        self.pool.shutdown(wait=True, cancel_futures=True)


class ShardExecutor:
    """A fixed set of long-lived evaluation shards.

    Parameters
    ----------
    shards:
        Number of process shards; ``0`` (default) selects one inline
        thread-backed shard.
    max_installed:
        Cap on resident compiled wrappers per shard.  Superseded or
        rarely used registrations are evicted LRU from the worker's store
        (and transparently re-installed on their next request), so a
        server whose wrappers are re-registered over time cannot grow
        worker memory without bound.

    Examples
    --------
    >>> executor = ShardExecutor(shards=0)
    >>> executor.mode, executor.n_shards
    ('inline', 1)
    >>> a = executor.shard_for(content_hash("<ul><li>x</ul>"))
    >>> a == executor.shard_for(content_hash("<ul><li>x</ul>"))
    True
    >>> executor.close()
    """

    def __init__(
        self,
        shards: int = 0,
        max_installed: int = 32,
        faults: Optional[FaultPlan] = None,
    ):
        self.faults = faults
        self._faults_env_prior: Optional[str] = None
        if faults is not None and faults.enabled and shards > 0:
            # Worker processes do not share memory with the server: they
            # pick the plan up from the environment they inherit at
            # spawn.  Restored by close().
            self._faults_env_prior = os.environ.get(FAULTS_ENV)
            os.environ[FAULTS_ENV] = faults.spec()
        if shards <= 0:
            self.mode = "inline"
            self._shards = [_InlineShard(faults)]
        else:
            self.mode = "process"
            self._shards = [_ProcessShard() for _ in range(shards)]
        self.max_installed = max(1, max_installed)
        self._closed = False

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_for(self, doc_hash: str) -> int:
        """Deterministic shard index for one document content hash."""
        return int(doc_hash[:16], 16) % len(self._shards)

    def ensure_installed(
        self, key: str, wrapper: Wrapper, shard: Optional[int] = None
    ) -> List[Future]:
        """Install ``key`` on every shard that lacks it; pending futures.

        The wrapper is pickled to each process shard at most once while it
        stays resident; callers await the returned futures before
        submitting work for ``key``.  With ``shard`` given, only that
        shard's install future is returned -- the caller's request
        depends on it alone; installs elsewhere still fire but heal in
        the background (their failures just forget the key for a later
        retry).  Shard stores are LRU-bounded by ``max_installed``: the
        least recently used key is uninstalled from the worker (safe --
        its next request just re-installs), keeping worker memory flat
        however many registrations come and go.
        """
        if self._closed:
            raise ServeError("executor is closed")
        futures: List[Future] = []
        for index, target in enumerate(self._shards):
            if key in target.installed:
                target.installed.move_to_end(key)
                continue
            future = target.install(key, wrapper)
            target.installed[key] = True
            # A failed install must not poison the shard: forget the
            # key again so the next request retries the install.
            future.add_done_callback(_forget_on_failure(target, key))
            if shard is None or index == shard:
                futures.append(future)
            while len(target.installed) > self.max_installed:
                stale, _ = target.installed.popitem(last=False)
                try:
                    # Fire-and-forget: the single-worker pool is FIFO, so
                    # any batch already queued for ``stale`` runs first.
                    target.uninstall(stale)
                except (ServerOverloaded, ShardCrashed):
                    pass  # pool respawned: the whole store is gone anyway
        return futures

    def installed_on(self, key: str) -> List[int]:
        """Shard indices currently holding ``key`` (acked installs)."""
        return [
            index
            for index, shard in enumerate(self._shards)
            if key in shard.installed
        ]

    def shard_state(self, shard_index: int) -> Dict:
        """Transport view of one shard for ``/healthz`` (local flavor)."""
        return {
            "transport": "local",
            "mode": self.mode,
            "connected": not self._closed,
            "draining": False,
            "reconnects_total": 0,
            "installed_wrappers": len(self._shards[shard_index].installed),
        }

    def is_draining(self, shard_index: int) -> bool:
        """Local shards never drain independently of the server."""
        return False

    def submit(
        self,
        shard_index: int,
        key: str,
        items: List[Tuple[str, Optional[str]]],
        trace_id: Optional[str] = None,
    ) -> Future:
        """Evaluate ``(html, doc_id | None)`` items on one shard.

        Resolves to :meth:`ShardRuntime.wrap`'s ``{"pages": [...],
        "stats": [...]}``.  Callers route ``doc_id`` items by
        ``content_hash(doc_id)`` (not by document content) so successive
        versions of one document land on the shard holding its state.
        ``trace_id`` is accepted so both executors share one signature;
        only a remote daemon logs it.
        """
        if self._closed:
            raise ServeError("executor is closed")
        return self._shards[shard_index].submit(key, items)

    def ping(self, shard_index: int) -> Future:
        """Health-check round trip through one shard's queue."""
        if self._closed:
            raise ServeError("executor is closed")
        return self._shards[shard_index].ping()

    def kill_shard(self, shard_index: int) -> None:
        """Hard-kill one shard's worker (hung past a deadline) + respawn.

        Installed wrappers are forgotten; the next request re-installs.
        """
        if not self._closed:
            self._shards[shard_index].kill()

    def respawn_shard(self, shard_index: int) -> None:
        """Supervisor hook: proactively recycle one (sick) shard."""
        self.kill_shard(shard_index)

    def close(self) -> None:
        """Shut every shard down (graceful: running batches finish)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()
        if self._faults_env_prior is not None:
            os.environ[FAULTS_ENV] = self._faults_env_prior
        elif self.faults is not None and self.faults.enabled and self.mode == "process":
            os.environ.pop(FAULTS_ENV, None)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ShardExecutor({self.mode}, {self.n_shards} shards)"
