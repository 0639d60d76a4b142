"""The multi-process serving fleet: leased-session workers + supervisor.

One interpreter — however well batched — is one GIL.  The fleet
multiplies the per-process wins (shared index cache, batched kernels,
speculation trees) by the core count: a front router (see
:mod:`~repro.service.router`) proxies the public HTTP/JSON protocol,
unchanged, to N **worker subprocesses**, each a full
:class:`~repro.service.manager.SessionManager` +
:class:`~repro.service.app.ServiceApp` stack listening on its own
localhost port.  Sessions are partitioned by session-id hash and pinned
to their owning worker, so a session's state never needs to be shared —
only its *durable* journal is, through one
:class:`~repro.service.store.SqliteSessionStore` file all workers open
(WAL mode, busy-retry).

Ownership is the store's lease protocol (PR 7): each worker claims its
sessions under a unique ``owner_id`` per incarnation, heartbeats the
leases, and stamps every journal flush with its fencing epoch.  Kill a
worker with ``kill -9`` and nothing is lost: its leases stop renewing,
the router fails the affected requests over to a survivor, the survivor
waits out the lease, takes it over (epoch bump — the dead worker's
late flushes, were any still buffered, are fenced out) and rehydrates
the session bit-for-bit from the checkpoint + journal tail.  Meanwhile
the supervisor respawns the dead slot and the router rebalances the
displaced sessions home.

This module is both sides of the process boundary:

* ``python -m repro.service.fleet_worker '<json-config>'`` is the
  **worker** entry point: build the manager over the shared store,
  serve with the
  control routes enabled, announce ``FLEET_WORKER_READY port=N`` on
  stdout, and on SIGTERM drain gracefully (demote every durable
  session, flush, release every lease) before exiting.
* :class:`Fleet` is the **supervisor** the router embeds: spawn the
  worker subprocesses, watch them, respawn dead slots.
* :class:`FleetServer` wraps router + fleet on a background thread for
  tests, benchmarks and embedders — the multi-process twin of
  :class:`~repro.service.app.ServiceServer`.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

__all__ = [
    "FleetConfig",
    "Fleet",
    "FleetServer",
    "WorkerHandle",
    "manager_from_worker_config",
    "worker_main",
]

_READY_PATTERN = re.compile(rb"FLEET_WORKER_READY port=(\d+)")


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Everything needed to spawn and serve one worker fleet.

    ``store_path`` is the shared SQLite file — the fleet's only shared
    mutable state; every other field is per-worker configuration passed
    down verbatim.  ``lease_ttl_seconds`` bounds takeover latency after
    a worker is SIGKILLed: survivors can claim its sessions one TTL
    after its last heartbeat."""

    store_path: str
    workers: int = 2
    host: str = "127.0.0.1"
    lease_ttl_seconds: float = 10.0
    checkpoint_every: int = 16
    max_sessions: int = 256
    ttl_seconds: float | None = 3600.0
    build_workers: int = 1
    speculate: bool = True
    kernel_batch: bool = True
    #: Share built indexes machine-wide through ``/dev/shm`` segments
    #: (see :mod:`repro.service.shm_registry`).  Workers degrade to
    #: private builds when POSIX shared memory is unavailable.
    shared_index: bool = True
    #: Memoise planner entropy tables in each worker's own LRU (see
    #: :mod:`repro.core.plan_cache`); workers do not share tables.
    plan_cache: bool = True
    plan_cache_entries: int = 1024
    spawn_timeout: float = 60.0

    def worker_payload(self, slot: int, owner_id: str) -> dict[str, Any]:
        """The JSON argv one worker subprocess is launched with."""
        return {
            "slot": slot,
            "owner_id": owner_id,
            "host": self.host,
            "store_path": self.store_path,
            "lease_ttl_seconds": self.lease_ttl_seconds,
            "checkpoint_every": self.checkpoint_every,
            "max_sessions": self.max_sessions,
            "ttl_seconds": self.ttl_seconds,
            "build_workers": self.build_workers,
            "speculate": self.speculate,
            "kernel_batch": self.kernel_batch,
            "shared_index": self.shared_index,
            "plan_cache": self.plan_cache,
            "plan_cache_entries": self.plan_cache_entries,
        }


# --- worker side -------------------------------------------------------------


def manager_from_worker_config(config: dict[str, Any]):
    """Build one worker's manager over the shared store.

    Separate from :func:`worker_main` so tests can assemble the exact
    in-worker stack inside one process (same store semantics, no
    subprocess)."""
    from .manager import SessionManager
    from .shm_registry import SharedIndexPlane
    from .store import SqliteSessionStore

    store = SqliteSessionStore(config["store_path"])
    plane = None
    if config.get("shared_index", True):
        # None when POSIX shared memory is unusable: the worker keeps
        # its PR 7 behaviour (private per-process builds).
        plane = SharedIndexPlane.if_available(
            config["store_path"],
            config["owner_id"],
            ttl_seconds=config.get("lease_ttl_seconds", 10.0),
        )
        if plane is not None:
            # Claim anything a crashed predecessor left behind before
            # the first build races it.
            plane.reap()
    return SessionManager(
        max_sessions=config.get("max_sessions", 256),
        ttl_seconds=config.get("ttl_seconds", 3600.0),
        build_workers=config.get("build_workers", 1),
        speculate=config.get("speculate", True),
        kernel_batch=config.get("kernel_batch", True),
        store=store,
        checkpoint_every=config.get("checkpoint_every", 16),
        owner_id=config["owner_id"],
        lease_ttl_seconds=config.get("lease_ttl_seconds", 10.0),
        shared_index=plane,
        plan_cache=config.get("plan_cache", True),
        plan_cache_entries=config.get("plan_cache_entries", 1024),
    )


async def _serve_worker(config: dict[str, Any]) -> None:
    from .app import ServiceApp, start_server

    manager = manager_from_worker_config(config)
    app = ServiceApp(manager, control=True)
    server = await start_server(app, config.get("host", "127.0.0.1"), 0)
    port = server.sockets[0].getsockname()[1]
    # The readiness handshake the supervisor blocks on; port 0 above
    # means the OS picked it, so this line is how the router learns it.
    print(f"FLEET_WORKER_READY port={port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()

    # Graceful drain: stop accepting, checkpoint+demote every durable
    # session (each demote queues a trailing lease release), then block
    # until the writer thread has committed it all.  A SIGKILL skips
    # all of this — which is exactly what the lease takeover path is
    # for.
    server.close()
    await server.wait_closed()
    manager.demote_all()
    await loop.run_in_executor(None, manager.flush_store)
    manager.close(wait=True)
    if manager.store is not None:
        manager.store.close()


def worker_main(argv: list[str]) -> int:
    """``python -m repro.service.fleet_worker <json-config>`` body."""
    if len(argv) != 1:
        print(
            "usage: python -m repro.service.fleet_worker '<json-config>'",
            file=sys.stderr,
        )
        return 2
    config = json.loads(argv[0])
    asyncio.run(_serve_worker(config))
    return 0


# --- supervisor side ---------------------------------------------------------


@dataclass(slots=True)
class WorkerHandle:
    """One live worker incarnation, as the supervisor tracks it."""

    slot: int
    generation: int
    owner_id: str
    port: int
    process: asyncio.subprocess.Process

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.returncode is None

    def describe(self) -> dict[str, Any]:
        return {
            "slot": self.slot,
            "generation": self.generation,
            "owner": self.owner_id,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive,
        }


def _worker_env() -> dict[str, str]:
    """The subprocess environment: inherit everything, make sure the
    package root is importable (the fleet may be driven from a checkout
    that was put on ``sys.path`` rather than installed)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


class Fleet:
    """Spawn, watch and respawn the worker subprocesses.

    Lives on the router's event loop.  ``on_respawn`` (set by the
    router) is awaited after a dead slot comes back, so the router can
    rebalance the sessions that failed over to survivors while the
    slot was down."""

    def __init__(self, config: FleetConfig):
        if config.workers < 1:
            raise ValueError("workers must be positive")
        self.config = config
        self.workers: list[WorkerHandle | None] = [None] * config.workers
        self.on_respawn: (
            Callable[[WorkerHandle], Awaitable[None]] | None
        ) = None
        self.respawns_total = 0
        self._generation = 0
        self._closing = False
        self._monitors: set[asyncio.Task] = set()

    @property
    def size(self) -> int:
        return self.config.workers

    def alive(self, slot: int) -> WorkerHandle | None:
        handle = self.workers[slot]
        return handle if handle is not None and handle.alive else None

    def live_handles(self) -> list[WorkerHandle]:
        return [h for h in self.workers if h is not None and h.alive]

    async def start(self) -> None:
        for slot in range(self.size):
            await self.spawn(slot)

    async def spawn(self, slot: int) -> WorkerHandle:
        """Launch one worker and block until its READY handshake."""
        self._generation += 1
        generation = self._generation
        # Unique per incarnation: a respawned slot must never be able
        # to renew (or be fenced as) its predecessor's leases.
        owner_id = f"w{slot}g{generation}"
        payload = self.config.worker_payload(slot, owner_id)
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.service.fleet_worker",
            json.dumps(payload),
            stdout=asyncio.subprocess.PIPE,
            env=_worker_env(),
        )
        try:
            port = await asyncio.wait_for(
                self._await_ready(process), self.config.spawn_timeout
            )
        except BaseException:
            if process.returncode is None:
                process.kill()
            raise
        handle = WorkerHandle(
            slot=slot,
            generation=generation,
            owner_id=owner_id,
            port=port,
            process=process,
        )
        self.workers[slot] = handle
        monitor = asyncio.ensure_future(self._watch(handle))
        self._monitors.add(monitor)
        monitor.add_done_callback(self._monitors.discard)
        return handle

    @staticmethod
    async def _await_ready(
        process: asyncio.subprocess.Process,
    ) -> int:
        while True:
            line = await process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"fleet worker (pid {process.pid}) exited before "
                    f"announcing readiness"
                )
            match = _READY_PATTERN.search(line)
            if match:
                return int(match.group(1))

    async def _watch(self, handle: WorkerHandle) -> None:
        """Respawn the slot when this incarnation dies uncommanded."""
        await handle.process.wait()
        if self._closing or self.workers[handle.slot] is not handle:
            return
        self.workers[handle.slot] = None
        self.respawns_total += 1
        replacement = await self.spawn(handle.slot)
        if self.on_respawn is not None:
            await self.on_respawn(replacement)

    def kill(self, slot: int) -> int:
        """SIGKILL one worker (crash-testing hook); returns its pid."""
        handle = self.workers[slot]
        if handle is None or not handle.alive:
            raise RuntimeError(f"no live worker in slot {slot}")
        handle.process.kill()
        return handle.pid

    async def terminate(self, timeout: float = 15.0) -> None:
        """SIGTERM every worker (each drains) and reap them all."""
        self._closing = True
        handles = [h for h in self.workers if h is not None]
        for handle in handles:
            if handle.alive:
                handle.process.terminate()
        for handle in handles:
            try:
                await asyncio.wait_for(handle.process.wait(), timeout)
            except asyncio.TimeoutError:
                handle.process.kill()
                await handle.process.wait()
        for monitor in list(self._monitors):
            monitor.cancel()


# --- in-process harness ------------------------------------------------------


class FleetServer:
    """Router + worker fleet on a background thread.

    The multi-process twin of :class:`~repro.service.app.ServiceServer`;
    tests and benchmarks point an ordinary
    :class:`~repro.service.client.ServiceClient` at ``host:port`` and
    get the whole fleet behind it.

    Usage::

        config = FleetConfig(store_path=..., workers=2)
        with FleetServer(config) as server:
            client = ServiceClient(server.host, server.port)
            ...
            server.kill_worker(0)   # SIGKILL; sessions fail over
    """

    def __init__(self, config: FleetConfig):
        self.config = config
        self.host: str | None = None
        self.port: int | None = None
        self.fleet: Fleet | None = None
        self.router = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._drain_on_close = False
        self._startup_error: BaseException | None = None
        #: slot -> generation we SIGKILLed last; wait_for_slot waits
        #: for a *newer* incarnation (right after the kill the dead
        #: handle still reads alive until the supervisor reaps it).
        self._killed_generation: dict[int, int] = {}

    def start(self) -> "FleetServer":
        if self._thread is not None:
            raise RuntimeError("fleet server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet", daemon=True
        )
        self._thread.start()
        if not self._started.wait(
            timeout=self.config.spawn_timeout * self.config.workers + 30
        ):
            raise RuntimeError("fleet failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"fleet failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        from .router import FleetRouter

        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                self.fleet = Fleet(self.config)
                await self.fleet.start()
                self.router = FleetRouter(self.fleet)
                server = await self.router.start(self.config.host, 0)
                sockname = server.sockets[0].getsockname()
                self.host, self.port = sockname[0], sockname[1]
                self._stop = asyncio.Event()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            await self._stop.wait()
            await self.router.shutdown(drain=self._drain_on_close)

        try:
            loop.run_until_complete(main())
        except Exception:
            pass
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    # -- crash-testing hooks --------------------------------------------------

    def worker_pids(self) -> list[int | None]:
        return [
            handle.pid if handle is not None else None
            for handle in self.fleet.workers
        ]

    def kill_worker(self, slot: int) -> int:
        """SIGKILL one worker from the calling thread."""
        future = asyncio.run_coroutine_threadsafe(
            self._kill(slot), self._loop
        )
        pid, generation = future.result(timeout=30)
        self._killed_generation[slot] = generation
        return pid

    async def _kill(self, slot: int) -> tuple[int, int]:
        handle = self.fleet.workers[slot]
        generation = handle.generation if handle is not None else 0
        return self.fleet.kill(slot), generation

    def wait_for_slot(self, slot: int, timeout: float = 60.0) -> int:
        """Block until ``slot`` has a live worker of a *newer*
        incarnation than the last one killed; returns its pid."""
        threshold = self._killed_generation.get(slot, 0)
        deadline = time.time() + timeout
        while time.time() < deadline:
            handle = self.fleet.workers[slot]
            if (
                handle is not None
                and handle.alive
                and handle.generation > threshold
            ):
                return handle.pid
            time.sleep(0.05)
        raise TimeoutError(f"slot {slot} did not respawn in {timeout}s")

    def close(self, drain: bool = False) -> None:
        """Stop the router (optionally draining every worker first)."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        self._drain_on_close = drain
        if self._stop is not None:
            loop.call_soon_threadsafe(self._stop.set)
        thread.join(timeout=60)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "FleetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
