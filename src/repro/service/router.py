"""The fleet's front router: one public port, N worker processes.

A thin stdlib-asyncio HTTP/1.1 proxy speaking the *existing* service
protocol — clients cannot tell a fleet from a single server.  Every
request is routed by **session id**:

* ``POST /sessions`` and ``POST /sessions/resume`` have no id yet, so
  the router mints one (it must know the id *before* it can pick the
  worker) and passes it down via the internal ``x-fleet-session-id``
  header; the worker creates the session under exactly that id.
* ``/sessions/{id}/...`` goes to the id's **home slot** —
  ``crc32(id) % workers``, a stable partition every router restart
  recomputes identically (unlike Python's per-process ``hash``) — so a
  session's whole life is served by one process and its in-memory
  state (speculation trees, batched kernels) stays hot.
* ``/stats``, ``/sessions`` (list), ``/builds`` and ``/dashboard``
  fan out to every live worker and aggregate; ``/fleet`` is the
  router's own view (slots, pids, generations, failover counters).

**Streaming (PR 10).**  The two SSE routes are proxied, not
dispatched: the router forwards the worker's chunked response *one
complete chunk at a time* (each chunk is exactly one SSE frame, by
construction on the worker side), so a worker dying mid-frame can
never leak a torn frame to a client.  A mid-stream worker death
surfaces as a clean, retryable ``reconnect`` event followed by a
proper end-of-stream — never a silent hang — and the client
resubscribes, landing on the failover survivor exactly like any other
request.  ``GET /events/stream`` multiplexes every worker's service
feed into one client stream, reattaching to respawned slots
automatically.

**Failover.**  When the home worker is unreachable (SIGKILLed, or
mid-respawn), the router picks a live survivor, records the *override*
``session → survivor slot``, and re-sends.  The survivor rehydrates the
session from the shared store behind the lease takeover: it waits out
the dead owner's lease TTL, bumps the fencing epoch, and replays the
checkpoint + journal tail bit-for-bit.  A request is only re-sent when
that is provably safe: the bytes never reached a worker (connect
refused), or the method is an idempotent GET — a mutating request that
died mid-flight is answered 503 and left to the client.

**Rebalance.**  The supervisor respawns the dead slot; once it is back,
the router asks each survivor to ``/control/demote`` the sessions it
was covering (checkpoint + flush + lease release) and clears the
overrides — the next touch rehydrates each session on its home slot.

**Drain.**  ``shutdown(drain=True)`` (the CLI's SIGTERM path) stops
accepting, tells every live worker to ``/control/drain`` — demoting
every durable session and releasing every lease — and only then
terminates the fleet, so a redeploy loses nothing and leaves no lease
for a successor fleet to wait out.
"""

from __future__ import annotations

import asyncio
import json
import uuid
import zlib
from typing import Any

from .app import _STREAM_HEAD, _chunk, _read_request, _response_bytes
from .events import SERVICE_FEED, sse_frame
from .fleet import Fleet, WorkerHandle
from .protocol import BadRequest

__all__ = ["FleetRouter", "WorkerUnavailable"]

_POOL_PER_WORKER = 32

#: Poll interval while a service-feed pump waits out a slot respawn.
_REATTACH_INTERVAL = 0.2


class _ClientGone(Exception):
    """The downstream client closed its stream connection."""


class WorkerUnavailable(Exception):
    """A proxied request could not complete against its worker.

    ``sent`` distinguishes the two failure points: ``False`` means the
    connection never carried the request (retrying anywhere is safe),
    ``True`` means the worker may have processed it (only idempotent
    requests may be retried)."""

    def __init__(self, slot: int, reason: str, *, sent: bool):
        super().__init__(f"worker slot {slot}: {reason}")
        self.slot = slot
        self.sent = sent


class FleetRouter:
    """Route public requests onto the fleet's worker processes."""

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        fleet.on_respawn = self._rebalance
        #: session_id -> slot currently covering it instead of its home
        #: slot (set on failover, cleared by rebalance/delete).
        self.overrides: dict[str, int] = {}
        #: (slot, generation) -> idle pooled connections; keyed by
        #: generation so a respawned slot never inherits sockets to its
        #: dead predecessor.
        self._pools: dict[tuple[int, int], list[tuple]] = {}
        self._server: asyncio.base_events.Server | None = None
        #: Live client-connection tasks, cancelled on shutdown so a
        #: keep-alive connection can't outlive the event loop.
        self._connections: set[asyncio.Task] = set()
        self.proxied_total = 0
        self.failovers_total = 0
        self.rebalanced_total = 0
        self.unavailable_total = 0

    # --- routing -------------------------------------------------------------

    def slot_of(self, session_id: str) -> int:
        return zlib.crc32(session_id.encode("utf-8")) % self.fleet.size

    def _pick_live(self, exclude: int | None = None) -> WorkerHandle | None:
        """A live worker, preferring slots other than ``exclude``;
        deterministic order so one dead slot's sessions all land on the
        same survivor (their rehydrations share its index cache)."""
        handles = self.fleet.live_handles()
        for handle in handles:
            if handle.slot != exclude:
                return handle
        return handles[0] if handles else None

    def _home_handle(
        self, session_id: str
    ) -> tuple[int, WorkerHandle | None]:
        slot = self.overrides.get(session_id)
        if slot is not None:
            handle = self.fleet.alive(slot)
            if handle is not None:
                return slot, handle
            # The covering worker died too: fall back to the home slot.
            del self.overrides[session_id]
        slot = self.slot_of(session_id)
        return slot, self.fleet.alive(slot)

    # --- worker-side HTTP ----------------------------------------------------

    async def _checkout(self, handle: WorkerHandle):
        pool = self._pools.get((handle.slot, handle.generation))
        while pool:
            reader, writer = pool.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        return await asyncio.open_connection(
            self.fleet.config.host, handle.port
        )

    def _checkin(self, handle: WorkerHandle, reader, writer) -> None:
        key = (handle.slot, handle.generation)
        pool = self._pools.setdefault(key, [])
        if len(pool) < _POOL_PER_WORKER and not writer.is_closing():
            pool.append((reader, writer))
        else:
            writer.close()

    async def proxy(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes,
        extra_headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        """One raw round-trip against one worker (keep-alive pooled)."""
        fresh = False
        try:
            reader, writer = await self._checkout(handle)
        except OSError as exc:
            raise WorkerUnavailable(
                handle.slot, f"connect failed: {exc}", sent=False
            ) from exc
        try:
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {self.fleet.config.host}:{handle.port}",
                f"Content-Length: {len(body)}",
                "Content-Type: application/json",
                "Connection: keep-alive",
            ]
            for name, value in (extra_headers or {}).items():
                head.append(f"{name}: {value}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body
            )
            await writer.drain()
            status, response_body = await self._read_worker_response(
                reader
            )
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            writer.close()
            if not fresh:
                # A pooled keep-alive socket can be stale (worker
                # restarted, idle timeout): retry once on a fresh
                # connection before declaring the worker gone.
                try:
                    reader, writer = await asyncio.open_connection(
                        self.fleet.config.host, handle.port
                    )
                except OSError as exc2:
                    raise WorkerUnavailable(
                        handle.slot,
                        f"connect failed: {exc2}",
                        sent=False,
                    ) from exc2
                fresh = True
                try:
                    writer.write(
                        ("\r\n".join(head) + "\r\n\r\n").encode("ascii")
                        + body
                    )
                    await writer.drain()
                    status, response_body = (
                        await self._read_worker_response(reader)
                    )
                except (
                    OSError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ) as exc3:
                    writer.close()
                    raise WorkerUnavailable(
                        handle.slot, f"request failed: {exc3}", sent=True
                    ) from exc3
            else:
                raise WorkerUnavailable(
                    handle.slot, f"request failed: {exc}", sent=True
                ) from exc
        self._checkin(handle, reader, writer)
        self.proxied_total += 1
        return status, response_body

    @staticmethod
    async def _read_worker_response(reader) -> tuple[int, bytes]:
        line = await reader.readline()
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(line.split()[1])
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return status, body

    def proxy_json(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        payload: Any = None,
    ):
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else b""
        )
        return self.proxy(handle, method, path, body)

    # --- request handling ----------------------------------------------------

    async def dispatch_raw(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        """Route one public request; returns ``(status, body bytes)``."""
        parts = [p for p in path.split("/") if p]
        if parts == ["fleet"]:
            return await self._aggregate_fleet()
        if parts == ["stats"] or not parts:
            return await self._aggregate_stats()
        if parts == ["builds"]:
            return await self._aggregate_builds()
        if parts == ["dashboard"]:
            return await self._aggregate_dashboard()
        if parts == ["sessions"] and method == "GET":
            return await self._aggregate_sessions()
        creating = (parts == ["sessions"] and method == "POST") or (
            parts == ["sessions", "resume"] and method == "POST"
        )
        if creating:
            return await self._create(method, path, body)
        if parts and parts[0] == "sessions" and len(parts) >= 2:
            return await self._session_request(
                parts[1], method, path, body
            )
        return self._json(
            404, {"error": "not_found", "message": f"no route {path!r}"}
        )

    async def _create(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        """Mint the session id, pick its home worker, pass the id down.

        A create that fails mid-flight is *not* retried elsewhere — the
        first worker might have admitted the session; answering 503 and
        letting the client re-create keeps at-most-one alive."""
        session_id = uuid.uuid4().hex[:16]
        slot = self.slot_of(session_id)
        handle = self.fleet.alive(slot)
        if handle is None:
            # Home slot is mid-respawn: cover the new session on a
            # survivor, exactly like a failover of an existing one.
            handle = self._pick_live(exclude=slot)
            if handle is None:
                return self._no_workers()
            self.overrides[session_id] = handle.slot
            self.failovers_total += 1
        try:
            return await self.proxy(
                handle,
                method,
                path,
                body,
                extra_headers={"x-fleet-session-id": session_id},
            )
        except WorkerUnavailable:
            self.unavailable_total += 1
            self.overrides.pop(session_id, None)
            return self._unavailable()

    async def _session_request(
        self, session_id: str, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        slot, handle = self._home_handle(session_id)
        if handle is not None:
            try:
                status, response = await self.proxy(
                    handle, method, path, body
                )
            except WorkerUnavailable as exc:
                if not exc.sent and method != "GET":
                    # The request bytes never left the router, so a
                    # mutating request is still safe to fail over.
                    pass
                elif method != "GET":
                    self.unavailable_total += 1
                    return self._unavailable()
            else:
                if method == "DELETE" and status < 400:
                    self.overrides.pop(session_id, None)
                return status, response
        # Home (or covering) worker is gone: fail over to a survivor,
        # which takes the session's lease over and rehydrates it.
        survivor = self._pick_live(exclude=slot)
        if survivor is None:
            return self._no_workers()
        self.overrides[session_id] = survivor.slot
        self.failovers_total += 1
        try:
            status, response = await self.proxy(
                survivor, method, path, body
            )
        except WorkerUnavailable:
            self.unavailable_total += 1
            self.overrides.pop(session_id, None)
            return self._unavailable()
        if method == "DELETE" and status < 400:
            self.overrides.pop(session_id, None)
        return status, response

    # --- aggregation ---------------------------------------------------------

    async def _fan_out(
        self, method: str, path: str
    ) -> list[tuple[WorkerHandle, dict[str, Any]]]:
        handles = self.fleet.live_handles()
        results = await asyncio.gather(
            *(self.proxy_json(h, method, path) for h in handles),
            return_exceptions=True,
        )
        payloads = []
        for handle, result in zip(handles, results):
            if isinstance(result, BaseException):
                continue
            status, body = result
            if status >= 400:
                continue
            payloads.append((handle, json.loads(body)))
        return payloads

    def fleet_payload(self) -> dict[str, Any]:
        return {
            "workers": self.fleet.size,
            "alive": len(self.fleet.live_handles()),
            "respawns_total": self.fleet.respawns_total,
            "failovers_total": self.failovers_total,
            "rebalanced_total": self.rebalanced_total,
            "proxied_total": self.proxied_total,
            "unavailable_total": self.unavailable_total,
            "overrides": len(self.overrides),
            "slots": [
                handle.describe() if handle is not None else None
                for handle in self.fleet.workers
            ],
        }

    async def _aggregate_fleet(self) -> tuple[int, bytes]:
        """``GET /fleet``: the router's own view (:meth:`fleet_payload`)
        plus fleet-wide memory, shared-index and plan-cache aggregates
        drawn from every live worker's ``/stats``."""
        payload = self.fleet_payload()
        gathered = await self._fan_out("GET", "/stats")
        by_slot: dict[str, Any] = {}
        rss_total = 0
        private_total = 0
        shared_max = 0
        attach_hits = builds = publishes = 0
        plan_local = plan_computes = plan_entries = 0
        for handle, stats in gathered:
            memory = stats.get("memory") or {}
            cache = stats.get("index_cache") or {}
            plan = stats.get("plan_cache") or {}
            private = int(memory.get("index_private_bytes", 0))
            shared = int(memory.get("index_shared_bytes", 0))
            by_slot[str(handle.slot)] = {
                "rss_bytes": memory.get("rss_bytes"),
                "index_private_bytes": private,
                "index_shared_bytes": shared,
                "attach_hits": cache.get("attach_hits", 0),
                "builds": cache.get("builds", 0),
                "publishes": cache.get("publishes", 0),
                "plan_local_hits": plan.get("local_hits", 0),
                "plan_computes": plan.get("computes", 0),
            }
            rss_total += int(memory.get("rss_bytes") or 0)
            private_total += private
            shared_max = max(shared_max, shared)
            attach_hits += int(cache.get("attach_hits", 0))
            builds += int(cache.get("builds", 0))
            publishes += int(cache.get("publishes", 0))
            plan_local += int(plan.get("local_hits", 0))
            plan_computes += int(plan.get("computes", 0))
            plan_entries += int(plan.get("entries", 0))
        payload["memory"] = {
            "rss_bytes_total": rss_total,
            "index_private_bytes_total": private_total,
            # A shared segment is one machine-wide copy however many
            # workers map it: aggregate across workers by max, not sum.
            "index_shared_bytes": shared_max,
            "index_resident_bytes_total": private_total + shared_max,
            "by_slot": by_slot,
        }
        payload["shared_index"] = {
            "attach_hits_total": attach_hits,
            "builds_total": builds,
            "publishes_total": publishes,
        }
        payload["plan_cache"] = {
            "local_hits_total": plan_local,
            "computes_total": plan_computes,
            "entries_total": plan_entries,
        }
        return self._json(200, payload)

    async def _aggregate_stats(self) -> tuple[int, bytes]:
        gathered = await self._fan_out("GET", "/stats")
        return self._json(
            200,
            {
                "fleet": self.fleet_payload(),
                "sessions": sum(
                    p.get("sessions", 0) for _, p in gathered
                ),
                "workers": {
                    str(handle.slot): payload
                    for handle, payload in gathered
                },
            },
        )

    async def _aggregate_builds(self) -> tuple[int, bytes]:
        gathered = await self._fan_out("GET", "/builds")
        builds = [
            build
            for _, payload in gathered
            for build in payload.get("builds", [])
        ]
        return self._json(
            200, {"builds": builds, "in_flight": len(builds)}
        )

    async def _aggregate_dashboard(self) -> tuple[int, bytes]:
        return self._json(200, await self._dashboard_payload())

    async def _dashboard_payload(self) -> dict[str, Any]:
        """Merge every worker's ``GET /dashboard`` into one fleet view.

        Workers maintain their aggregates incrementally and every leaf
        under ``totals``/``by_kind``/``by_source``/``by_strategy`` is a
        summable integer, so the fleet dashboard is key-wise addition —
        no rescan anywhere.  ``uptime_seconds`` aggregates by max (the
        oldest surviving worker)."""
        gathered = await self._fan_out("GET", "/dashboard")
        totals: dict[str, int] = {}
        by_kind: dict[str, int] = {}
        by_source: dict[str, int] = {}
        by_strategy: dict[str, dict[str, int]] = {}
        by_slot: dict[str, Any] = {}
        uptime = 0.0
        for handle, payload in gathered:
            for key, value in (payload.get("totals") or {}).items():
                totals[key] = totals.get(key, 0) + int(value)
            for key, value in (payload.get("by_kind") or {}).items():
                by_kind[key] = by_kind.get(key, 0) + int(value)
            for key, value in (payload.get("by_source") or {}).items():
                by_source[key] = by_source.get(key, 0) + int(value)
            for name, row in (payload.get("by_strategy") or {}).items():
                merged = by_strategy.setdefault(name, {})
                for key, value in row.items():
                    merged[key] = merged.get(key, 0) + int(value)
            meta = payload.get("meta") or {}
            uptime = max(uptime, float(meta.get("uptime_seconds", 0.0)))
            by_slot[str(handle.slot)] = payload.get("totals") or {}
        return {
            "totals": totals,
            "by_kind": by_kind,
            "by_source": by_source,
            "by_strategy": by_strategy,
            "by_slot": by_slot,
            "meta": {
                "uptime_seconds": uptime,
                "workers": self.fleet.size,
                "alive": len(self.fleet.live_handles()),
            },
        }

    async def _aggregate_sessions(self) -> tuple[int, bytes]:
        """Merge every worker's ``GET /sessions`` into one fleet view.

        ``live``/``demoted`` sum; ``recoverable`` cannot (each worker
        counts every stored-but-not-local session, including sessions
        live on its peers) — the shared store's total is recovered as
        ``max(live_i + recoverable_i)`` and the fleet-wide recoverable
        count is that total minus everything live anywhere."""
        gathered = await self._fan_out("GET", "/sessions")
        sessions = [
            entry
            for _, payload in gathered
            for entry in payload.get("sessions", [])
        ]
        live = sum(p.get("live", 0) for _, p in gathered)
        stored_total = max(
            (
                p.get("live", 0) + p.get("recoverable", 0)
                for _, p in gathered
            ),
            default=0,
        )
        return self._json(
            200,
            {
                "sessions": sessions,
                "live": live,
                "demoted": sum(p.get("demoted", 0) for _, p in gathered),
                "recoverable": max(0, stored_total - live),
            },
        )

    # --- stream proxying -----------------------------------------------------

    def _stream_request(self, handle: WorkerHandle, path: str) -> bytes:
        """The upstream GET for a stream subscription — a dedicated,
        non-pooled connection (``Connection: close``): a stream owns
        its socket for its whole life, so pooling gains nothing and a
        mid-stream death must kill exactly one subscription."""
        return (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {self.fleet.config.host}:{handle.port}\r\n"
            f"Content-Length: 0\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("ascii")

    @staticmethod
    async def _read_response_head(
        reader,
    ) -> tuple[int, dict[str, str]]:
        line = await reader.readline()
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(line.split()[1])
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    @staticmethod
    async def _read_chunk(reader) -> bytes | None:
        """One complete HTTP chunk payload; ``None`` on the terminal
        0-chunk.  Reading whole chunks (and re-emitting them whole) is
        what makes the proxy frame-atomic: a worker death between
        chunks loses nothing, a death *mid*-chunk raises here and the
        partial frame is dropped instead of forwarded."""
        size_line = await reader.readline()
        if not size_line:
            raise asyncio.IncompleteReadError(b"", None)
        size = int(size_line.strip().split(b";")[0], 16)
        if size == 0:
            await reader.readline()  # trailing CRLF of the last chunk
            return None
        payload = await reader.readexactly(size)
        await reader.readexactly(2)  # chunk-terminating CRLF
        return payload

    async def _open_session_stream(self, session_id: str, path: str):
        """Connect to the session's worker and read the response head,
        failing over (with an override, like any session request) when
        the home worker is unreachable.  Subscribing is idempotent, so
        retrying on a survivor is always safe — unlike a mutating
        request, a subscription that half-landed on a dead worker has
        no effect a client could observe."""
        slot, handle = self._home_handle(session_id)
        tried_failover = False
        while True:
            if handle is None:
                survivor = self._pick_live(exclude=slot)
                if survivor is None:
                    return None
                self.overrides[session_id] = survivor.slot
                self.failovers_total += 1
                handle = survivor
                tried_failover = True
            try:
                reader, writer = await asyncio.open_connection(
                    self.fleet.config.host, handle.port
                )
            except OSError:
                reader = writer = None
            if reader is not None:
                try:
                    writer.write(self._stream_request(handle, path))
                    await writer.drain()
                    status, headers = await self._read_response_head(
                        reader
                    )
                    return handle, reader, writer, status, headers
                except (
                    OSError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    writer.close()
            self.unavailable_total += 1
            if tried_failover:
                return None
            slot, handle = handle.slot, None

    def _reconnect_frame(
        self, topic: str, slot: int, **extra: Any
    ) -> bytes:
        """The SSE event a client sees instead of a hang when its
        stream's worker dies: explicitly retryable — resubscribe and
        the router fails the new subscription over to a survivor."""
        return sse_frame(
            {
                "event": "reconnect",
                "topic": topic,
                "seq": 0,
                "retryable": True,
                "reason": "worker_unavailable",
                "slot": slot,
                **extra,
            }
        )

    async def _proxy_session_stream(
        self, writer, session_id: str, path: str
    ) -> None:
        """``GET /sessions/{id}/stream``: forward the worker's SSE
        stream chunk-by-chunk; on mid-stream worker death emit a
        ``reconnect`` event and a clean end-of-stream."""
        opened = await self._open_session_stream(session_id, path)
        if opened is None:
            writer.write(self._raw_response(*self._unavailable()))
            await writer.drain()
            return
        handle, up_reader, up_writer, status, headers = opened
        try:
            chunked = (
                headers.get("transfer-encoding", "").lower() == "chunked"
            )
            if not chunked:
                # Not a stream (e.g. a 404 for an unknown session):
                # relay the JSON error as an ordinary response.
                length = int(headers.get("content-length", "0") or "0")
                body = (
                    await up_reader.readexactly(length) if length else b""
                )
                writer.write(self._raw_response(status, body))
                await writer.drain()
                return
            self.proxied_total += 1
            writer.write(_STREAM_HEAD)
            await writer.drain()
            while True:
                try:
                    payload = await self._read_chunk(up_reader)
                except (
                    OSError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    # Worker died mid-stream (SIGKILL, crash): a clean
                    # retryable event, then a proper end-of-stream —
                    # the client resubscribes and lands on a survivor.
                    self.unavailable_total += 1
                    writer.write(
                        _chunk(
                            self._reconnect_frame(
                                session_id,
                                handle.slot,
                                session_id=session_id,
                            )
                        )
                        + b"0\r\n\r\n"
                    )
                    await writer.drain()
                    return
                if payload is None:
                    writer.write(b"0\r\n\r\n")
                    await writer.drain()
                    return
                writer.write(_chunk(payload))
                await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            OSError,
            asyncio.CancelledError,
        ):
            pass  # client went away, or router shutdown
        finally:
            up_writer.close()

    async def _client_write(self, writer, lock, data: bytes) -> None:
        try:
            async with lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise _ClientGone() from exc

    async def _proxy_service_stream(self, writer) -> None:
        """``GET /events/stream``: multiplex every worker's service
        feed into one client stream.  One pump task per slot forwards
        chunks under a shared write lock; a dead slot's pump emits a
        ``reconnect`` event and reattaches once the supervisor has
        respawned the worker, so one subscription observes the whole
        fleet across failovers."""
        try:
            writer.write(_STREAM_HEAD)
            writer.write(
                _chunk(
                    sse_frame(
                        {
                            "event": "hello",
                            "topic": SERVICE_FEED,
                            "seq": 0,
                            "dashboard": await self._dashboard_payload(),
                        }
                    )
                )
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return
        lock = asyncio.Lock()
        stop = asyncio.Event()
        pumps = [
            asyncio.ensure_future(
                self._pump_service_slot(slot, writer, lock, stop)
            )
            for slot in range(self.fleet.size)
        ]
        try:
            await stop.wait()
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)

    async def _pump_service_slot(
        self, slot: int, writer, lock, stop
    ) -> None:
        """Forward one slot's service feed until the client goes away;
        across worker deaths: reconnect event → wait for respawn →
        fresh subscription (whose ``hello`` carries the respawned
        worker's dashboard snapshot, so the client re-baselines)."""
        try:
            while not stop.is_set():
                handle = self.fleet.alive(slot)
                if handle is None:
                    await asyncio.sleep(_REATTACH_INTERVAL)
                    continue
                try:
                    up_reader, up_writer = await asyncio.open_connection(
                        self.fleet.config.host, handle.port
                    )
                except OSError:
                    await asyncio.sleep(_REATTACH_INTERVAL)
                    continue
                try:
                    up_writer.write(
                        self._stream_request(handle, "/events/stream")
                    )
                    await up_writer.drain()
                    status, headers = await self._read_response_head(
                        up_reader
                    )
                    if (
                        status != 200
                        or headers.get("transfer-encoding", "").lower()
                        != "chunked"
                    ):
                        await asyncio.sleep(_REATTACH_INTERVAL)
                        continue
                    while True:
                        payload = await self._read_chunk(up_reader)
                        if payload is None:
                            break  # worker closed cleanly: reattach
                        await self._client_write(
                            writer, lock, _chunk(payload)
                        )
                except (
                    OSError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    await self._client_write(
                        writer,
                        lock,
                        _chunk(
                            self._reconnect_frame(SERVICE_FEED, slot)
                        ),
                    )
                    await asyncio.sleep(_REATTACH_INTERVAL)
                finally:
                    up_writer.close()
        except _ClientGone:
            stop.set()
        except asyncio.CancelledError:
            pass

    # --- rebalance and drain -------------------------------------------------

    async def _rebalance(self, replacement: WorkerHandle) -> None:
        """A slot respawned: send its strayed sessions home.

        Each survivor demotes the sessions it was covering (checkpoint,
        flush, lease release); the overrides are cleared, so the next
        touch rehydrates each session on the respawned home slot."""
        slot = replacement.slot
        strayed: dict[int, list[str]] = {}
        for session_id, covering in self.overrides.items():
            if self.slot_of(session_id) == slot and covering != slot:
                strayed.setdefault(covering, []).append(session_id)
        for covering, session_ids in strayed.items():
            holder = self.fleet.alive(covering)
            if holder is None:
                # The covering worker died as well; its leases expire
                # on their own and the home slot takes the sessions
                # over on next touch — clearing the overrides is
                # still correct.
                cleared = session_ids
            else:
                try:
                    status, body = await self.proxy_json(
                        holder,
                        "POST",
                        "/control/demote",
                        {"session_ids": session_ids},
                    )
                except WorkerUnavailable:
                    cleared = session_ids
                else:
                    if status >= 400:
                        continue
                    # Only the sessions the holder actually demoted
                    # (checkpointed, flushed, lease released) go home;
                    # a skipped one is mid-rehydration on the holder —
                    # clearing its override now would point the home
                    # slot at a lease the holder is actively renewing.
                    cleared = json.loads(body).get("demoted", [])
            for session_id in cleared:
                self.overrides.pop(session_id, None)
                self.rebalanced_total += 1

    async def drain(self) -> dict[str, Any]:
        """Ask every live worker to demote all sessions and release
        all leases (the graceful-shutdown barrier)."""
        demoted: dict[str, list[str]] = {}
        for handle in self.fleet.live_handles():
            try:
                status, body = await self.proxy_json(
                    handle, "POST", "/control/drain"
                )
            except WorkerUnavailable:
                continue
            if status < 400:
                demoted[str(handle.slot)] = json.loads(body).get(
                    "demoted", []
                )
        return demoted

    # --- HTTP front ----------------------------------------------------------

    @staticmethod
    def _json(status: int, payload: dict[str, Any]) -> tuple[int, bytes]:
        return status, json.dumps(payload).encode("utf-8")

    def _unavailable(self) -> tuple[int, bytes]:
        return self._json(
            503,
            {
                "error": "worker_unavailable",
                "message": (
                    "the session's worker is restarting; retry shortly"
                ),
            },
        )

    def _no_workers(self) -> tuple[int, bytes]:
        return self._json(
            503,
            {
                "error": "no_workers",
                "message": "no live worker processes",
            },
        )

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.CancelledError,
                ):
                    break
                except (ValueError, BadRequest) as exc:
                    writer.write(
                        _response_bytes(
                            400,
                            {
                                "error": "bad_request",
                                "message": str(exc),
                            },
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, body, keep_alive, _headers = request
                parts = [p for p in path.split("/") if p]
                if method == "GET" and (
                    parts == ["events", "stream"]
                    or (
                        len(parts) == 3
                        and parts[0] == "sessions"
                        and parts[2] == "stream"
                    )
                ):
                    # Streaming upgrade: the connection belongs to the
                    # proxied stream until it ends, never reused.
                    try:
                        if parts == ["events", "stream"]:
                            await self._proxy_service_stream(writer)
                        else:
                            await self._proxy_session_stream(
                                writer, parts[1], path
                            )
                    except asyncio.CancelledError:
                        pass
                    break
                try:
                    status, response = await self.dispatch_raw(
                        method, path, body
                    )
                except asyncio.CancelledError:
                    break
                except Exception as exc:  # noqa: BLE001 - barrier
                    status, response = self._json(
                        500,
                        {
                            "error": "internal_error",
                            "message": str(exc),
                        },
                    )
                writer.write(self._raw_response(status, response))
                await writer.drain()
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _raw_response(status: int, body: bytes) -> bytes:
        from .app import _REASONS

        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("ascii")
        return head + body

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.base_events.Server:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        return self._server

    async def shutdown(self, drain: bool = False) -> None:
        """Stop serving; with ``drain`` every worker checkpoints,
        demotes and releases its sessions before the fleet is
        terminated (SIGTERM semantics for the whole deployment)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        if drain:
            await self.drain()
        for pool in self._pools.values():
            for _, pooled_writer in pool:
                pooled_writer.close()
        self._pools.clear()
        await self.fleet.terminate()
