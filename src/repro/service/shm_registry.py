"""Cross-process registry for shared-memory index segments.

PR 7 gave every fleet worker a private :class:`IndexCache`, so an
N-worker fleet holds N copies of each immutable ``SignatureIndex`` and
pays N cold builds.  This module makes the index a *machine* resource:
the first worker to need a fingerprint builds it, serializes it into one
``/dev/shm`` segment (:mod:`repro.core.index_shm`), and every other
worker attaches read-only views over the same mapping.

Coordination reuses the store's lease/epoch idiom (via
:mod:`.sqlite_util`), in a SQLite table beside the session store:

* **publisher single-flight** — a ``publishing`` row is a lease
  ``(owner, epoch, expires_at)``; concurrent workers see it and wait
  (bounded) for it to flip to ``ready`` instead of building again.
  Taking over an *expired* publish lease bumps both the epoch (fencing)
  and the segment **generation** — the new segment gets a new name, and
  ``finish_publish`` refuses a deposed publisher's stale generation.
* **refcounts** — every attacher (and the publisher itself) holds a row
  in ``shm_refs`` with a heartbeat-renewed expiry.  A ``ready`` segment
  with no live refs is garbage.
* **orphan reaping** — the reaper deletes expired ``publishing`` rows
  (``kill -9`` of a mid-build publisher) and ref-less ``ready`` rows,
  unlinking their segments; a belt-and-braces file scan also unlinks
  aged ``repro_idx_*`` files that have no registry row at all (crashes
  in the narrow window between segment creation and registration).

Unlinking a segment that a live process still maps is safe: the mapping
(and every index view over it) survives until that process closes it.
The reaper only reclaims the *name* and the backing pages' future.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..core import index_shm
from ..core.signatures import SignatureIndex
from ..relational.relation import Instance
from . import sqlite_util

__all__ = [
    "ShmRegistryError",
    "PublishTicket",
    "SegmentInfo",
    "ShmRegistry",
    "SharedIndexPlane",
]


class ShmRegistryError(RuntimeError):
    """The registry database could not be read or written."""


@dataclass(frozen=True, slots=True)
class PublishTicket:
    """Outcome of :meth:`ShmRegistry.begin_publish`.

    ``action`` is ``"publish"`` (caller holds the lease and must build),
    ``"wait"`` (someone else is publishing), or ``"ready"`` (a segment
    is already attachable).  ``stale_name`` is set on an expired-lease
    takeover: the previous generation's segment, to unlink best-effort.
    """

    action: str
    name: str
    generation: int
    epoch: int
    stale_name: str | None = None


@dataclass(frozen=True, slots=True)
class SegmentInfo:
    """A ready segment handed to an attacher (ref already recorded)."""

    name: str
    generation: int
    nbytes: int


def _segment_name(fingerprint: str, generation: int) -> str:
    # Fingerprints may be raw cache keys (e.g. ``builtin:{"name": ...}``)
    # whose characters shm_open cannot accept, so the segment name always
    # carries a hex slug of the fingerprint rather than the fingerprint
    # itself.
    slug = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:12]
    return f"{index_shm.SEGMENT_PREFIX}{slug}_g{generation}"


class ShmRegistry:
    """SQLite bookkeeping for shared ``/dev/shm`` segments.

    Lives in the same database file as the session store (its own
    connection, WAL mode) so one ``--store`` path configures the whole
    fleet's shared state.  All methods are thread-safe and every write
    runs inside one BEGIN IMMEDIATE transaction with the same bounded
    busy retry as the session store (:func:`sqlite_util.run_immediate`).
    """

    BUSY_RETRIES = sqlite_util.BUSY_RETRIES

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        busy_timeout: float = 5.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = os.fspath(path)
        self._clock = clock
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = (
            sqlite_util.connect_wal(self.path, busy_timeout=busy_timeout)
        )
        self._transact(self._create_tables)

    def _create_tables(self, connection: sqlite3.Connection) -> None:
        connection.execute(
            """
            CREATE TABLE IF NOT EXISTS shm_segments (
                fingerprint TEXT PRIMARY KEY,
                name        TEXT NOT NULL,
                generation  INTEGER NOT NULL,
                state       TEXT NOT NULL,
                nbytes      INTEGER NOT NULL DEFAULT 0,
                owner       TEXT NOT NULL,
                epoch       INTEGER NOT NULL,
                expires_at  REAL NOT NULL,
                created_at  REAL NOT NULL
            )
            """
        )
        connection.execute(
            """
            CREATE TABLE IF NOT EXISTS shm_refs (
                name       TEXT NOT NULL,
                owner      TEXT NOT NULL,
                expires_at REAL NOT NULL,
                PRIMARY KEY (name, owner)
            )
            """
        )

    def _require_connection(self) -> sqlite3.Connection:
        if self._connection is None:
            raise ShmRegistryError(f"registry {self.path!r} is closed")
        return self._connection

    def _transact(self, work: Any) -> Any:
        """One BEGIN IMMEDIATE transaction with bounded busy retry
        (the idiom shared with the session store — see
        :mod:`.sqlite_util`)."""
        with self._lock:
            connection = self._require_connection()
            return sqlite_util.run_immediate(
                connection,
                work,
                error=ShmRegistryError,
                subject=f"registry {self.path!r}",
                retries=self.BUSY_RETRIES,
            )

    # --- publish lifecycle ------------------------------------------------

    def begin_publish(
        self, fingerprint: str, owner: str, ttl_seconds: float
    ) -> PublishTicket:
        """Claim (or observe) the publish lease for ``fingerprint``."""
        now = self._clock()

        def work(connection: sqlite3.Connection) -> PublishTicket:
            row = connection.execute(
                "SELECT name, generation, state, owner, epoch,"
                " expires_at FROM shm_segments"
                " WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:
                name = _segment_name(fingerprint, 1)
                connection.execute(
                    "INSERT INTO shm_segments (fingerprint,"
                    " name, generation, state, nbytes, owner, epoch,"
                    " expires_at, created_at)"
                    " VALUES (?, ?, ?, 'publishing', 0, ?, 1, ?, ?)",
                    (fingerprint, name, 1, owner, now + ttl_seconds, now),
                )
                return PublishTicket("publish", name, 1, 1)
            name, generation, state, holder, epoch, expires_at = row
            if state == "ready":
                return PublishTicket("ready", name, generation, epoch)
            if holder == owner:
                # Re-entry by the current publisher: refresh the lease.
                connection.execute(
                    "UPDATE shm_segments SET expires_at = ?"
                    " WHERE fingerprint = ?",
                    (now + ttl_seconds, fingerprint),
                )
                return PublishTicket("publish", name, generation, epoch)
            if expires_at <= now:
                # Expired publisher: take over with a fenced epoch bump
                # and a fresh generation (new segment name).
                new_generation = generation + 1
                new_name = _segment_name(fingerprint, new_generation)
                connection.execute(
                    "UPDATE shm_segments SET name = ?,"
                    " generation = ?, owner = ?, epoch = epoch + 1,"
                    " expires_at = ?, created_at = ?"
                    " WHERE fingerprint = ?",
                    (
                        new_name,
                        new_generation,
                        owner,
                        now + ttl_seconds,
                        now,
                        fingerprint,
                    ),
                )
                return PublishTicket(
                    "publish",
                    new_name,
                    new_generation,
                    epoch + 1,
                    stale_name=name,
                )
            return PublishTicket("wait", name, generation, epoch)

        return self._transact(work)

    def finish_publish(
        self,
        fingerprint: str,
        owner: str,
        generation: int,
        nbytes: int,
        ref_ttl_seconds: float,
    ) -> bool:
        """Flip a publishing row to ready; False if the lease was lost.

        The publisher's own ref is recorded in the same transaction so a
        freshly ready segment is never momentarily ref-less.
        """
        now = self._clock()

        def work(connection: sqlite3.Connection) -> bool:
            row = connection.execute(
                "SELECT name, generation, state, owner FROM"
                " shm_segments WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if (
                row is None
                or row[1] != generation
                or row[2] != "publishing"
                or row[3] != owner
            ):
                return False
            connection.execute(
                "UPDATE shm_segments SET state = 'ready',"
                " nbytes = ?, expires_at = ? WHERE fingerprint = ?",
                (nbytes, now, fingerprint),
            )
            connection.execute(
                "INSERT OR REPLACE INTO shm_refs"
                " (name, owner, expires_at) VALUES (?, ?, ?)",
                (row[0], owner, now + ref_ttl_seconds),
            )
            return True

        return self._transact(work)

    def abort_publish(
        self, fingerprint: str, owner: str, generation: int
    ) -> bool:
        """Drop a publishing row we own (build failed / segment failed)."""

        def work(connection: sqlite3.Connection) -> bool:
            cursor = connection.execute(
                "DELETE FROM shm_segments WHERE"
                " fingerprint = ? AND owner = ? AND generation = ?"
                " AND state = 'publishing'",
                (fingerprint, owner, generation),
            )
            return cursor.rowcount > 0

        return self._transact(work)

    # --- attach / release -------------------------------------------------

    def acquire_attach(
        self, fingerprint: str, owner: str, ref_ttl_seconds: float
    ) -> SegmentInfo | None:
        """Record a ref on the ready segment for ``fingerprint``."""
        now = self._clock()

        def work(connection: sqlite3.Connection) -> SegmentInfo | None:
            row = connection.execute(
                "SELECT name, generation, nbytes FROM"
                " shm_segments"
                " WHERE fingerprint = ? AND state = 'ready'",
                (fingerprint,),
            ).fetchone()
            if row is None:
                return None
            connection.execute(
                "INSERT OR REPLACE INTO shm_refs"
                " (name, owner, expires_at) VALUES (?, ?, ?)",
                (row[0], owner, now + ref_ttl_seconds),
            )
            return SegmentInfo(row[0], row[1], row[2])

        return self._transact(work)

    def forget_segment(self, fingerprint: str, name: str) -> None:
        """Drop a row whose segment turned out unusable (file gone or
        failed validation) so the next request republishes."""

        def work(connection: sqlite3.Connection) -> None:
            connection.execute(
                "DELETE FROM shm_segments WHERE"
                " fingerprint = ? AND name = ?",
                (fingerprint, name),
            )
            connection.execute(
                "DELETE FROM shm_refs WHERE name = ?",
                (name,),
            )

        self._transact(work)

    def heartbeat(self, owner: str, ttl_seconds: float) -> None:
        """Renew all of ``owner``'s refs and publish leases."""
        now = self._clock()

        def work(connection: sqlite3.Connection) -> None:
            connection.execute(
                "UPDATE shm_refs SET expires_at = ?"
                " WHERE owner = ?",
                (now + ttl_seconds, owner),
            )
            connection.execute(
                "UPDATE shm_segments SET expires_at = ?"
                " WHERE owner = ? AND state = 'publishing'",
                (now + ttl_seconds, owner),
            )

        self._transact(work)

    def release_owner(self, owner: str) -> list[str]:
        """Drop every ref and publish lease held by ``owner``.

        Returns the names of segments left with no live refs (their rows
        are deleted) — the caller unlinks them.
        """
        now = self._clock()

        def work(connection: sqlite3.Connection) -> list[str]:
            doomed = [
                row[0]
                for row in connection.execute(
                    "SELECT name FROM shm_segments"
                    " WHERE owner = ? AND state = 'publishing'",
                    (owner,),
                )
            ]
            connection.execute(
                "DELETE FROM shm_segments WHERE owner = ?"
                " AND state = 'publishing'",
                (owner,),
            )
            connection.execute(
                "DELETE FROM shm_refs WHERE owner = ?",
                (owner,),
            )
            for name, in connection.execute(
                "SELECT name FROM shm_segments"
                " WHERE state = 'ready' AND NOT EXISTS"
                " (SELECT 1 FROM shm_refs WHERE"
                " shm_refs.name = shm_segments.name"
                " AND expires_at > ?)",
                (now,),
            ).fetchall():
                doomed.append(name)
                connection.execute(
                    "DELETE FROM shm_segments"
                    " WHERE name = ?",
                    (name,),
                )
                connection.execute(
                    "DELETE FROM shm_refs WHERE name = ?",
                    (name,),
                )
            return doomed

        return self._transact(work)

    def reap(self) -> list[str]:
        """Collect garbage rows; returns segment names to unlink.

        Reaps expired ``publishing`` leases (crashed publishers), ready
        segments with no live refs, expired refs, and refs whose segment
        row is already gone.
        """
        now = self._clock()

        def work(connection: sqlite3.Connection) -> list[str]:
            connection.execute(
                "DELETE FROM shm_refs WHERE expires_at <= ?",
                (now,),
            )
            connection.execute(
                "DELETE FROM shm_refs WHERE name NOT IN"
                " (SELECT name FROM shm_segments)"
            )
            doomed = [
                row[0]
                for row in connection.execute(
                    "SELECT name FROM shm_segments WHERE"
                    " (state = 'publishing' AND expires_at <= ?)"
                    " OR (state = 'ready' AND NOT EXISTS"
                    " (SELECT 1 FROM shm_refs WHERE"
                    " shm_refs.name ="
                    " shm_segments.name))",
                    (now,),
                ).fetchall()
            ]
            for name in doomed:
                connection.execute(
                    "DELETE FROM shm_segments"
                    " WHERE name = ?",
                    (name,),
                )
                connection.execute(
                    "DELETE FROM shm_refs WHERE name = ?",
                    (name,),
                )
            return doomed

        return self._transact(work)

    def known_names(self) -> list[str]:
        """Names of every registered segment (any state)."""

        def work(connection: sqlite3.Connection) -> list[str]:
            return [
                row[0]
                for row in connection.execute(
                    "SELECT name FROM shm_segments"
                ).fetchall()
            ]

        return self._transact(work)

    def stats(self) -> dict[str, int]:
        """Row counts for observability."""

        def work(connection: sqlite3.Connection) -> dict[str, int]:
            ready = connection.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM"
                " shm_segments WHERE state = 'ready'"
            ).fetchone()
            publishing = connection.execute(
                "SELECT COUNT(*) FROM shm_segments WHERE"
                " state = 'publishing'"
            ).fetchone()[0]
            refs = connection.execute(
                "SELECT COUNT(*) FROM shm_refs"
            ).fetchone()[0]
            return {
                "ready_segments": ready[0],
                "ready_bytes": int(ready[1]),
                "publishing": publishing,
                "refs": refs,
            }

        return self._transact(work)

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None


class SharedIndexPlane:
    """Build-once / attach-many index sharing for one machine.

    Wraps a :class:`ShmRegistry` with the process-local side: mapped
    segment handles (kept open while any attached index may be alive), a
    daemon heartbeat that renews refs/leases and reaps orphans, and the
    attach→wait→build resolution used by :class:`IndexCache`.
    """

    def __init__(
        self,
        registry_path: str | os.PathLike[str],
        owner: str,
        *,
        ttl_seconds: float = 10.0,
        wait_timeout: float = 60.0,
        poll_interval: float = 0.02,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._registry = ShmRegistry(registry_path, clock=clock)
        self._owner = owner
        self._ttl = ttl_seconds
        self._wait_timeout = wait_timeout
        self._poll_interval = poll_interval
        self._lock = threading.Lock()
        self._segments: dict[str, Any] = {}
        self._attaches = 0
        self._publishes = 0
        self._private_fallbacks = 0
        self._waits = 0
        self._reaped = 0
        self._closed = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @classmethod
    def if_available(
        cls, registry_path: str | os.PathLike[str], owner: str, **kwargs
    ) -> "SharedIndexPlane | None":
        """A plane, or ``None`` when POSIX shared memory is unusable
        (graceful degradation to private per-process builds)."""
        if not index_shm.shared_memory_available():
            return None
        return cls(registry_path, owner, **kwargs)

    @property
    def owner(self) -> str:
        return self._owner

    # --- the cache-facing entry point ------------------------------------

    def get_or_build(
        self,
        fingerprint: str,
        instance: Instance,
        build: Callable[[Instance], SignatureIndex],
    ) -> tuple[SignatureIndex, str]:
        """Resolve ``fingerprint`` to an index, sharing when possible.

        Returns ``(index, kind)`` with ``kind`` one of ``"attach"`` (a
        sibling's segment was mapped), ``"publish"`` (this process built
        and published — the returned index is already the shm-backed
        view, so the private build's arrays are immediately dead), or
        ``"build"`` (degraded to a private index: publish wait timed
        out, the segment could not be created, or the lease was lost).
        """
        self._ensure_heartbeat()
        deadline = time.monotonic() + self._wait_timeout
        waited = False
        while True:
            attached = self._try_attach(fingerprint, instance)
            if attached is not None:
                return attached, "attach"
            ticket = self._registry.begin_publish(
                fingerprint, self._owner, self._ttl
            )
            if ticket.action == "ready":
                continue  # loop re-attaches
            if ticket.action == "wait":
                if not waited:
                    waited = True
                    self._waits += 1
                if time.monotonic() >= deadline:
                    self._private_fallbacks += 1
                    return build(instance), "build"
                time.sleep(self._poll_interval)
                continue
            # We hold the publish lease.
            if ticket.stale_name is not None:
                index_shm.unlink_segment(ticket.stale_name)
            try:
                index = build(instance)
            except BaseException:
                self._registry.abort_publish(
                    fingerprint, self._owner, ticket.generation
                )
                raise
            return self._publish(fingerprint, ticket, index)

    def _try_attach(
        self, fingerprint: str, instance: Instance
    ) -> SignatureIndex | None:
        info = self._registry.acquire_attach(
            fingerprint, self._owner, self._ttl
        )
        if info is None:
            return None
        with self._lock:
            shm = self._segments.get(info.name)
        if shm is None:
            try:
                shm, index = index_shm.attach_index(info.name, instance)
            except (FileNotFoundError, index_shm.ShmIndexError):
                # Segment vanished (reaped under us) or failed
                # validation: drop the row so the next caller rebuilds.
                self._registry.forget_segment(fingerprint, info.name)
                return None
            with self._lock:
                self._segments[info.name] = shm
        else:
            # Already mapped (e.g. the cache evicted and re-requested):
            # rebuild the cheap view structures over the same pages.
            index = index_shm.read_index(shm.buf, instance)
        self._attaches += 1
        return index

    def _publish(
        self, fingerprint: str, ticket: PublishTicket, index: SignatureIndex
    ) -> tuple[SignatureIndex, str]:
        name = ticket.name
        try:
            try:
                shm = index_shm.publish_index(index, name)
            except FileExistsError:
                # A row-less file left by a crashed prior incarnation
                # (generations restart when the row is deleted).
                index_shm.unlink_segment(name)
                shm = index_shm.publish_index(index, name)
        except (OSError, ValueError, index_shm.ShmIndexError):
            # /dev/shm full or unusable: keep serving the private build.
            self._registry.abort_publish(
                fingerprint, self._owner, ticket.generation
            )
            self._private_fallbacks += 1
            return index, "build"
        nbytes = index_shm.required_bytes(len(index), index.n_words)
        if not self._registry.finish_publish(
            fingerprint, self._owner, ticket.generation, nbytes, self._ttl
        ):
            # Deposed mid-build (our lease expired and a survivor took
            # over): our segment was never visible, drop it.
            index_shm.close_segment(shm)
            index_shm.unlink_segment(name)
            self._private_fallbacks += 1
            return index, "build"
        # Swap to the shm-backed views: this process's resident copy is
        # now the shared mapping, not a private duplicate.
        attached = index_shm.read_index(shm.buf, index.instance)
        with self._lock:
            self._segments[name] = shm
        self._publishes += 1
        return attached, "publish"

    # --- maintenance ------------------------------------------------------

    def _ensure_heartbeat(self) -> None:
        with self._lock:
            if self._closed or (
                self._thread is not None and self._thread.is_alive()
            ):
                return
            self._thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"shm-plane-{self._owner}",
                daemon=True,
            )
            self._thread.start()

    def _heartbeat_loop(self) -> None:
        interval = max(self._ttl / 3.0, 0.05)
        while not self._stop.wait(interval):
            try:
                self._registry.heartbeat(self._owner, self._ttl)
                self.reap()
            except Exception:
                # Registry closing underneath us, transient busy, etc. —
                # the next beat retries.
                if self._closed:
                    return

    def reap(self) -> list[str]:
        """Reclaim orphaned segments; returns the names unlinked."""
        removed = []
        for name in self._registry.reap():
            if index_shm.unlink_segment(name):
                removed.append(name)
        removed.extend(self._reap_orphan_files())
        self._reaped += len(removed)
        return removed

    def _reap_orphan_files(self) -> list[str]:
        """Unlink aged ``repro_idx_*`` files with no registry row.

        Belt-and-braces against crashes in the narrow window between
        segment creation and registration: a file old enough that any
        legitimate publish would long since have registered it, and
        unknown to the registry, is garbage.
        """
        directory = "/dev/shm"
        if not os.path.isdir(directory):  # pragma: no cover - non-Linux
            return []
        try:
            entries = os.listdir(directory)
        except OSError:  # pragma: no cover - env dependent
            return []
        prefix = index_shm.SEGMENT_PREFIX
        candidates = [entry for entry in entries if entry.startswith(prefix)]
        if not candidates:
            return []
        known = set(self._registry.known_names())
        min_age = max(60.0, 4 * self._ttl)
        now = time.time()
        removed = []
        for entry in candidates:
            if entry in known:
                continue
            try:
                age = now - os.stat(os.path.join(directory, entry)).st_mtime
            except OSError:  # pragma: no cover - concurrent unlink
                continue
            if age >= min_age and index_shm.unlink_segment(entry):
                removed.append(entry)
        return removed

    def shared_bytes(self) -> int:
        """Bytes of shared segments this process currently maps."""
        with self._lock:
            return sum(shm.size for shm in self._segments.values())

    def stats(self) -> dict[str, Any]:
        with self._lock:
            segments = len(self._segments)
            shared_bytes = sum(shm.size for shm in self._segments.values())
        try:
            registry = self._registry.stats()
        except ShmRegistryError:  # pragma: no cover - closing race
            registry = {}
        return {
            "owner": self._owner,
            "segments": segments,
            "shared_bytes": shared_bytes,
            "attaches": self._attaches,
            "publishes": self._publishes,
            "private_fallbacks": self._private_fallbacks,
            "waits": self._waits,
            "reaped": self._reaped,
            "registry": registry,
        }

    def close(self) -> None:
        """Release refs/leases, unlink ref-less segments, drop mappings.

        Idempotent.  Mapped segments whose views are still referenced by
        a live cache entry cannot be unmapped (``BufferError``); the OS
        reclaims them when the process exits, and the *names* are
        already released through the registry.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        self._stop.set()
        if thread is not None:
            thread.join(timeout=2.0)
        try:
            for name in self._registry.release_owner(self._owner):
                index_shm.unlink_segment(name)
        except ShmRegistryError:  # pragma: no cover - already closed
            pass
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
        for shm in segments:
            index_shm.close_segment(shm)
        self._registry.close()
