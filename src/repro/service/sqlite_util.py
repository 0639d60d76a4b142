"""The shared SQLite coordination idiom.

Two services coordinate cross-process state through one SQLite file
beside the ``--store`` path: the session store (:mod:`.store`) and the
shared-index registry (:mod:`.shm_registry`).  Both use the same
connection discipline and the same retry/fencing idiom; this module is
the single definition so the two stay byte-for-byte in agreement:

* :func:`connect_wal` — one connection per component, WAL mode so
  readers never block the single writer, ``synchronous=NORMAL`` (the
  documented safe level for WAL), a ``busy_timeout`` so SQLite itself
  absorbs short lock waits, and ``isolation_level=None`` because every
  write runs an explicit ``BEGIN IMMEDIATE``.
* :func:`run_immediate` — one write transaction with a bounded
  whole-transaction retry when another *process* holds the database
  lock past ``busy_timeout``.  Callers serialise in-process writers
  with their own lock (and hold it across the call), so any contention
  seen here is cross-process and sleeping while holding that lock is
  fine.
* :func:`decide_lease_epoch` — the lease/epoch takeover rule shared by
  session leases and publish leases: epochs only ever grow, and every
  takeover bumps the epoch so fenced writes from a deposed owner lose.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Any, Callable

__all__ = [
    "BUSY_RETRIES",
    "connect_wal",
    "decide_lease_epoch",
    "is_busy_error",
    "run_immediate",
]

#: Attempts per transaction when another process holds the write lock
#: longer than ``busy_timeout`` (multi-process sharing must not surface
#: transient SQLITE_BUSY as a hard error).
BUSY_RETRIES = 6


def is_busy_error(exc: sqlite3.OperationalError) -> bool:
    """True for the SQLITE_BUSY / SQLITE_LOCKED family.

    The sqlite3 module predates fine-grained error codes on some
    supported Pythons, so this matches on the message like the rest of
    the ecosystem does.
    """
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def connect_wal(
    path: str,
    *,
    busy_timeout: float = 5.0,
    timeout: float | None = None,
) -> sqlite3.Connection:
    """Open ``path`` with the shared WAL connection discipline."""
    kwargs: dict[str, Any] = {
        "check_same_thread": False,
        "isolation_level": None,  # explicit BEGIN/COMMIT in run_immediate
    }
    if timeout is not None:
        kwargs["timeout"] = timeout
    connection = sqlite3.connect(path, **kwargs)
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
    return connection


def run_immediate(
    connection: sqlite3.Connection,
    work: Callable[[sqlite3.Connection], Any],
    *,
    error: type[Exception],
    subject: str,
    retries: int = BUSY_RETRIES,
    on_busy_retry: Callable[[], None] | None = None,
) -> Any:
    """Run ``work(connection)`` inside one BEGIN IMMEDIATE transaction.

    The whole transaction retries with exponential backoff (5 ms
    doubling to a 250 ms cap) when either ``BEGIN`` or ``COMMIT`` hits
    a busy/locked error; after ``retries`` extra attempts it raises
    ``error`` naming ``subject``.  ``on_busy_retry`` fires once per
    retry so callers can keep an observability counter.  Any exception
    from ``work`` rolls back and propagates unchanged.
    """
    delay = 0.005
    last: sqlite3.OperationalError | None = None
    for attempt in range(retries + 1):
        if attempt:
            if on_busy_retry is not None:
                on_busy_retry()
            time.sleep(delay)
            delay = min(delay * 2, 0.25)
        try:
            connection.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError as exc:
            if is_busy_error(exc):
                last = exc
                continue
            raise
        try:
            result = work(connection)
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        try:
            connection.execute("COMMIT")
        except sqlite3.OperationalError as exc:
            connection.execute("ROLLBACK")
            if is_busy_error(exc):
                last = exc
                continue
            raise
        return result
    raise error(
        f"{subject}: database busy after {retries + 1} attempts"
    ) from last


def decide_lease_epoch(
    held: tuple[str, int, float] | None,
    owner: str,
    now: float,
) -> tuple[str, int]:
    """Decide an acquire attempt against the currently held lease.

    ``held`` is ``(owner, epoch, expires_at)`` or ``None`` when no row
    exists.  Returns ``(decision, epoch)`` where decision is one of:

    * ``"new"`` — no lease yet; grant at epoch 1.
    * ``"refresh"`` — the caller already holds it (expired or not);
      grant at the *same* epoch, so a brief lapse by the same owner
      does not invalidate its in-flight fenced writes.
    * ``"takeover"`` — held by someone else but expired; grant at
      ``epoch + 1`` so the deposed owner's stamped writes are fenced.
    * ``"deny"`` — held live by someone else (epoch is the holder's).

    Release keeps the row with ``expires_at = 0.0`` rather than
    deleting it, which is why epochs stay monotonic across the whole
    history of a key.
    """
    if held is None:
        return "new", 1
    held_owner, epoch, expires_at = held
    if held_owner == owner:
        return "refresh", epoch
    if expires_at <= now:
        return "takeover", epoch + 1
    return "deny", epoch
