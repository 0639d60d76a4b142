"""Memoised planner score tables — the per-process plan cache.

The lookahead strategies' entropy tables are a *pure function* of
``(signature index, labeled-class state, depth)``: the session rng only
breaks ties **after** scoring (see
:meth:`~repro.core.strategies.lookahead.LookaheadSkylineStrategy.propose`),
so two sessions at the same state over the same index compute identical
tables — and under a shared workload most sessions traverse overlapping
answer prefixes.  This module memoises those tables:

* :func:`canonical_state_key` — the identity of a scoring problem.  It
  hashes the index by *content* fingerprint and freezes the labeled
  classes as an order-insensitive set: two sessions that answered the
  same questions in different orders share one key (the state they
  reached is the same — each class is labeled at most once, so the set
  fully determines it), and a session rehydrated from a snapshot or
  journal lands on the same key as its pre-crash incarnation.
* :class:`PlanCache` — a thread-safe LRU over computed tables, one per
  server process (each fleet worker holds its own).

**Counter identity.**  The cache is only consulted when the session's
own tier-0 (the strategy's primed table or in-sync incremental planner)
could not answer, so every :meth:`PlanCache.get` is a *miss* of that
tier-0 and resolves as exactly one of: a local hit, or a compute (the
caller runs the kernel and calls :meth:`PlanCache.install`).  Hence
``misses == local_hits + computes`` — the plan-twin of the index
cache's ``misses == attach_hits + builds`` — barring transient errors
(e.g. a kernel scheduler shutting down mid-request computes without
installing).

**Determinism contract.**  A hit returns the score table only; question
selection still runs the strategy's own tie-break over that table with
the session's own rng, so question sequences are bit-for-bit identical
with the cache on or off.  Returned tables are shared across sessions
and MUST be treated as read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterable

from .entropy import Entropy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .planner import IncrementalLookaheadPlanner

__all__ = [
    "PlanCache",
    "canonical_state_key",
    "plan_key_for_planner",
]

#: Packed size of one table entry (an int64 class id and two float64
#: scores); ``resident_bytes`` is this times the resident entry count.
ENTRY_BYTES = 24


# --- the canonical state key ---------------------------------------------


def canonical_state_key(
    index_fingerprint: str,
    strategy: str,
    labeled: Iterable[tuple[int, Any]],
) -> str:
    """The identity of one scoring problem.

    ``labeled`` is the session's ``(class_id, label)`` history in any
    order (labels may be :class:`~repro.relational.sample.Label` members
    or their ``"+"``/``"-"`` string forms); the key freezes it as a
    class-id-sorted set, so answer order does not matter.  ``strategy``
    is the strategy/depth tag (e.g. ``"L2S"``) and ``index_fingerprint``
    the index *content* fingerprint, so distinct relations, depths, or
    strategies never collide.
    """
    frozen = sorted((int(class_id), str(label)) for class_id, label in labeled)
    state = ",".join(f"{class_id}{label}" for class_id, label in frozen)
    return f"{strategy}|{index_fingerprint}|{state}"


def plan_key_for_planner(
    planner: "IncrementalLookaheadPlanner", index_fingerprint: str
) -> str:
    """The canonical key for the state a planner is bound to."""
    return canonical_state_key(
        index_fingerprint,
        f"L{planner.depth}S",
        planner.state.labeled_classes(),
    )


# --- the cache ------------------------------------------------------------


class PlanCache:
    """Per-process LRU over computed entropy tables.

    All methods are thread-safe: the event loop, the build pool's
    branch workers and the kernel batcher's flush thread all read and
    write through it.
    """

    __slots__ = (
        "_lock",
        "_max_entries",
        "_tables",
        "_misses",
        "_local_hits",
        "_computes",
        "_evictions",
    )

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("plan cache needs max_entries >= 1")
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._tables: OrderedDict[str, dict[int, Entropy]] = OrderedDict()
        self._misses = 0
        self._local_hits = 0
        self._computes = 0
        self._evictions = 0

    def get(self, key: str) -> dict[int, Entropy] | None:
        """Look ``key`` up; None means the caller must compute (and is
        expected to :meth:`install` the result).

        Every call counts one miss of the session's tier-0 (see the
        module docstring's counter identity).
        """
        with self._lock:
            self._misses += 1
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self._local_hits += 1
            return table

    def install(self, key: str, table: dict[int, Entropy]) -> None:
        """Record a freshly computed table, evicting the least recently
        used one past ``max_entries``."""
        with self._lock:
            self._computes += 1
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self._max_entries:
                self._tables.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._tables),
                "max_entries": self._max_entries,
                "resident_bytes": ENTRY_BYTES
                * sum(map(len, self._tables.values())),
                "misses": self._misses,
                "local_hits": self._local_hits,
                "computes": self._computes,
                "evictions": self._evictions,
            }
