"""Multi-session inference service (the serving layer over Algorithm 1).

The paper's protocol is interactive — one membership question at a time —
and this package turns it into something a fleet of remote users can
drive concurrently: an asyncio HTTP/JSON server
(:mod:`~repro.service.app`) hosting many
:class:`~repro.core.session.InferenceSession` objects behind a
:class:`~repro.service.manager.SessionManager` (per-session locks, TTL
eviction, capacity limits), with a content-addressed
:class:`~repro.service.index_cache.IndexCache` sharing the expensive
immutable :class:`~repro.core.signatures.SignatureIndex` across all
sessions on the same data, and snapshot/resume so sessions survive
restarts.  :class:`~repro.service.client.ServiceClient` is the matching
stdlib client; ``repro-join serve`` starts a server from the CLI.

Sessions become *durable* when the manager is given a
:class:`~repro.service.store.SessionStore` (``repro-join serve --store
sessions.db``): answers journal to SQLite in WAL mode, eviction demotes
to disk instead of deleting, and any session — including one orphaned
by a crash — rehydrates transparently on its next touch.

One process is one GIL; ``repro-join serve --workers N`` multiplies the
stack across cores as a **fleet** (:mod:`~repro.service.fleet`): a front
router (:mod:`~repro.service.router`) speaking the same public protocol
proxies to N worker subprocesses sharing one store, with per-session
leases (owner + fencing epoch + heartbeat expiry) so a SIGKILLed
worker's sessions are taken over by survivors bit-for-bit while the
supervisor respawns the slot and the router rebalances.

Beyond ask/answer polling, the service streams: ``GET
/sessions/{id}/stream`` pushes each next question over SSE the moment
speculation or a kernel batch resolves it, ``GET /events/stream`` is
the service-wide observability feed, and ``GET /dashboard`` serves
incrementally maintained aggregates (:mod:`~repro.service.events`).
The router proxies streams frame-atomically and turns a mid-stream
worker death into a clean retryable ``reconnect`` event.
"""

from .app import (
    EventStream,
    ServiceApp,
    ServiceFeedBroadcaster,
    ServiceServer,
    run_server,
    start_server,
)
from .client import ServiceClient, ServiceClientError
from .events import (
    SERVICE_FEED,
    DashboardAggregator,
    EventBus,
    EventSubscription,
    sse_frame,
)
from .fleet import Fleet, FleetConfig, FleetServer, WorkerHandle
from .index_cache import BuildStatus, IndexCache, instance_fingerprint
from .manager import ManagedSession, SessionManager, Speculation
from .protocol import (
    BadRequest,
    CapacityExceeded,
    Conflict,
    CreateSpec,
    NotFound,
    ServiceError,
    instance_from_spec,
    parse_answer_payload,
    parse_create_payload,
    parse_label,
    predicate_payload,
    progress_payload,
    question_payload,
    sessions_payload,
)
from .router import FleetRouter, WorkerUnavailable
from .shm_registry import (
    PublishTicket,
    SegmentInfo,
    SharedIndexPlane,
    ShmRegistry,
    ShmRegistryError,
)
from .store import (
    Lease,
    LeaseFenced,
    MemorySessionStore,
    SessionStore,
    SqliteSessionStore,
    StoredSession,
    StoreError,
)

__all__ = [
    "BadRequest",
    "BuildStatus",
    "CapacityExceeded",
    "Conflict",
    "CreateSpec",
    "DashboardAggregator",
    "EventBus",
    "EventStream",
    "EventSubscription",
    "Fleet",
    "FleetConfig",
    "FleetRouter",
    "FleetServer",
    "IndexCache",
    "SERVICE_FEED",
    "Lease",
    "LeaseFenced",
    "ManagedSession",
    "MemorySessionStore",
    "NotFound",
    "PublishTicket",
    "SegmentInfo",
    "ServiceApp",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceFeedBroadcaster",
    "ServiceServer",
    "SessionManager",
    "SessionStore",
    "SharedIndexPlane",
    "ShmRegistry",
    "ShmRegistryError",
    "Speculation",
    "SqliteSessionStore",
    "StoreError",
    "StoredSession",
    "WorkerHandle",
    "WorkerUnavailable",
    "instance_fingerprint",
    "instance_from_spec",
    "parse_answer_payload",
    "parse_create_payload",
    "parse_label",
    "predicate_payload",
    "progress_payload",
    "question_payload",
    "run_server",
    "sessions_payload",
    "sse_frame",
    "start_server",
]
