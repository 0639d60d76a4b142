"""Timing wrappers around each layer's public calls, for the traced run.

Every wrapped call records a span: layer name, duration, self time
(duration minus the wrapped calls it made in the same context) and the
request it served.  A request is keyed ``[session id, action, n]`` — the
n-th ``create`` / ``question`` / ``answer`` request of that session seen
by this process — which the benchmark's client numbers the same way, so
client rounds and server spans can be joined without touching the wire
format.  Calls that run on pool threads carry no request key.

Spans stay in memory and are written to ``<trace dir>/<pid>.json`` when
the process exits.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import json
import os
import threading
import time

_parent = contextvars.ContextVar("perfbench_parent", default=None)
_request = contextvars.ContextVar("perfbench_request", default=None)
_clock = time.perf_counter_ns

#: (layer, duration ns, self ns, request key or None, extra or None)
_spans: list[tuple] = []
_counts: dict[tuple[str, str], int] = {}
_counts_lock = threading.Lock()


class _Span:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0


def _finish(layer, parent, span, started, extra=None):
    duration = _clock() - started
    if parent is not None:
        parent.child += duration
    _spans.append((layer, duration, duration - span.child, _request.get(), extra))


def _wrap(owner, attr, layer, extra=None, record_if=None):
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``extra(args, kwargs)`` optionally derives a number stored with the
    span (payload sizes, batch lengths); ``record_if(args)``, checked
    before the call, leaves calls it rejects unrecorded."""
    raw = inspect.getattr_static(owner, attr)
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent, span = _parent.get(), _Span()
            token = _parent.set(span)
            started = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                _parent.reset(token)
                _finish(layer, parent, span, started, extra and extra(args, kwargs))

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_if is not None and not record_if(args):
                return fn(*args, **kwargs)
            parent, span = _parent.get(), _Span()
            token = _parent.set(span)
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                _parent.reset(token)
                _finish(layer, parent, span, started, extra and extra(args, kwargs))

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _request_key(method: str, path: str) -> list | None:
    parts = [p for p in path.split("?")[0].split("/") if p]
    if parts == ["sessions"] and method == "POST":
        return [None, "create", 0]
    if len(parts) != 3 or parts[0] != "sessions":
        return None
    action = {("GET", "question"): "question", ("POST", "answer"): "answer"}.get(
        (method, parts[2])
    )
    if action is None:
        return None
    with _counts_lock:
        n = _counts.get((parts[1], action), 0)
        _counts[(parts[1], action)] = n + 1
    return [parts[1], action, n]


def _wrap_root(owner, attr, layer, session_id_of):
    """Wrap a request entry point: it opens the request key for every
    span below it, unless an outer root in this process already did."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    async def root(self, method, path, *args, **kwargs):
        if _request.get() is not None:
            return await fn(self, method, path, *args, **kwargs)
        key = _request_key(method, path)
        token = _request.set(key)
        parent, span = _parent.get(), _Span()
        parent_token = _parent.set(span)
        started = _clock()
        try:
            result = await fn(self, method, path, *args, **kwargs)
            if key is not None and key[0] is None and result[0] < 300:
                key[0] = session_id_of(result[1])
            return result
        finally:
            _parent.reset(parent_token)
            _finish(layer, parent, span, started)
            _request.reset(token)

    setattr(owner, attr, root)


def _count_result(owner, attr, layer, size):
    """Record ``size(result)`` of each call to ``owner.attr`` (no timing)."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        _spans.append((layer, 0, 0, None, size(result)))
        return result

    setattr(owner, attr, counted)


def _wrap_kernel_batch(scheduler_cls):
    """Submit→flush wait of each batched kernel job."""
    submit, execute = scheduler_cls.submit, scheduler_cls._execute

    @functools.wraps(submit)
    def timed_submit(self, *args, **kwargs):
        future = submit(self, *args, **kwargs)
        future.perfbench_submitted = _clock()
        _spans.append(("kernel_batch.submit", 0, 0, _request.get(), None))
        return future

    @functools.wraps(execute)
    def timed_execute(self, batch):
        now = _clock()
        for job in batch:
            started = getattr(job.future, "perfbench_submitted", None)
            if started is not None:
                wait = now - started
                _spans.append(("kernel_batch.window_wait", wait, wait, None, None))
        return execute(self, batch)

    scheduler_cls.submit = timed_submit
    scheduler_cls._execute = timed_execute


def _dump(trace_dir: str) -> None:
    path = os.path.join(trace_dir, f"{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump({"pid": os.getpid(), "spans": _spans}, handle)


def install(trace_dir: str) -> None:
    from repro.core import index_build, kernel_batch, plan_cache, planner, session
    from repro.service import app, events, index_cache, manager, router, store

    _wrap_root(
        router.FleetRouter, "dispatch_raw", "router",
        lambda body: json.loads(body).get("session_id"),
    )
    _wrap(router.FleetRouter, "_read_worker_response", "router.upstream")
    _wrap_root(
        app.ServiceApp, "dispatch", "app", lambda payload: payload.get("session_id")
    )
    _wrap(app, "parse_create_payload", "protocol.parse_create")

    _wrap(manager.SessionManager, "record_answer", "manager.record_answer")
    _wrap(manager.SessionManager, "propose_question_async", "manager.propose")
    _wrap(manager.SessionManager, "create_async", "manager.create")
    _count_result(
        manager.SessionManager, "_spawn_branches", "manager.spec_branches",
        lambda branches: len(branches) if branches else 0,
    )

    _wrap(session.InferenceSession, "propose", "session.propose")
    _wrap(session.InferenceSession, "answer", "session.answer")
    _wrap(planner.IncrementalLookaheadPlanner, "entropies", "planner.entropies")
    _wrap(planner.IncrementalLookaheadPlanner, "advance", "planner.advance")
    _wrap_kernel_batch(kernel_batch.KernelBatchScheduler)
    _wrap(plan_cache.PlanCache, "get", "plan_cache.get")
    _wrap(plan_cache.PlanCache, "install", "plan_cache.install")

    _wrap(index_cache.IndexCache, "get_or_build_keyed_async", "index_cache.get")
    _wrap(index_build.IndexBuilder, "build", "index_cache.build")
    fingerprint = index_cache.instance_fingerprint
    # Memoised per instance: only the first call hashes the data.
    _wrap(
        index_cache, "instance_fingerprint", "index_cache.fingerprint",
        record_if=lambda args: args[0]._content_fingerprint is None,
    )
    # The manager imported the function by name; point it at the wrapper.
    if manager.instance_fingerprint is fingerprint:
        manager.instance_fingerprint = index_cache.instance_fingerprint

    _wrap(
        store.SqliteSessionStore, "append_answers", "store.append",
        lambda args, kwargs: len(args[2]),
    )
    _wrap(
        store.SqliteSessionStore, "put_checkpoint", "store.checkpoint",
        lambda args, kwargs: len(json.dumps(args[2], separators=(",", ":"))),
    )
    _wrap(events.EventBus, "publish", "events.publish")

    # Worker and router processes leave through asyncio.run returning,
    # so atexit handlers run on SIGTERM drain and SIGINT alike.
    atexit.register(_dump, trace_dir)
