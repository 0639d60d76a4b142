"""Closed-loop load generator: a fixed list of sessions over HTTP.

One client holds one keep-alive connection and drives one session at a
time to completion — create, fetch the first question, then answer /
fetch the next question until the server says done — waiting out the
session's think time before every answer.

One client, not one per core: with two, a request's latency depended on
whether it overlapped the other client's request in the same
single-threaded server, and that changed from run to run by more than
any bound allows.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field


@dataclass
class SessionResult:
    """What the client saw of one session."""

    session_id: str | None = None
    #: From ``POST /sessions`` until the first question is in hand.
    first_question_s: float | None = None
    #: k-th entry: from ``POST /answer`` of question k until the next
    #: ``GET /question`` returns.
    rounds_s: list[float] = field(default_factory=list)
    pairs: list[list[str]] | None = None
    interactions: int | None = None
    error: str | None = None


class RequestFailed(RuntimeError):
    pass


class _Connection:
    def __init__(self, port: int, timeout: float):
        self.port = port
        self.timeout = timeout
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        self.requests = 0
        self.failures = 0

    def call(self, method: str, path: str, payload=None) -> dict:
        self.requests += 1
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.failures += 1
            self.conn.close()
            raise RequestFailed(f"{method} {path}: {exc!r}") from exc
        if response.status >= 300:
            self.failures += 1
            raise RequestFailed(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return json.loads(data)


def _spin(seconds: float) -> None:
    """Wait ``seconds`` on the CPU rather than asleep.

    With the client asleep through a labeler's think time, both cores
    of a two-core host went idle between rounds.  Waking them for the
    next request added about 1.7 ms to every round on
    ``interactive-fleet`` and took the round's p95 from 6 to 10.5 ms as
    neighbouring load on the host rose; without think time the same
    figures held within 9 %.  Spinning keeps the client's core awake,
    so the round measures the service, not the host's wake-up.
    """
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _drive(conn: _Connection, plan, result: SessionResult) -> None:
    clock = time.perf_counter
    started = clock()
    sid = result.session_id = conn.call("POST", "/sessions", plan.payload)["session_id"]
    base = f"/sessions/{sid}"
    question = conn.call("GET", f"{base}/question")
    result.first_question_s = clock() - started
    while not question["done"]:
        pair = (tuple(question["left"]["row"]), tuple(question["right"]["row"]))
        label = plan.label(pair)
        think = plan.think_s(len(result.rounds_s))
        if think:
            _spin(think)
        sent = clock()
        conn.call(
            "POST", f"{base}/answer",
            {"question_id": question["question_id"], "label": label},
        )
        question = conn.call("GET", f"{base}/question")
        result.rounds_s.append(clock() - sent)
    predicate = conn.call("GET", f"{base}/predicate")
    result.pairs = predicate["predicate"]["pairs"]
    result.interactions = predicate["progress"]["interactions"]
    conn.call("DELETE", base)


def create_and_delete(port: int, payload: dict, timeout: float = 120.0) -> None:
    """Open a session and delete it unanswered (warm-up only)."""
    conn = _Connection(port, timeout)
    try:
        sid = conn.call("POST", "/sessions", payload)["session_id"]
        conn.call("DELETE", f"/sessions/{sid}")
    finally:
        conn.conn.close()


def run_sessions(port: int, plans: list, timeout: float = 120.0):
    """Drive every plan to completion, one after another, over one
    keep-alive connection.

    Returns ``(results in plan order, requests attempted, requests
    failed, wall seconds)``.  A session whose request fails is abandoned
    with ``error`` set; the client goes on with the next one.
    """
    results = [SessionResult() for _ in plans]
    conn = _Connection(port, timeout)
    started = time.perf_counter()
    try:
        for plan, result in zip(plans, results):
            try:
                _drive(conn, plan, result)
            except (RequestFailed, KeyError, TypeError, ValueError) as exc:
                result.error = str(exc)
    finally:
        conn.conn.close()
    return results, conn.requests, conn.failures, time.perf_counter() - started
