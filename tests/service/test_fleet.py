"""The multi-process serving fleet: router, workers, kill -9 recovery.

The acceptance property: a client driving sessions through the fleet
front cannot observe a worker being SIGKILLed — beyond latency.  For
every serving strategy across the packed-word boundary Ω ∈ {63, 64,
65}, a session whose worker is killed mid-inference finishes on a
survivor with the **identical remaining question sequence and final
predicate** as an uninterrupted in-process run: the survivor waits out
the dead worker's lease, takes it over (epoch bump), and replays the
checkpoint + journal tail bit-for-bit.

These tests spawn real worker subprocesses (slow); the pure lease
protocol is covered in-process in ``test_lease.py``.
"""

from __future__ import annotations

import http.client
import socket
import threading
import zlib

import pytest

from repro.core import (
    InferenceSession,
    SignatureIndex,
    strategy_by_name,
)
from repro.core.serialize import instance_to_dict
from repro.service import (
    FleetConfig,
    FleetServer,
    ServiceApp,
    ServiceClient,
    ServiceClientError,
    SqliteSessionStore,
)

from .test_store import (
    CRASH_STRATEGIES,
    _PrefixedOracle,
    boundary_instance,
    make_manager,
)

CRASH_OMEGAS = [(7, 9), (8, 8), (5, 13)]


# --- helpers -----------------------------------------------------------------


def snapshot_payload(instance, strategy, seed):
    """A zero-answer session snapshot: ``POST /sessions/resume`` with
    this payload opens a session over an arbitrary inline instance —
    how the kill matrix gets its boundary-Ω instances onto the fleet."""
    return {
        "kind": "session_snapshot",
        "version": 1,
        "instance": {"inline": instance_to_dict(instance)},
        "strategy": strategy,
        "seed": seed,
        "max_questions": None,
        "labeled": [],
    }


def reference_run(instance, strategy, seed, oracle):
    """The uninterrupted in-process run: the asked tuple pairs (JSON
    shape) and the final predicate pairs (wire shape)."""
    session = InferenceSession(
        instance,
        strategy_by_name(strategy),
        index=SignatureIndex(instance),
        seed=seed,
    )
    asked = []
    while not session.is_finished():
        question = session.propose()
        left_row, right_row = question.tuple_pair
        asked.append([list(left_row), list(right_row)])
        session.answer(
            question.question_id, oracle.label(question.tuple_pair)
        )
    predicate = session.current_predicate()
    return asked, [
        [str(a), str(b)] for a, b in predicate.sorted_pairs()
    ]


def drive_http(client, session_id, oracle, limit=None):
    """Answer questions over HTTP until Γ (or ``limit``); returns the
    asked tuple pairs in JSON shape."""
    asked = []
    while limit is None or len(asked) < limit:
        question = client.next_question(session_id)
        if question is None:
            break
        asked.append([question["left"]["row"], question["right"]["row"]])
        label = oracle.label(None)
        client.post_answer(
            session_id, question["question_id"], label.value
        )
    return asked


def fleet_config(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_ttl_seconds", 1.0)
    kwargs.setdefault("speculate", False)
    return FleetConfig(
        store_path=str(tmp_path / "fleet.db"), **kwargs
    )


# --- basics ------------------------------------------------------------------


class TestFleetBasics:
    def test_serves_protocol_with_pinned_routing(self, tmp_path):
        with FleetServer(fleet_config(tmp_path)) as server:
            client = ServiceClient(server.host, server.port)
            sids = []
            for _ in range(6):
                info = client.create_session(
                    workload="tpch/join2", strategy="TD", seed=7
                )
                sids.append(info["session_id"])
                question = client.next_question(info["session_id"])
                client.post_answer(
                    info["session_id"], question["question_id"], "-"
                )

            # Sessions land on their crc32 home slot, nowhere else.
            expected = {0: 0, 1: 0}
            for sid in sids:
                expected[zlib.crc32(sid.encode("utf-8")) % 2] += 1
            stats = client.stats()
            actual = {
                int(slot): payload["sessions"]
                for slot, payload in stats["workers"].items()
            }
            assert actual == expected
            assert stats["sessions"] == 6
            assert stats["fleet"]["alive"] == 2
            assert stats["fleet"]["failovers_total"] == 0

            overview = client.sessions_overview()
            assert sorted(
                entry["session_id"] for entry in overview["sessions"]
            ) == sorted(sids)
            assert overview["live"] == 6
            assert overview["recoverable"] == 0

            # Deletes route home too and the fleet forgets the session.
            client.delete_session(sids[0])
            assert client.stats()["sessions"] == 5

    def test_matches_single_server_run(self, tmp_path):
        instance = boundary_instance(3, 3, rows=6, seed=8)
        expected, expected_predicate = reference_run(
            instance, "L2S", 13, _PrefixedOracle(0, seed=5)
        )
        with FleetServer(fleet_config(tmp_path)) as server:
            client = ServiceClient(server.host, server.port)
            info = client.resume(snapshot_payload(instance, "L2S", 13))
            asked = drive_http(
                client, info["session_id"], _PrefixedOracle(0, seed=5)
            )
            predicate = client.predicate(info["session_id"])
            assert asked == expected
            assert predicate["predicate"]["pairs"] == expected_predicate

    def test_fleet_endpoint_describes_slots(self, tmp_path):
        with FleetServer(fleet_config(tmp_path)) as server:
            client = ServiceClient(server.host, server.port)
            payload = client._request("GET", "/fleet")
            assert payload["workers"] == 2
            assert payload["alive"] == 2
            slots = payload["slots"]
            assert [entry["slot"] for entry in slots] == [0, 1]
            assert all(entry["alive"] for entry in slots)
            owners = {entry["owner"] for entry in slots}
            assert len(owners) == 2

    def test_fleet_aggregates_the_plan_cache_across_workers(
        self, tmp_path
    ):
        """One full session per slot over the same instance and seed:
        each worker scores the trajectory in its own plan cache, and
        ``GET /fleet`` rolls the per-worker counters up as sums."""
        instance = boundary_instance(3, 3, rows=6, seed=8)
        with FleetServer(fleet_config(tmp_path)) as server:
            client = ServiceClient(server.host, server.port)
            driven: set[int] = set()
            for _ in range(24):
                info = client.resume(
                    snapshot_payload(instance, "L2S", 13)
                )
                sid = info["session_id"]
                slot = zlib.crc32(sid.encode("utf-8")) % 2
                if slot in driven:
                    continue
                drive_http(client, sid, _PrefixedOracle(0, seed=5))
                driven.add(slot)
                if len(driven) == 2:
                    break
            assert driven == {0, 1}

            payload = client.fleet()
            plan = payload["plan_cache"]
            assert set(plan) == {
                "local_hits_total",
                "computes_total",
                "entries_total",
            }
            by_slot = payload["memory"]["by_slot"]
            assert len(by_slot) == 2
            assert plan["computes_total"] == sum(
                slot["plan_computes"] for slot in by_slot.values()
            )
            assert plan["local_hits_total"] == sum(
                slot["plan_local_hits"] for slot in by_slot.values()
            )
            assert plan["computes_total"] >= 1
            assert plan["entries_total"] >= 1
            # Workers do not share tables: each slot computed the
            # trajectory it served.
            assert all(
                slot["plan_computes"] >= 1 for slot in by_slot.values()
            )

    def test_unknown_route_is_404(self, tmp_path):
        with FleetServer(fleet_config(tmp_path, workers=1)) as server:
            client = ServiceClient(server.host, server.port)
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404


# --- control routes ----------------------------------------------------------


class TestControlRoutes:
    def run(self, coro):
        import asyncio

        return asyncio.run(coro)

    def test_disabled_by_default(self):
        manager = make_manager()
        app = ServiceApp(manager)
        status, _ = self.run(
            app.dispatch("GET", "/control/health", None)
        )
        assert status == 404
        manager.close(wait=True)

    def test_health_when_enabled(self):
        manager = make_manager()
        app = ServiceApp(manager, control=True)
        status, payload = self.run(
            app.dispatch("GET", "/control/health", None)
        )
        assert status == 200
        assert payload["ok"] is True
        assert payload["sessions"] == 0
        manager.close(wait=True)


# --- respawn and failover ----------------------------------------------------


class TestRespawn:
    def test_killed_slot_respawns_with_new_owner(self, tmp_path):
        with FleetServer(fleet_config(tmp_path)) as server:
            client = ServiceClient(server.host, server.port)
            before = client._request("GET", "/fleet")
            old = before["slots"][0]
            killed_pid = server.kill_worker(0)
            assert killed_pid == old["pid"]
            server.wait_for_slot(0)
            after = client._request("GET", "/fleet")
            fresh = after["slots"][0]
            assert after["respawns_total"] == 1
            assert fresh["pid"] != old["pid"]
            assert fresh["owner"] != old["owner"]
            assert fresh["generation"] > old["generation"]
            # The respawned fleet serves new sessions normally.
            info = client.create_session(
                workload="tpch/join2", strategy="TD"
            )
            assert client.next_question(info["session_id"]) is not None


# --- kill -9 acceptance matrix -----------------------------------------------


class TestKillTheWorker:
    CUT = 4

    def test_sessions_finish_identically_across_sigkill(self, tmp_path):
        """Every strategy × Ω ∈ {63, 64, 65}: prefix on the original
        worker, SIGKILL both slots in turn (so every session loses its
        home at least once), finish on survivors — the full question
        sequence and predicate match the uninterrupted run."""
        combos = []
        instances = {}
        for left, right in CRASH_OMEGAS:
            omega = left * right
            for strategy in CRASH_STRATEGIES:
                rows = 4 if strategy == "L3S" else 6
                key = (omega, rows)
                if key not in instances:
                    instances[key] = boundary_instance(
                        left, right, rows=rows
                    )
                combos.append((strategy, omega, instances[key]))

        config = fleet_config(tmp_path, checkpoint_every=4)
        with FleetServer(config) as server:
            client = ServiceClient(
                server.host, server.port, retries=5, retry_backoff=0.2
            )
            plans = []
            for strategy, omega, instance in combos:
                expected, expected_predicate = reference_run(
                    instance,
                    strategy,
                    5,
                    _PrefixedOracle(self.CUT, seed=omega),
                )
                assert len(expected) > self.CUT, (strategy, omega)
                info = client.resume(
                    snapshot_payload(instance, strategy, 5)
                )
                sid = info["session_id"]
                prefix = drive_http(
                    client,
                    sid,
                    _PrefixedOracle(self.CUT, seed=omega),
                    limit=self.CUT,
                )
                assert prefix == expected[: self.CUT], (strategy, omega)
                plans.append(
                    (sid, strategy, omega, expected, expected_predicate)
                )

            oracles = {
                sid: _PrefixedOracle(0, seed=omega)
                for sid, _, omega, _, _ in plans
            }
            consumed: dict[str, list] = {}

            # Both slots die in turn: every session loses its worker
            # (and failed-over sessions lose their survivor too).  A
            # question is driven into each dead slot *before* it
            # respawns, so the router's failover-to-survivor path —
            # not just respawn-then-rehydrate — carries real traffic.
            for dead_slot in (0, 1):
                server.kill_worker(dead_slot)
                victim = next(
                    sid
                    for sid, *_ in plans
                    if zlib.crc32(sid.encode("utf-8")) % 2 == dead_slot
                )
                consumed[victim] = drive_http(
                    client, victim, oracles[victim], limit=1
                )
                server.wait_for_slot(dead_slot)

            for sid, strategy, omega, expected, exp_predicate in plans:
                suffix = consumed.get(sid, []) + drive_http(
                    client, sid, oracles[sid]
                )
                assert suffix == expected[self.CUT :], (
                    f"{strategy} Ω={omega}: recovered session diverged "
                    f"from the uninterrupted run"
                )
                predicate = client.predicate(sid)
                assert predicate["predicate"]["pairs"] == exp_predicate, (
                    f"{strategy} Ω={omega}: predicate diverged"
                )

            fleet_stats = client.stats()["fleet"]
            assert fleet_stats["respawns_total"] == 2
            assert fleet_stats["failovers_total"] >= 1


# --- graceful drain ----------------------------------------------------------


class TestGracefulDrain:
    def test_close_with_drain_persists_everything(self, tmp_path):
        config = fleet_config(tmp_path)
        server = FleetServer(config).start()
        client = ServiceClient(server.host, server.port)
        sids = []
        for _ in range(4):
            info = client.create_session(
                workload="tpch/join2", strategy="TD"
            )
            sids.append(info["session_id"])
            question = client.next_question(info["session_id"])
            client.post_answer(
                info["session_id"], question["question_id"], "-"
            )
        server.close(drain=True)

        store = SqliteSessionStore(config.store_path)
        assert sorted(store.session_ids()) == sorted(sids)
        for sid in sids:
            lease = store.lease_of(sid)
            assert lease is None or lease.expired(), (
                f"{sid}: drain left a live lease behind"
            )
            stored = store.load(sid)
            assert stored is not None
            assert len(stored.payload["labeled"]) == 1
        store.close()

    def test_drained_sessions_resume_in_next_fleet(self, tmp_path):
        config = fleet_config(tmp_path)
        server = FleetServer(config).start()
        client = ServiceClient(server.host, server.port)
        info = client.create_session(
            workload="tpch/join2", strategy="TD", seed=3
        )
        sid = info["session_id"]
        question = client.next_question(sid)
        client.post_answer(sid, question["question_id"], "-")
        server.close(drain=True)

        with FleetServer(config) as successor:
            client = ServiceClient(successor.host, successor.port)
            overview = client.sessions_overview()
            assert overview["live"] == 0
            assert overview["recoverable"] == 1
            resumed = client.session_info(sid)
            assert resumed["progress"]["interactions"] == 1


# --- client retry behaviour --------------------------------------------------


class _FlakyServer:
    """Accepts connections; drops the first N without a byte of
    response (a worker SIGKILLed mid-request), then serves a canned
    HTTP response forever."""

    RESPONSE = (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 13\r\n"
        b"Connection: close\r\n"
        b"\r\n"
        b'{"ok": true}\n'
    )

    def __init__(self, drops: int):
        self._drops = drops
        self.requests = 0
        self._socket = socket.create_server(("127.0.0.1", 0))
        self.port = self._socket.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self._socket.accept()
            except OSError:
                return
            with connection:
                try:
                    connection.recv(65536)
                except OSError:
                    continue
                self.requests += 1
                if self._drops > 0:
                    self._drops -= 1
                    continue  # close without responding
                connection.sendall(self.RESPONSE)

    def close(self) -> None:
        self._socket.close()


class TestClientRetries:
    def test_get_retries_through_connection_reset(self):
        flaky = _FlakyServer(drops=2)
        try:
            client = ServiceClient(
                "127.0.0.1", flaky.port, retries=3, retry_backoff=0.01
            )
            assert client._request("GET", "/stats") == {"ok": True}
            assert flaky.requests == 3
        finally:
            flaky.close()

    def test_get_gives_up_after_retry_budget(self):
        flaky = _FlakyServer(drops=10)
        try:
            client = ServiceClient(
                "127.0.0.1", flaky.port, retries=2, retry_backoff=0.01
            )
            with pytest.raises(
                (http.client.HTTPException, OSError)
            ):
                client._request("GET", "/stats")
            assert flaky.requests == 2
        finally:
            flaky.close()

    def test_post_never_retries(self):
        flaky = _FlakyServer(drops=10)
        try:
            client = ServiceClient(
                "127.0.0.1", flaky.port, retries=5, retry_backoff=0.01
            )
            with pytest.raises(
                (http.client.HTTPException, OSError)
            ):
                client._request("POST", "/sessions", {"x": 1})
            assert flaky.requests == 1
        finally:
            flaky.close()

    def test_retries_must_be_positive(self):
        with pytest.raises(ValueError):
            ServiceClient("127.0.0.1", 1, retries=0)
