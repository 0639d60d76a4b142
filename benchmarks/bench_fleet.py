"""Serving-fleet benchmark harness — emits ``BENCH_fleet.json``.

Measures what the multi-process fleet buys and what recovery costs:

* ``scaling`` — the same interactive TPC-H serving load (all five
  serving strategies, ``CLIENT_THREADS`` concurrent clients, durable
  store journaling every answer) driven through fleets of 1, 2 and 4
  workers; reports sessions/sec per worker count.  The gate is
  **core-aware**: on an M-core machine W workers cannot scale past
  min(W, M), so the scaling gate applies to the largest measured fleet
  that *fits the cores* (floor ``0.75 × W`` there — the ≥3× target at
  4 workers on ≥4-core hardware) while oversubscribed fleets (W > M,
  every extra worker is pure process overhead on the same cores) are
  measured and held only to a bounded-collapse floor.  ``cpu_count``
  is recorded in the report so the CI gate reads the machine the
  numbers came from.
* ``recovery`` — a 2-worker fleet loses one worker to ``kill -9``
  mid-session; reports the wall-clock from the kill to the victim
  session's next *successfully recorded answer* on a survivor (lease
  wait + takeover + rehydration, seen from the client), then finishes
  every session and parity-checks it.
* ``shared_index`` — what the zero-copy shared-memory index plane
  buys on the row-scaled largest Fig. 7 configuration: total
  index-resident bytes across a fleet vs the single-process figure
  (one machine-wide copy: ratio ≈ 1.0, gated ≤ 1.5), and the p95 of a
  warm-fleet cold create resolved by *attaching* a sibling's segment
  vs one resolved by a private build.  Each timed create is classified
  attach/build/warm from the per-slot counter deltas on ``GET
  /fleet``, and the cell ends with a leaked-segment sweep.  Both
  gates are core-count-independent, so they hold on a 1-core runner.

Every timed session's final predicate is parity-checked against the
in-process ``run_inference`` result before timings are trusted.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full run
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_fleet.py --output my.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import PerfectOracle, SignatureIndex, index_shm
from repro.data import generate_tpch, tpch_workloads
from repro.service import FleetConfig, FleetServer, ServiceClient

from bench_util import (
    bench_meta,
    drive_session,
    expected_pairs,
    latency_summary,
    percentile,
    remote_answerer,
)

TPCH_SEED = 0
TPCH_SCALE = 1.0
CLIENT_THREADS = 8
STRATEGIES = ["RND", "BU", "TD", "L1S", "L2S"]
SCALING_FLOOR_FACTOR = 0.75
#: A fleet oversubscribing its cores (4 workers on 1 core: 4 index
#: builds, 4 interpreters, same CPU) is allowed to cost throughput,
#: but not to collapse past 4x vs a single worker.
OVERSUBSCRIPTION_FLOOR = 0.25
RECOVERY_LEASE_TTL = 1.0
#: The shared-index cell runs the largest Fig. 7 configuration,
#: row-scaled exactly as ``bench_plan``/``bench_build`` scale it:
#: ``synthetic/0`` at scale 24 is (3,3,2400,100).  Smoke uses scale 8
#: (~50 ms builds) to stay a quick canary.
SHARED_INDEX_WORKLOAD = "synthetic/0"
SHARED_INDEX_SCALE = 24.0
SHARED_INDEX_SCALE_SMOKE = 8.0
#: A W-worker fleet maps ONE machine-wide copy of each segment, so its
#: total resident index bytes must stay within noise of the
#: single-process figure — far under W copies.
SHARED_MEMORY_RATIO_MAX = 1.5
#: Smoke indexes are tiny (~1 KB), so the flat buffer's fixed 128-byte
#: header plus 16-byte array alignment is a large slice of every
#: segment, and all ``seeds`` distinct segments can end up mapped by
#: one worker.  The canary ceiling is relaxed accordingly; the 1.5x
#: bound applies to the full-size run.
SHARED_MEMORY_RATIO_MAX_SMOKE = 3.0
#: Attaching a published segment skips the |R|x|P| product walk; on the
#: full-size config the p95 warm-fleet cold create must be >= 5x faster
#: than a private build.  Smoke builds are ~6x smaller, so HTTP
#: round-trip overhead is a larger slice of the create; the canary
#: floor is relaxed accordingly.
SHARED_ATTACH_SPEEDUP_FLOOR = 5.0
SHARED_ATTACH_SPEEDUP_FLOOR_SMOKE = 1.5


def _workload_oracle():
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]
    return workload, PerfectOracle(workload.instance, workload.goal)


def _check_parity(outcomes, workload, oracle):
    index = SignatureIndex(workload.instance)
    cache: dict[tuple[str, int], tuple[list, int]] = {}
    for (seed, strategy), final in outcomes:
        key = (strategy, seed)
        if key not in cache:
            cache[key] = expected_pairs(
                workload.instance, strategy, seed, oracle, index
            )
        pairs, interactions = cache[key]
        assert final["predicate"]["pairs"] == pairs, (
            f"parity failed: {strategy} seed={seed}"
        )
        assert final["progress"]["interactions"] == interactions


# --- cells -------------------------------------------------------------------


def bench_scaling(
    worker_counts: list[int], sessions: int, db_dir: str
) -> dict:
    """Sessions/sec for the same serving load at each fleet size."""
    workload, oracle = _workload_oracle()
    jobs = list(zip(range(sessions), itertools.cycle(STRATEGIES)))
    by_workers: dict[str, dict] = {}
    for workers in worker_counts:
        config = FleetConfig(
            store_path=os.path.join(db_dir, f"scale_w{workers}.db"),
            workers=workers,
            speculate=False,
        )
        latencies: list[float] = []
        with FleetServer(config) as server:
            started = time.perf_counter()
            with ThreadPoolExecutor(CLIENT_THREADS) as pool:
                outcomes = list(
                    pool.map(
                        lambda job: (
                            job,
                            drive_session(
                                server,
                                "tpch/join4",
                                job[1],
                                job[0],
                                oracle,
                                latencies,
                                workload_seed=TPCH_SEED,
                                scale=TPCH_SCALE,
                            ),
                        ),
                        jobs,
                    )
                )
            elapsed = time.perf_counter() - started
        _check_parity(outcomes, workload, oracle)
        by_workers[str(workers)] = {
            "workers": workers,
            "sessions": sessions,
            "wall_seconds": round(elapsed, 3),
            "sessions_per_sec": round(sessions / elapsed, 3),
            "answer_latency": latency_summary(latencies),
        }
        print(
            f"[bench] {workers} worker(s): "
            f"{by_workers[str(workers)]['sessions_per_sec']} sessions/s "
            f"({elapsed:.1f}s wall)",
            flush=True,
        )
    return {
        "workload": "tpch/join4",
        "strategies": STRATEGIES,
        "client_threads": CLIENT_THREADS,
        "cpu_count": os.cpu_count() or 1,
        "by_workers": by_workers,
        "parity_checked": True,
    }


def bench_recovery(sessions: int, db_dir: str) -> dict:
    """kill -9 one of two workers mid-session; time the takeover as
    the client sees it, then finish everything and check parity."""
    workload, oracle = _workload_oracle()
    answer = remote_answerer(oracle)
    config = FleetConfig(
        store_path=os.path.join(db_dir, "recovery.db"),
        workers=2,
        lease_ttl_seconds=RECOVERY_LEASE_TTL,
        checkpoint_every=4,
        speculate=False,
    )
    with FleetServer(config) as server:
        client = ServiceClient(
            server.host, server.port, retries=10, retry_backoff=0.2
        )
        opened = []
        unfinished = []
        for seed, strategy in zip(
            range(sessions), itertools.cycle(STRATEGIES)
        ):
            info = client.create_session(
                workload="tpch/join4",
                strategy=strategy,
                seed=seed,
                workload_seed=TPCH_SEED,
                scale=TPCH_SCALE,
            )
            sid = info["session_id"]
            # A few journaled answers so the takeover has a tail to
            # replay; fast strategies may finish inside the warmup,
            # so track which sessions still have questions pending.
            pending = True
            for _ in range(3):
                question = client.next_question(sid)
                if question is None:
                    pending = False
                    break
                client.post_answer(
                    sid, question["question_id"], answer(question)
                )
            opened.append((sid, seed, strategy))
            if pending:
                unfinished.append((sid, seed, strategy))

        assert unfinished, (
            "every session finished during warmup — nothing to take over"
        )
        victim = unfinished[0]
        dead_slot = zlib.crc32(victim[0].encode("utf-8")) % 2
        started = time.perf_counter()
        server.kill_worker(dead_slot)
        # First successful answer round on the victim session after the
        # kill: failover + lease wait + takeover + rehydrate + answer.
        question = client.next_question(victim[0])
        assert question is not None
        client.post_answer(
            victim[0], question["question_id"], answer(question)
        )
        takeover_seconds = time.perf_counter() - started
        print(
            f"[bench] kill -9 -> next recorded answer in "
            f"{takeover_seconds:.3f}s (lease TTL {RECOVERY_LEASE_TTL}s)",
            flush=True,
        )
        server.wait_for_slot(dead_slot)

        outcomes = []
        for sid, seed, strategy in opened:
            while (question := client.next_question(sid)) is not None:
                client.post_answer(
                    sid, question["question_id"], answer(question)
                )
            outcomes.append(((seed, strategy), client.predicate(sid)))
    _check_parity(outcomes, workload, oracle)
    return {
        "workload": "tpch/join4",
        "workers": 2,
        "sessions": sessions,
        "lease_ttl_seconds": RECOVERY_LEASE_TTL,
        "takeover_seconds": round(takeover_seconds, 4),
        "parity_checked": True,
    }


def _shm_segments() -> set[str]:
    """Current ``repro_idx_*`` names in ``/dev/shm`` (empty off-Linux)."""
    directory = "/dev/shm"
    if not os.path.isdir(directory):
        return set()
    return {
        entry
        for entry in os.listdir(directory)
        if entry.startswith(index_shm.SEGMENT_PREFIX)
    }


def _summary(samples: list[float]) -> dict:
    return latency_summary(samples) if samples else {"count": 0}


def _attach_build_totals(fleet_payload: dict) -> tuple[int, int]:
    """Fleet-wide (attach_hits, builds) from the aggregated payload."""
    shared = fleet_payload.get("shared_index", {})
    return (
        shared.get("attach_hits_total", 0),
        shared.get("builds_total", 0),
    )


def bench_shared_index(workers: int, seeds: int, db_dir: str, smoke: bool) -> dict:
    """Memory and cold-create latency, one worker vs a sharing fleet.

    The memory reference is a *single-worker* fleet with the plane on:
    one machine-wide flat segment per index, same encoding as the fleet
    side.  The gated ratio therefore isolates what the plane claims —
    N workers hold one copy, not N — instead of comparing flat-buffer
    bytes against heap numpy bytes, which at canary index sizes is
    dominated by the segment header and alignment padding, not by
    sharing."""
    scale = SHARED_INDEX_SCALE_SMOKE if smoke else SHARED_INDEX_SCALE
    supported = index_shm.shared_memory_available()
    cell: dict = {
        "workload": SHARED_INDEX_WORKLOAD,
        "scale": scale,
        "workers": workers,
        "seeds": seeds,
        "supported": supported,
    }
    if not supported:
        print(
            "[bench] shared-memory unavailable; shared_index cell skipped",
            flush=True,
        )
        return cell
    pre_existing = _shm_segments()

    def create(client: ServiceClient, seed: int) -> float:
        started = time.perf_counter()
        client.create_session(
            workload=SHARED_INDEX_WORKLOAD,
            strategy="RND",
            seed=0,
            workload_seed=seed,
            scale=scale,
        )
        return time.perf_counter() - started

    # Single-worker reference, plane on.  Every distinct workload_seed
    # is a value-distinct instance, so each create is a cold
    # build-and-publish: the timed latencies are the fleet's cold-build
    # path and the resident bytes are the same flat segments the fleet
    # attaches (the publish memcpy is noise against the build itself).
    config = FleetConfig(
        store_path=os.path.join(db_dir, "shmidx_single.db"),
        workers=1,
        shared_index=True,
        speculate=False,
    )
    build_latencies: list[float] = []
    with FleetServer(config) as server:
        with ServiceClient(
            server.host, server.port, retries=10, retry_backoff=0.2
        ) as client:
            for seed in range(seeds):
                build_latencies.append(create(client, seed))
            single_memory = client.fleet()["memory"]
    single_resident = single_memory["index_resident_bytes_total"]

    # The shared fleet serves the same instances; every timed create is
    # classified by the fleet-wide attach/build counter delta it caused.
    config = FleetConfig(
        store_path=os.path.join(db_dir, "shmidx_fleet.db"),
        workers=workers,
        shared_index=True,
        speculate=False,
    )
    attach_latencies: list[float] = []
    fleet_build_latencies: list[float] = []
    warm_hits = 0
    with FleetServer(config) as server:
        with ServiceClient(
            server.host, server.port, retries=10, retry_backoff=0.2
        ) as client:
            for seed in range(seeds):
                # Creates hash session ids uniformly over slots, so
                # ~3x workers of them land every worker at least once
                # with overwhelming probability: the first is the
                # build+publish, siblings attach, re-hits are warm.
                for _ in range(workers * 3):
                    before = _attach_build_totals(client.fleet())
                    elapsed = create(client, seed)
                    after = _attach_build_totals(client.fleet())
                    if after[1] > before[1]:
                        fleet_build_latencies.append(elapsed)
                    elif after[0] > before[0]:
                        attach_latencies.append(elapsed)
                    else:
                        warm_hits += 1
            fleet_payload = client.fleet()
    fleet_memory = fleet_payload["memory"]
    fleet_resident = fleet_memory["index_resident_bytes_total"]

    leaked = sorted(_shm_segments() - pre_existing)
    memory_ratio = (
        round(fleet_resident / single_resident, 3)
        if single_resident
        else None
    )
    build_p95 = percentile(build_latencies, 95) if build_latencies else None
    attach_p95 = (
        percentile(attach_latencies, 95) if attach_latencies else None
    )
    attach_speedup = (
        round(build_p95 / attach_p95, 3)
        if build_p95 and attach_p95
        else None
    )
    cell.update(
        {
            "single_resident_bytes": single_resident,
            "fleet_resident_bytes": fleet_resident,
            "fleet_private_bytes": fleet_memory[
                "index_private_bytes_total"
            ],
            "fleet_shared_bytes": fleet_memory["index_shared_bytes"],
            "memory_ratio": memory_ratio,
            "private_build_latency": _summary(build_latencies),
            "attach_latency": _summary(attach_latencies),
            "fleet_build_latency": _summary(fleet_build_latencies),
            "warm_hits": warm_hits,
            "attach_speedup_p95": attach_speedup,
            "counters": fleet_payload.get("shared_index", {}),
            "leaked_segments": leaked,
        }
    )
    print(
        f"[bench] shared index: resident {fleet_resident}B across "
        f"{workers} workers vs {single_resident}B single "
        f"(ratio {memory_ratio}); attach p95 "
        f"{cell['attach_latency'].get('p95_ms')}ms vs build p95 "
        f"{cell['private_build_latency'].get('p95_ms')}ms "
        f"({attach_speedup}x)",
        flush=True,
    )
    return cell


# --- harness -----------------------------------------------------------------


def run_benchmarks(smoke: bool = False) -> dict:
    worker_counts = [1, 2] if smoke else [1, 2, 4]
    sessions = 8 if smoke else 24
    with tempfile.TemporaryDirectory(prefix="bench_fleet_") as db_dir:
        scaling = bench_scaling(worker_counts, sessions, db_dir)
        recovery = bench_recovery(4 if smoke else 6, db_dir)
        shared_index = bench_shared_index(
            workers=2 if smoke else 4,
            seeds=3 if smoke else 6,
            db_dir=db_dir,
            smoke=smoke,
        )

    cpu_count = scaling["cpu_count"]
    workers_max = worker_counts[-1]
    by_workers = scaling["by_workers"]
    single = by_workers["1"]["sessions_per_sec"]
    at_max = by_workers[str(workers_max)]["sessions_per_sec"]
    # On an M-core machine W workers can't scale past min(W, M): the
    # scaling gate applies to the largest measured fleet that fits the
    # cores (the >= 3x-at-4-workers target on >= 4-core hardware; on a
    # 1-core runner it degenerates to the single-worker identity) and
    # oversubscribed fleets are held to the bounded-collapse floor.
    workers_gated = max(w for w in worker_counts if w <= cpu_count)
    at_gated = by_workers[str(workers_gated)]["sessions_per_sec"]
    speedup_gated = round(at_gated / single, 3)
    speedup_max = round(at_max / single, 3)
    floor = round(SCALING_FLOOR_FACTOR * workers_gated, 3)
    supported = shared_index.get("supported", False)
    attach_floor = (
        SHARED_ATTACH_SPEEDUP_FLOOR_SMOKE
        if smoke
        else SHARED_ATTACH_SPEEDUP_FLOOR
    )
    memory_ratio_max = (
        SHARED_MEMORY_RATIO_MAX_SMOKE if smoke else SHARED_MEMORY_RATIO_MAX
    )
    memory_ratio = shared_index.get("memory_ratio")
    attach_speedup = shared_index.get("attach_speedup_p95")
    return {
        "meta": bench_meta(
            smoke=smoke,
            transport="HTTP/1.1 keep-alive over loopback",
            cpu_count=cpu_count,
        ),
        "scaling": scaling,
        "recovery": recovery,
        "shared_index": shared_index,
        "acceptance": {
            "cpu_count": cpu_count,
            "workers_max": workers_max,
            "workers_gated": workers_gated,
            "sessions_per_sec_single": single,
            "sessions_per_sec_max_workers": at_max,
            "sessions_per_sec_gated_workers": at_gated,
            "speedup_vs_single": speedup_max,
            "speedup_at_gated_workers": speedup_gated,
            "scaling_floor": floor,
            "scaling_floor_factor": SCALING_FLOOR_FACTOR,
            "scaling_gate": speedup_gated >= floor,
            "oversubscription_floor": OVERSUBSCRIPTION_FLOOR,
            "oversubscription_gate": (
                speedup_max >= OVERSUBSCRIPTION_FLOOR
            ),
            "takeover_seconds": recovery["takeover_seconds"],
            "lease_ttl_seconds": recovery["lease_ttl_seconds"],
            "recovery_parity": recovery["parity_checked"],
            "scaling_parity": scaling["parity_checked"],
            # An unsupported platform (no POSIX shared memory) degrades
            # to private builds by design; the gates then hold trivially.
            "shared_index_supported": supported,
            "shared_memory_ratio": memory_ratio,
            "shared_memory_ratio_max": memory_ratio_max,
            "shared_memory_gate": (
                not supported
                or (
                    memory_ratio is not None
                    and memory_ratio <= memory_ratio_max
                )
            ),
            "shared_attach_speedup_p95": attach_speedup,
            "shared_attach_speedup_floor": attach_floor,
            "shared_attach_gate": (
                not supported
                or (
                    attach_speedup is not None
                    and attach_speedup >= attach_floor
                )
            ),
            "shared_no_leaked_segments": (
                not shared_index.get("leaked_segments", [])
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
        ),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="8 sessions, fleets of 1 and 2 — a CI regression canary",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    acceptance = report["acceptance"]
    print(
        f"  {acceptance['workers_gated']} workers (core-fitting): "
        f"{acceptance['speedup_at_gated_workers']}x vs single "
        f"(floor {acceptance['scaling_floor']}x on "
        f"{acceptance['cpu_count']} cores); "
        f"{acceptance['workers_max']} workers: "
        f"{acceptance['speedup_vs_single']}x"
    )
    print(
        f"  kill -9 takeover {acceptance['takeover_seconds']}s "
        f"(lease TTL {acceptance['lease_ttl_seconds']}s)"
    )
    if acceptance["shared_index_supported"]:
        print(
            f"  shared index: memory ratio "
            f"{acceptance['shared_memory_ratio']} "
            f"(max {acceptance['shared_memory_ratio_max']}), attach "
            f"p95 speedup {acceptance['shared_attach_speedup_p95']}x "
            f"(floor {acceptance['shared_attach_speedup_floor']}x)"
        )
    gates = [
        ("scaling_gate", acceptance["scaling_gate"]),
        ("oversubscription_gate", acceptance["oversubscription_gate"]),
        ("recovery_parity", acceptance["recovery_parity"]),
        ("scaling_parity", acceptance["scaling_parity"]),
        ("shared_memory_gate", acceptance["shared_memory_gate"]),
        ("shared_attach_gate", acceptance["shared_attach_gate"]),
        (
            "shared_no_leaked_segments",
            acceptance["shared_no_leaked_segments"],
        ),
    ]
    for name, ok in gates:
        print(f"acceptance: {name} → {'OK' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in gates) else 1


if __name__ == "__main__":
    raise SystemExit(main())
