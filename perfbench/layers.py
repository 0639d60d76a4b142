"""Per-layer metrics of the traced run.

Timings come from the spans ``hook/perfbench_trace.py`` records in every
server process; counts and ratios come from the same spans or from the
service's own counters on ``GET /stats`` (summed over fleet workers).
Both cover the traced server's whole life: warm-up plus measured
sessions.  A layer the workload never reaches reports 0 with no samples
(``router.*`` outside the fleet, for instance).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from run import percentile

#: name -> (unit, better); the order is the report order.
PER_LAYER = {
    "router.self_ms.p50": ("ms", "lower"),
    "router.requests": ("count", "lower"),
    "app.answer_self_ms.p50": ("ms", "lower"),
    "app.question_self_ms.p50": ("ms", "lower"),
    "app.create_self_ms.p50": ("ms", "lower"),
    "protocol.parse_create_ms.p50": ("ms", "lower"),
    "manager.record_answer_ms.p50": ("ms", "lower"),
    "manager.propose_ms.p50": ("ms", "lower"),
    "manager.create_ms.p50": ("ms", "lower"),
    "manager.spec_hit_ratio": ("ratio", "higher"),
    "manager.spec_useful_ratio": ("ratio", "higher"),
    "manager.spec_skipped_think": ("count", "lower"),
    "manager.spec_skipped_capacity": ("count", "lower"),
    "session.propose_ms.p50": ("ms", "lower"),
    "session.answer_ms.p50": ("ms", "lower"),
    "planner.entropies_ms.p50": ("ms", "lower"),
    "planner.entropies_ms.p95": ("ms", "lower"),
    "planner.advance_ms.p50": ("ms", "lower"),
    "planner.calls": ("count", "lower"),
    "kernel_batch.jobs": ("count", "lower"),
    "kernel_batch.batched_share": ("ratio", "higher"),
    "kernel_batch.window_wait_ms.p50": ("ms", "lower"),
    "plan_cache.gets": ("count", "lower"),
    "plan_cache.hit_ratio": ("ratio", "higher"),
    "plan_cache.shared_hits": ("count", "higher"),
    "plan_cache.computes": ("count", "lower"),
    "plan_cache.get_ms.p50": ("ms", "lower"),
    "plan_cache.install_ms.p50": ("ms", "lower"),
    "index_cache.get_ms.p50": ("ms", "lower"),
    "index_cache.build_ms.p50": ("ms", "lower"),
    "index_cache.fingerprint_ms.p50": ("ms", "lower"),
    "index_cache.builds": ("count", "lower"),
    "index_cache.hits": ("count", "higher"),
    "index_cache.attach_hits": ("count", "higher"),
    "store.append_ms.p50": ("ms", "lower"),
    "store.checkpoint_ms.p50": ("ms", "lower"),
    "store.answers_per_append": ("count", "higher"),
    "store.checkpoint_bytes": ("bytes", "lower"),
    "store.flush_errors": ("count", "lower"),
    "events.published": ("count", "lower"),
    "events.publish_ms.p50": ("ms", "lower"),
    "client.wire_ms.p50": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Spans that are waits on another process, not a layer's own work.
_WAITS = {
    "router.upstream", "kernel_batch.window_wait", "kernel_batch.submit",
    "manager.spec_branches",
}


def _p(values: list[float], p: float) -> float:
    return percentile(values, p) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter(stats: list[dict], block: str, key: str) -> int:
    return sum(s.get(block, {}).get(key, 0) for s in stats)


def load_spans(trace_dir: Path) -> list[tuple]:
    spans = []
    for path in sorted(trace_dir.glob("*.json")):
        spans.extend(json.loads(path.read_text())["spans"])
    return spans


def per_layer(workload, traced: dict, trace_dir: Path, untraced: dict) -> dict:
    """name -> (value, unit) for every metric in :data:`PER_LAYER`.

    ``traced`` is the traced pass, ``untraced`` the end-to-end values of
    the untraced pass (the baseline of ``trace.overhead_pct``)."""
    root = "router" if workload.spec.workers > 1 else "app"
    ms = defaultdict(list)  # layer -> durations (ms)
    own = defaultdict(list)  # layer, or (layer, action) -> self times (ms)
    extra = defaultdict(list)  # layer -> recorded sizes
    by_request = defaultdict(list)  # (sid, action, n) -> [self ms of non-wait spans]
    root_ms = {}  # (sid, action, n) -> outermost server span (ms)
    for layer, duration, self_ns, key, value in load_spans(trace_dir):
        ms[layer].append(duration / 1e6)
        own[layer].append(self_ns / 1e6)
        if value is not None:
            extra[layer].append(value)
        if key:
            own[(layer, key[1])].append(self_ns / 1e6)
        if key and key[0]:
            key = tuple(key)
            if layer not in _WAITS:
                by_request[key].append(self_ns / 1e6)
            if layer == root:
                root_ms[key] = duration / 1e6

    # A round is the answer request plus the next question request.
    rounds, wires, attributed = [], [], 0.0
    for result in traced["results"]:
        for k, round_s in enumerate(result.rounds_s):
            keys = [(result.session_id, "answer", k), (result.session_id, "question", k + 1)]
            if all(key in root_ms for key in keys):
                rounds.append(round_s * 1e3)
                wires.append(rounds[-1] - sum(root_ms[key] for key in keys))
                attributed += sum(sum(by_request[key]) for key in keys)
    unattributed = (
        _mean(rounds) - _mean(wires) - attributed / len(rounds) if rounds else 0.0
    )
    traced_rounds = [x * 1e3 for r in traced["results"] for x in r.rounds_s]

    stats = traced["stats"]
    spec_hits = _counter(stats, "speculation", "hits")
    spec_misses = _counter(stats, "speculation", "misses")
    batched = _counter(stats, "kernel_batch", "batched_jobs")
    fallback = _counter(stats, "kernel_batch", "fallback_jobs")
    plan_hits = _counter(stats, "plan_cache", "local_hits") + _counter(
        stats, "plan_cache", "shared_hits"
    )
    values = {
        "router.self_ms.p50": _p(own[("router", "answer")] + own[("router", "question")], 50),
        "router.requests": len(ms["router"]),
        "app.answer_self_ms.p50": _p(own[("app", "answer")], 50),
        "app.question_self_ms.p50": _p(own[("app", "question")], 50),
        "app.create_self_ms.p50": _p(own[("app", "create")], 50),
        "protocol.parse_create_ms.p50": _p(ms["protocol.parse_create"], 50),
        "manager.record_answer_ms.p50": _p(ms["manager.record_answer"], 50),
        "manager.propose_ms.p50": _p(ms["manager.propose"], 50),
        "manager.create_ms.p50": _p(own["manager.create"], 50),
        "manager.spec_hit_ratio": _ratio(spec_hits, spec_hits + spec_misses),
        "manager.spec_useful_ratio": _ratio(spec_hits, sum(extra["manager.spec_branches"])),
        "manager.spec_skipped_think": _counter(stats, "speculation", "skipped_think"),
        "manager.spec_skipped_capacity": _counter(stats, "speculation", "skipped_capacity"),
        "session.propose_ms.p50": _p(ms["session.propose"], 50),
        "session.answer_ms.p50": _p(ms["session.answer"], 50),
        "planner.entropies_ms.p50": _p(ms["planner.entropies"], 50),
        "planner.entropies_ms.p95": _p(ms["planner.entropies"], 95),
        "planner.advance_ms.p50": _p(ms["planner.advance"], 50),
        "planner.calls": len(ms["planner.entropies"]) + len(ms["planner.advance"]),
        "kernel_batch.jobs": len(ms["kernel_batch.submit"]),
        "kernel_batch.batched_share": _ratio(batched, batched + fallback),
        "kernel_batch.window_wait_ms.p50": _p(ms["kernel_batch.window_wait"], 50),
        "plan_cache.gets": len(ms["plan_cache.get"]),
        "plan_cache.hit_ratio": _ratio(plan_hits, _counter(stats, "plan_cache", "misses")),
        "plan_cache.shared_hits": _counter(stats, "plan_cache", "shared_hits"),
        "plan_cache.computes": _counter(stats, "plan_cache", "computes"),
        "plan_cache.get_ms.p50": _p(ms["plan_cache.get"], 50),
        "plan_cache.install_ms.p50": _p(ms["plan_cache.install"], 50),
        "index_cache.get_ms.p50": _p(ms["index_cache.get"], 50),
        "index_cache.build_ms.p50": _p(ms["index_cache.build"], 50),
        "index_cache.fingerprint_ms.p50": _p(ms["index_cache.fingerprint"], 50),
        "index_cache.builds": _counter(stats, "index_cache", "builds"),
        "index_cache.hits": _counter(stats, "index_cache", "hits"),
        "index_cache.attach_hits": _counter(stats, "index_cache", "attach_hits"),
        "store.append_ms.p50": _p(ms["store.append"], 50),
        "store.checkpoint_ms.p50": _p(ms["store.checkpoint"], 50),
        "store.answers_per_append": _mean(extra["store.append"]),
        "store.checkpoint_bytes": _mean(extra["store.checkpoint"]),
        "store.flush_errors": _counter(stats, "store", "flush_errors"),
        "events.published": len(ms["events.publish"]),
        "events.publish_ms.p50": _p(ms["events.publish"], 50),
        "client.wire_ms.p50": _p(wires, 50),
        "trace.unattributed_ms": unattributed,
        "trace.overhead_pct": 100.0 * (_p(traced_rounds, 50) / untraced["answer_round_ms.p50"] - 1.0),
    }
    return {name: (values[name], unit) for name, (unit, _better) in PER_LAYER.items()}
