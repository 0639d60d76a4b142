"""End-to-end benchmark of the interactive join-inference service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload interactive-fleet --seed 1 \
        --seconds 45 --trace 0

Launches ``python -m repro serve`` from the checkout's ``src/`` as a
separate process tree over a fresh SQLite store, drives a fixed list of
sessions to completion over HTTP from one closed-loop client, checks every
session against the in-process ``run_inference`` reference, and prints
one JSON object as the last line of standard output.

A run is ``PASSES`` passes.  Each pass starts its own server, serves the
workload's whole session list in an order drawn from ``--seed``, and
stops the server.  Every end-to-end metric is the median over the
passes, so a burst of host interference that hits one or two passes
does not move it.  ``--seconds`` sizes the work, not a deadline: the
passes together serve about that many seconds of sessions, and one
``(workload, seed, seconds)`` always does the same work.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then the same pass again with ``perfbench/hook`` on
``PYTHONPATH`` so every server process installs timing wrappers around
the layers' public calls, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from loadgen import create_and_delete, run_sessions
from server import Server, ServerError, host_steal, remove_segments, shm_segments

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
PASSES = 6

UNITS = {
    "setup_s": "s", "first_question_ms.p50": "ms", "first_question_ms.p90": "ms",
    "answer_round_ms.p50": "ms", "answer_round_ms.p95": "ms",
    "answers_per_s": "1/s", "sessions_per_s": "1/s",
    "server_cpu_ms_per_answer": "ms", "server_peak_rss_mb": "MB",
    "questions_per_session": "count",
}


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def _source_digest() -> str:
    """Hash of the program's and the benchmark's Python sources: a
    cached reference result is reused only for identical code."""
    digest = hashlib.sha256()
    for root in (SRC / "repro", HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


class Pass:
    """One server tree serving the whole session list once."""

    def __init__(self, workload, seed: int, index: int, scratch: Path, trace_dir: Path | None = None):
        self.workload = workload
        self.plans = workload.pass_plans(seed, index)
        self.store_dir = scratch / f"pass{index}{'-traced' if trace_dir else ''}"
        self.trace_dir = trace_dir
        self.leaks: list[str] = []

    def run(self) -> dict:
        """Set up, serve the measured sessions, stop; returns what was seen."""
        extra = {}
        if self.trace_dir is not None:
            extra = {
                "extra_path": [HERE / "hook"],
                "extra_env": {"PERFBENCH_TRACE_DIR": str(self.trace_dir)},
            }
        server = Server(SRC, self.store_dir, self.workload.spec.workers, **extra)
        try:
            # Set-up: first answered request, then the warm-up sessions.
            server.wait_answering()
            warm, _, warm_failed, _ = run_sessions(server.port, self.workload.warmup)
            if warm_failed or any(r.error for r in warm):
                raise RuntimeError(f"warm-up failed: {[r.error for r in warm if r.error][:1]}")
            if self.workload.spec.workers > 1:
                spread_indexes(server, self.workload.warmup)
            setup_s = time.perf_counter() - server.launched

            steal_before = host_steal()
            cpu_before = server.cpu_seconds()
            results, attempted, failed, wall = run_sessions(server.port, self.plans)
            cpu = server.cpu_seconds() - cpu_before
            steal = [a - b for a, b in zip(host_steal(), steal_before)]
            stats = server.stats()
            rss_mb = server.peak_rss_mb()
        finally:
            try:
                server.stop()
            finally:
                self.leaks = shm_segments()
                remove_segments(self.leaks)
        return {
            "plans": self.plans, "results": results,
            "attempted": attempted, "failed": failed,
            "setup_s": setup_s, "wall_s": wall, "server_cpu_s": cpu, "rss_mb": rss_mb,
            "steal_share": steal[0] / steal[1] if steal[1] else 0.0,
            "stats": stats,
        }


def spread_indexes(server: Server, warmup: list, rounds: int = 32) -> None:
    """Create and delete sessions on the warm-up instances until every
    fleet worker holds every instance's index.

    A session's home worker follows from its id, which the server picks,
    so the warm-up sessions proper reach each worker for only some
    instances.  Left alone, the first measured session on an instance
    on the other worker pays the index attach, and which session that is
    depends on the order: it moved ``first_question_ms.p50`` by half
    between seeds.
    """
    wanted = len({plan.instance_key for plan in warmup})
    for _ in range(rounds):
        if all(w["index_cache"]["entries"] >= wanted for w in server.stats()):
            return
        for plan in warmup:
            create_and_delete(server.port, plan.payload)
    raise RuntimeError(f"warm-up: some worker still lacks an index after {rounds} rounds")


def mismatches(measured: dict, reference) -> list[str]:
    """Sessions whose served result differs from the in-process
    reference (sessions that failed a request are counted there)."""
    found = []
    for plan, result in zip(measured["plans"], measured["results"]):
        if result.error:
            continue
        pairs, interactions = reference.expected(plan)
        if result.pairs != pairs or result.interactions != interactions:
            found.append(
                f"{plan.strategy} session (seed {plan.seed}): served {result.pairs} "
                f"after {result.interactions} questions, reference {pairs} "
                f"after {interactions}"
            )
    return found


PERCENTILES = {
    "first_question_ms.p50": ("first", 50), "first_question_ms.p90": ("first", 90),
    "answer_round_ms.p50": ("round", 50), "answer_round_ms.p95": ("round", 95),
}
#: A percentile is taken in each pass, and the median over the passes
#: reported, when one pass has at least this many samples beyond it.
#: Otherwise it is taken over the samples of all passes pooled.  At 10,
#: the fleet's per-pass median first question (12 of 25 samples beyond
#: it) jumped between the quick strategies and the lookahead ones.
MIN_BEYOND = 20


def _pass_values(measured: dict) -> dict:
    results = [r for r in measured["results"] if r.error is None]
    answers = sum(len(r.rounds_s) for r in results)
    return {
        "setup_s": measured["setup_s"],
        "answers_per_s": answers / measured["wall_s"],
        "sessions_per_s": len(results) / measured["wall_s"],
        "server_cpu_ms_per_answer": measured["server_cpu_s"] * 1e3 / answers,
        "server_peak_rss_mb": measured["rss_mb"],
        "questions_per_session": answers / len(results),
    }


def _samples(measured: dict, kind: str) -> list[float]:
    results = [r for r in measured["results"] if r.error is None]
    if kind == "first":
        return [r.first_question_s * 1e3 for r in results]
    return [x * 1e3 for r in results for x in r.rounds_s]


def end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of these passes, and one report line each.

    Every metric is the median over the passes of its value in each
    pass, so a burst of host interference that slows one pass does not
    move it; a percentile with too few samples in one pass is taken
    over the pooled samples instead (:data:`MIN_BEYOND`).
    """
    per_pass = [_pass_values(m) for m in passes]
    values, lines = {}, []
    for name, unit in UNITS.items():
        if name in PERCENTILES:
            kind, p = PERCENTILES[name]
            samples = [_samples(m, kind) for m in passes]
            fewest = min(len(s) for s in samples)
            if fewest * (100 - p) / 100 < MIN_BEYOND:
                pooled = [x for s in samples for x in s]
                values[name] = percentile(pooled, p)
                lines.append(
                    f"  {name:26s} {values[name]:11.4f} {unit:5s} (nearest-rank over "
                    f"{len(pooled)} pooled samples of {len(passes)} passes)"
                )
                continue
            for v, s in zip(per_pass, samples):
                v[name] = percentile(s, p)
        values[name] = statistics.median(v[name] for v in per_pass)
        detail = "median of passes " + " ".join(f"{v[name]:.4g}" for v in per_pass)
        if name in PERCENTILES:
            detail += f"; nearest-rank over >= {fewest} samples each"
        lines.append(f"  {name:26s} {values[name]:11.4f} {unit:5s} ({detail})")
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell that starts the benchmark in the background leaves SIGINT
    # ignored, and an ignored signal stays ignored across exec: the
    # single-process server would then never see the SIGINT it is
    # stopped with.  A handler installed here resets to the default in
    # the child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    stale = shm_segments()
    if stale:
        _fail(f"/dev/shm already holds {len(stale)} repro_* segments: {stale[:3]}")

    passes = 2 if args.trace else PASSES
    workload = workloads.build(args.workload, args.seconds / PASSES)
    reference = workloads.ReferenceRunner(
        workload.instances,
        WORK_DIR / "reference" / f"{args.workload}-{_source_digest()}.json",
    )
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        lines, result = _run(args, workload, reference, scratch, passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def _run(args, workload, reference, scratch: Path, passes: int) -> tuple[list[str], dict]:
    lines = [
        f"workload {args.workload}: {passes} passes of {len(workload.plans)} sessions, "
        f"seed {args.seed}, {workload.spec.workers} server process(es), "
        "one closed-loop client",
        f"warm-up: {workload.warmup_note}",
    ]
    clock = time.perf_counter
    started = clock()
    runs = [Pass(workload, args.seed, k, scratch) for k in range(passes)]
    if args.trace:
        # The traced pass repeats the untraced pass's order and think
        # times, so trace.overhead_pct compares like with like.
        runs[1] = Pass(workload, args.seed, 0, scratch, trace_dir=scratch / "trace")
        runs[1].trace_dir.mkdir()
    problems, mismatched, measured = [], 0, {}
    for k, r in enumerate(runs):
        try:
            measured[k] = r.run()
        except (ServerError, RuntimeError, OSError) as exc:
            problems.append(f"pass {k}: {exc}")
    served = clock()

    for k, m in measured.items():
        found = mismatches(m, reference)
        mismatched += len(found)
        problems += [f"pass {k}: {p}" for p in found]
        problems += [f"pass {k}: {r.error}" for r in m["results"] if r.error]
        expected = sum(reference.expected(p)[1] for p in m["plans"])
        answered = sum(len(r.rounds_s) for r in m["results"])
        if answered != expected:
            problems.append(
                f"pass {k}: fixed work broken: {answered} answer rounds served, "
                f"{expected} expected"
            )
    for k, r in enumerate(runs):
        if r.leaks:
            problems.append(
                f"pass {k}: {len(r.leaks)} repro_* segments survived shutdown: {r.leaks[:3]}"
            )
    reference.save()
    # A pass that crashed counts as one failed attempt.
    crashed = len(runs) - len(measured)
    attempted = sum(m["attempted"] for m in measured.values()) + crashed
    failed = sum(m["failed"] for m in measured.values()) + mismatched + crashed

    untraced = [m for k, m in measured.items() if not (args.trace and k == 1)]
    values = {}
    if untraced and not any(r.error for m in untraced for r in m["results"]):
        values, metric_lines = end_to_end(untraced)
        lines += metric_lines
    lines.append(f"  failed_ratio {failed}/{attempted} requests")
    lines.append(
        "  host CPU stolen by the hypervisor per pass: "
        + " ".join(f"{m['steal_share']:.1%}" for m in measured.values())
    )
    lines.append(f"phases: serving {served - started:.1f}s, reference check {clock() - served:.1f}s")
    lines.extend(f"FAILED {p}" for p in problems[:20])

    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    if args.trace:
        import layers

        metrics = {}
        if values and 1 in measured:
            metrics = layers.per_layer(workload, measured[1], runs[1].trace_dir, values)
    return lines, {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
