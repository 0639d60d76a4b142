"""Cross-session batched L1S/L2S kernels over one shared index.

Many concurrent sessions inferring over the *same* shared
:class:`~repro.core.signatures.SignatureIndex` each run a near-identical
entropy contraction per answer round — at 64–256 sessions per index the
server recomputes the same dense algebra S times per tick, paying the
fixed numpy dispatch overhead of ~30 kernel launches *per session*.
This module stacks those per-session computations into one batch:

* every session's :class:`~repro.core.planner.IncrementalLookaheadPlanner`
  exports its maintained matrices as a :class:`BatchableEntropyJob`
  (:meth:`~repro.core.planner.IncrementalLookaheadPlanner.
  export_batch_job`);
* :func:`batched_entropies` zero-pads the jobs to a common ``(n_max,
  u_max)`` shape and runs the whole batch through stacked 3-D
  contractions — one ``(S·|N|, |U|) × (|U|, |N|)`` matmul, one shared
  ``np.bincount`` over offset-disjoint group ids, one batched
  skyline-row reduction — scattering per-session entropy tables back.

**Bit-for-bit identical** to the per-session path: every quantity in
the L1S/L2S algebra is an integer-valued float far below the mantissa
limit (the batch even drops to float32 when the instance total leaves
a 4× margin below 2²⁴ — see :func:`_accumulator_dtype`), so float sums
are exact regardless of association, and zero-padded rows and columns
contribute exactly ``+0.0``.  The padding must only keep
*invalid* inner choices out of the skyline reduction, which it does by
padding ``counts`` with 0, ``SUB``/``C1P`` with True (a padded inner
class is "already certain", hence invalid in ``~C1P`` / ``~SUBᵀ``) and
``inverse`` with 0 (padded cells carry weight 0 into the shared
bincount).  Property-tested against the incremental planner and the
pure-Python reference in ``tests/core/test_kernel_batch.py``.

:class:`KernelBatchScheduler` is the serving-side half: a dispatcher
thread owns per-key job queues (one key per shared index), coalesces
concurrently submitted jobs for a short window, and executes each flush
as one stacked batch — singleton batches and planners that decline to
export (scratch mode, transient first propose, depth > 2) fall back to
the ordinary per-session ``planner.entropies()``, which is the
correctness anchor the batch is tested against.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

import numpy as np

from .entropy import INFINITE_ENTROPY, Entropy

__all__ = [
    "BatchableEntropyJob",
    "KernelBatchScheduler",
    "batched_entropies",
]


@dataclass(slots=True)
class BatchableEntropyJob:
    """One session's exported entropy computation.

    The arrays are the planner's *live* maintained structures — shared,
    never mutated by the batch kernels (read-only stacking into padded
    copies), exactly like a session fork shares them.
    """

    depth: int
    ids: np.ndarray  #: (n,) int64 informative class ids
    counts: np.ndarray  #: (n,) float64 class cardinalities
    sub: np.ndarray  #: (n, n) bool — SUB[a, k] = needle(a,k) == T2[a]
    c1p: np.ndarray  #: (n, n) bool — certain-if-positive
    inverse: np.ndarray | None = None  #: (n, n) int64 (depth 2 only)
    sub_u: np.ndarray | None = None  #: (u, n) bool (depth 2 only)
    certain_u: np.ndarray | None = None  #: (u, n) bool (depth 2 only)


_NEG_INF = float("-inf")


def _accumulator_dtype(jobs: list[BatchableEntropyJob]) -> np.dtype:
    """Accumulator dtype for one batch: float32 whenever bit-exactness
    is guaranteed, float64 otherwise.

    Every quantity in the L1S/L2S algebra is an integer: a sum of
    non-negative class counts, give or take a small constant.  All
    intermediates are bounded in magnitude by ~2× the total weighted
    count, and non-negative partial sums never overshoot their total —
    so while the total stays below 2²² every intermediate is an integer
    below 2²⁴, exactly representable in float32 (4× safety margin).
    That halves the batch's memory traffic; larger instances fall back
    to float64, exact below 2⁵³.
    """
    total = max(float(job.counts.sum()) for job in jobs)
    return np.dtype(np.float32 if total < 2.0**22 else np.float64)


def _scatter(
    ids: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    has: np.ndarray,
) -> dict[int, Entropy]:
    """One session's entropy table from its reduced rows — a C-speed
    ``dict(zip(...))`` build, with ``(∞, ∞)`` patched over the classes
    that keep no informative inner choice."""
    table: dict[int, Entropy] = dict(
        zip(ids.tolist(), zip(low.tolist(), high.tolist()))
    )
    if not has.all():
        for class_id in ids[~has].tolist():
            table[class_id] = INFINITE_ENTROPY
    return table


#: L1S per-job work is two matvecs — already one BLAS launch each, so
#: stacking into padded 3-D matmuls only pays while the padded fills
#: are cheaper than the per-job dispatch they save.  Measured crossover
#: is ``n ≈ 32``: above it the per-job loop wins at every batch size
#: (at the ``n ≥ 128`` export floor it is 2–4× faster than stacking),
#: and the batch's gain over the per-session path comes from skipping
#: the ~30-launch planner pipeline, not from fusing the matmuls.
_DEPTH1_STACK_MAX_CELLS = 1 << 10


def _batched_depth1(
    jobs: list[BatchableEntropyJob],
) -> list[dict[int, Entropy]]:
    """Stacked L1S: per session ``u_pos = C1P @ counts - 1`` and
    ``u_neg = counts @ SUB - 1`` become two 3-D matmuls over typed
    batch arrays (filled per job, so no hidden bool→float casts) —
    or a per-job loop above the tiny-matrix stacking crossover."""
    batch = len(jobs)
    n_max = max(job.ids.size for job in jobs)
    dtype = _accumulator_dtype(jobs)
    if n_max * n_max > _DEPTH1_STACK_MAX_CELLS:
        results = []
        for job in jobs:
            c = job.counts.astype(dtype)
            u_pos = job.c1p @ c
            u_neg = c @ job.sub
            lows = np.minimum(u_pos, u_neg).astype(np.int64) - 1
            highs = np.maximum(u_pos, u_neg).astype(np.int64) - 1
            results.append(
                dict(
                    zip(
                        job.ids.tolist(),
                        zip(lows.tolist(), highs.tolist()),
                    )
                )
            )
        return results
    counts = np.zeros((batch, n_max), dtype=dtype)
    sub = np.zeros((batch, n_max, n_max), dtype=dtype)
    c1p = np.zeros((batch, n_max, n_max), dtype=dtype)
    for s, job in enumerate(jobs):
        n = job.ids.size
        counts[s, :n] = job.counts
        sub[s, :n, :n] = job.sub
        c1p[s, :n, :n] = job.c1p
    # Padded columns multiply a zero count, padded rows are never read.
    u_pos = np.matmul(c1p, counts[:, :, None])[..., 0]
    u_neg = np.matmul(counts[:, None, :], sub)[:, 0, :]
    lows = np.minimum(u_pos, u_neg).astype(np.int64) - 1
    highs = np.maximum(u_pos, u_neg).astype(np.int64) - 1
    results = []
    for s, job in enumerate(jobs):
        n = job.ids.size
        results.append(
            dict(
                zip(
                    job.ids.tolist(),
                    zip(lows[s, :n].tolist(), highs[s, :n].tolist()),
                )
            )
        )
    return results


def _batched_depth2(
    jobs: list[BatchableEntropyJob],
) -> list[dict[int, Entropy]]:
    """Stacked L2S: the whole ``(|N|, |U|) × (|U|, |N|)`` contraction of
    every session runs as one 3-D matmul batch plus one shared bincount.

    Padding: ``counts → 0`` (padded classes weigh nothing), ``SUB``/
    ``C1P → True`` (padded inner classes are invalid in the skyline
    masks and contribute zero weight), ``inverse → 0`` (padded cells
    route weight 0 to group 0 — an exact ``+0.0``).

    The skyline reductions run on masked floats (``-inf`` sentinel):
    every value is an exact integer, so float ``min``/``max``/equality
    match the per-session int64 reduction bit for bit.  The negative
    side reduces along axis 1 instead of materialising transposes —
    ``U−−`` is symmetric and ``U−+[a, k] = U+−[k, a]``.
    """
    batch = len(jobs)
    n_max = max(job.ids.size for job in jobs)
    u_max = max(job.sub_u.shape[0] for job in jobs)
    dtype = _accumulator_dtype(jobs)
    counts = np.zeros((batch, n_max), dtype=dtype)
    counts64 = np.zeros((batch, n_max), dtype=np.float64)
    sub = np.ones((batch, n_max, n_max), dtype=bool)
    c1p = np.ones((batch, n_max, n_max), dtype=bool)
    inverse = np.zeros((batch, n_max, n_max), dtype=np.int64)
    sub_u = np.zeros((batch, u_max, n_max), dtype=dtype)
    certain_u = np.zeros((batch, u_max, n_max), dtype=dtype)
    for s, job in enumerate(jobs):
        n = job.ids.size
        u = job.sub_u.shape[0]
        counts[s, :n] = job.counts
        counts64[s, :n] = job.counts
        sub[s, :n, :n] = job.sub
        c1p[s, :n, :n] = job.c1p
        inverse[s, :n, :n] = job.inverse
        sub_u[s, :u, :n] = job.sub_u
        certain_u[s, :u, :n] = job.certain_u

    # "+,+": per-distinct-needle certain weight, gathered per cell
    # (the -2 rides the small (S, u) array, not the gathered cube).
    needle_weights = np.matmul(certain_u, counts[:, :, None])[..., 0]
    needle_weights -= 2.0
    u_pp = needle_weights[np.arange(batch)[:, None, None], inverse]

    # "+,−": certain-anyway weight plus the grouped fresh weights of
    # each distinct needle — one shared bincount over offset-disjoint
    # ids (bincount accumulates in float64 whatever its input dtype).
    fresh = np.where(c1p, 0.0, counts64[:, None, :])
    row_base = (
        np.arange(batch, dtype=np.int64)[:, None] * n_max
        + np.arange(n_max, dtype=np.int64)[None, :]
    ) * u_max
    grouped = np.bincount(
        (row_base[:, :, None] + inverse).ravel(),
        weights=fresh.ravel(),
        minlength=batch * n_max * u_max,
    ).reshape(batch, n_max, u_max)
    base_p = counts64.sum(axis=1)[:, None] - fresh.sum(axis=2)
    u_pn = np.matmul(grouped.astype(dtype), sub_u)
    u_pn += np.asarray(base_p - 2.0, dtype=dtype)[:, :, None]

    # "−,−": rank-one overlap refresh, batched and in place.
    sub_f = sub.astype(dtype)
    weighted = sub_f * counts[:, :, None]
    tot_neg = weighted.sum(axis=1)
    overlap = np.matmul(weighted.transpose(0, 2, 1), sub_f)
    np.subtract(tot_neg[:, :, None], overlap, out=overlap)
    overlap += (tot_neg - 2.0)[:, None, :]
    u_nn = overlap

    # Positive side: best over inner k (axis 2), invalid where C1P.
    # u_pp doubles as the lows buffer — it is not read again.
    highs = np.maximum(u_pp, u_pn)
    np.minimum(u_pp, u_pn, out=u_pp)
    lows = u_pp
    np.copyto(lows, _NEG_INF, where=c1p)
    pos_low = lows.max(axis=2)
    np.copyto(highs, _NEG_INF, where=lows != pos_low[:, :, None])
    pos_high = highs.max(axis=2)
    pos_has = pos_low != _NEG_INF

    # Negative side: best over inner k (axis 1 — the arrays are read
    # as [s, k, a]), invalid where SUB[k, a].  Buffers are reused.
    np.minimum(u_pn, u_nn, out=lows)
    np.maximum(u_pn, u_nn, out=highs)
    np.copyto(lows, _NEG_INF, where=sub)
    neg_low = lows.max(axis=1)
    np.copyto(highs, _NEG_INF, where=lows != neg_low[:, None, :])
    neg_high = highs.max(axis=1)
    neg_has = neg_low != _NEG_INF

    # min(pos, neg) with the per-session tie semantics: min returns its
    # first argument on ties, so pos wins iff pos <= neg as tuples.
    choose_pos = pos_has & (
        ~neg_has
        | (pos_low < neg_low)
        | ((pos_low == neg_low) & (pos_high <= neg_high))
    )
    has = pos_has | neg_has
    low = np.where(choose_pos, pos_low, neg_low)
    high = np.where(choose_pos, pos_high, neg_high)
    low_i = np.where(has, low, 0.0).astype(np.int64)
    high_i = np.where(has, high, 0.0).astype(np.int64)
    results = []
    for s, job in enumerate(jobs):
        n = job.ids.size
        results.append(
            _scatter(
                job.ids, low_i[s, :n], high_i[s, :n], has[s, :n]
            )
        )
    return results


def batched_entropies(
    jobs: list[BatchableEntropyJob],
) -> list[dict[int, Entropy]]:
    """Entropy tables for a (possibly mixed-depth) batch of jobs, in
    submission order — bit-for-bit what each job's planner would have
    produced on its own."""
    by_depth: dict[int, list[int]] = {}
    for position, job in enumerate(jobs):
        if job.depth not in (1, 2):
            raise ValueError(
                f"batchable jobs are depth 1 or 2, got {job.depth}"
            )
        by_depth.setdefault(job.depth, []).append(position)
    results: list[dict[int, Entropy] | None] = [None] * len(jobs)
    for depth, positions in by_depth.items():
        kernel = _batched_depth1 if depth == 1 else _batched_depth2
        for position, table in zip(
            positions, kernel([jobs[p] for p in positions])
        ):
            results[position] = table
    return results


# --- scheduler ---------------------------------------------------------------


@dataclass(slots=True)
class _QueuedJob:
    """One pending proposal: the planner to run, its result future, and
    (when the plan cache is on) the canonical state key to write the
    result through to."""

    planner: Any
    future: Future = field(default_factory=Future)
    plan_key: Any = None


class KernelBatchScheduler:
    """Coalesces per-session entropy jobs into stacked batch kernels.

    Jobs are keyed by the shared structure they batch over (the server
    uses ``id(index)`` — sessions on one cached index share the object).
    A dedicated dispatcher thread waits ``window_seconds`` after an idle
    period's first submission so concurrent proposals pile up, then
    drains each key's queue in batches of at most ``max_batch``.  While
    a batch executes, newly submitted jobs queue behind it and are
    flushed immediately after — back-pressure adaptively grows the next
    batch instead of adding latency.

    Cancellation is handled at flush time: a future cancelled while
    queued (session evicted, speculation aborted, shutdown) is dropped
    via ``set_running_or_notify_cancel`` before any kernel runs.
    Planners that decline to export a job — scratch mode, the transient
    first propose, depth > 2 — and singleton batches run the ordinary
    per-session ``planner.entropies()`` instead.
    """

    def __init__(
        self,
        *,
        window_seconds: float = 0.002,
        max_batch: int = 64,
    ):
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._queues: dict[Hashable, deque[_QueuedJob]] = {}
        self._wakeup = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._batches = 0
        self._batched_jobs = 0
        self._fallback_jobs = 0
        self._cancelled_jobs = 0
        self._batch_errors = 0
        self._plan_sink_errors = 0
        self._histogram: Counter[int] = Counter()
        #: Plan-cache write-through: when set, every job that completes
        #: with a ``plan_key`` hands its table to ``plan_sink(key,
        #: table)`` — batched *and* fallback members alike, so one batch
        #: installs every member's table.  Results are set before the
        #: sink runs; a sink failure never reaches the waiter.
        self.plan_sink: Callable[[Any, dict[int, Entropy]], None] | None = (
            None
        )

    # --- submission ----------------------------------------------------------

    def submit(
        self, key: Hashable, planner: Any, *, plan_key: Any = None
    ) -> Future:
        """Queue one planner's entropy production; returns its future.

        The future resolves to the planner's ``dict[int, Entropy]``
        table.  Cancelling it before the flush drops the job without
        running any kernel.  ``plan_key`` tags the job for plan-cache
        write-through (see ``plan_sink``).
        """
        job = _QueuedJob(planner, plan_key=plan_key)
        with self._lock:
            if self._closed:
                raise RuntimeError("KernelBatchScheduler is closed")
            self._queues.setdefault(key, deque()).append(job)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run,
                    name="kernel-batch",
                    daemon=True,
                )
                self._thread.start()
        self._wakeup.set()
        return job.future

    def entropies(
        self, key: Hashable, planner: Any, *, plan_key: Any = None
    ) -> dict[int, Entropy]:
        """Submit and block — the convenience for worker threads."""
        return self.submit(key, planner, plan_key=plan_key).result()

    def close(self, wait: bool = True) -> None:
        """Stop the dispatcher; queued-but-unflushed jobs are cancelled."""
        with self._lock:
            self._closed = True
            thread = self._thread
        self._wakeup.set()
        if thread is not None and wait:
            thread.join()

    # --- dispatcher ----------------------------------------------------------

    def _next_batch(self) -> list[_QueuedJob] | None:
        with self._lock:
            for key in list(self._queues):
                queue = self._queues[key]
                if not queue:
                    # Keys are id()s of shared indexes — evicted ones
                    # never resubmit, so drained queues are dropped to
                    # keep the map from growing with index churn.
                    del self._queues[key]
                    continue
                return [
                    queue.popleft()
                    for _ in range(min(len(queue), self.max_batch))
                ]
            # Queues drained: clear the wakeup under the lock so a
            # submit racing this drain either lands in a queue we saw
            # or re-sets the event after we cleared it.
            self._wakeup.clear()
        return None

    def _run(self) -> None:
        while True:
            self._wakeup.wait()
            if self._closed:
                self._drain_cancelled()
                return
            if self.window_seconds:
                # Coalescing window: let concurrent proposals pile up
                # before the first flush of this busy period.
                time.sleep(self.window_seconds)
            while (batch := self._next_batch()) is not None:
                self._execute(batch)
                if self._closed:
                    break
            if self._closed:
                self._drain_cancelled()
                return

    def _drain_cancelled(self) -> None:
        with self._lock:
            queues, self._queues = self._queues, {}
        for queue in queues.values():
            for job in queue:
                job.future.cancel()

    def _execute(self, batch: list[_QueuedJob]) -> None:
        live: list[_QueuedJob] = []
        cancelled = 0
        for job in batch:
            if job.future.set_running_or_notify_cancel():
                live.append(job)
            else:
                cancelled += 1
        by_depth: dict[int, list[tuple[_QueuedJob, BatchableEntropyJob]]] = {}
        fallback: list[_QueuedJob] = []
        for job in live:
            try:
                payload = job.planner.export_batch_job()
            except Exception as exc:  # noqa: BLE001 - per-job containment
                job.future.set_exception(exc)
                continue
            if payload is None:
                fallback.append(job)
            else:
                by_depth.setdefault(payload.depth, []).append(
                    (job, payload)
                )
        batch_errors = 0
        for group in by_depth.values():
            if len(group) == 1:
                fallback.append(group[0][0])
                continue
            try:
                tables = batched_entropies([p for _, p in group])
            except Exception:  # noqa: BLE001 - never poison a whole batch
                batch_errors += 1
                fallback.extend(job for job, _ in group)
            else:
                for (job, _), table in zip(group, tables):
                    self._write_through(job, table)
                    job.future.set_result(table)
                with self._lock:
                    self._batches += 1
                    self._batched_jobs += len(group)
                    self._histogram[len(group)] += 1
        for job in fallback:
            try:
                table = job.planner.entropies()
            except Exception as exc:  # noqa: BLE001 - per-job containment
                job.future.set_exception(exc)
                continue
            self._write_through(job, table)
            job.future.set_result(table)
        with self._lock:
            self._cancelled_jobs += cancelled
            self._fallback_jobs += len(fallback)
            self._batch_errors += batch_errors

    def _write_through(
        self, job: _QueuedJob, table: dict[int, Entropy]
    ) -> None:
        sink = self.plan_sink
        if sink is None or job.plan_key is None:
            return
        try:
            sink(job.plan_key, table)
        except Exception:  # noqa: BLE001 - a cache failure
            # must never surface to (or stall) the waiting session.
            with self._lock:
                self._plan_sink_errors += 1

    # --- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for ``GET /stats``: executed batches, job routing,
        and the batch-size histogram (size → flush count)."""
        with self._lock:
            pending = sum(len(queue) for queue in self._queues.values())
            return {
                "window_seconds": self.window_seconds,
                "max_batch": self.max_batch,
                "batches": self._batches,
                "batched_jobs": self._batched_jobs,
                "fallback_jobs": self._fallback_jobs,
                "cancelled_jobs": self._cancelled_jobs,
                "batch_errors": self._batch_errors,
                "plan_sink_errors": self._plan_sink_errors,
                "pending_jobs": pending,
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self._histogram.items())
                },
            }
