"""The benchmark's three workloads as fixed session lists.

A workload's *composition* — which instance, goal, strategy and session
seed each session has — depends only on the workload and the number of
sessions.  ``--seed`` sets the order the sessions are served in and,
on ``interactive-fleet``, every think time.  So every run does the same
work whatever the seed, and the spread between seeds measures the
system, not the inputs.  A seeded composition moved the work per run by
more than the bounds allow (``questions_per_session`` 7.0–7.9 between
seeds on ``interactive-fleet``).

* ``interactive-fleet``: the five builtin TPC-H goal joins
  (``tpch/join1..5``, scale 4) crossed with RND/BU/TD/L1S/L2S, every
  combination equally often, answered after a seeded 20–60 ms think
  time, through a two-worker fleet.
* ``lookahead-saturated``: L1S and L2S on ``tpch/join5`` (scale 4) with
  no think time, single-process server.  Goals are the one-pair
  predicates over Ω whose join is non-empty; each runs once with L1S
  and twice with L2S (two session seeds).
* ``upload-cold``: each session uploads its own TPC-H ``join4`` pair
  (scale 4, its own data seed) as CSV text and runs a short TD/RND/L1S
  session with no think time, single-process server.

The server only ever sees the HTTP requests built here.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core import build_signature_index, run_inference, strategy_by_name
from repro.core.oracle import PerfectOracle
from repro.data.tpch import generate_tpch
from repro.data.workloads import builtin_instance, tpch_workloads
from repro.relational.csv_io import read_csv_text
from repro.relational.predicate import JoinPredicate
from repro.relational.relation import Instance

SCALE = 4.0
FLEET_STRATEGIES = ("RND", "BU", "TD", "L1S", "L2S")
#: Two L2S sessions per L1S: L1S's first question takes about 5 ms and
#: L2S's about 35 ms, so with one of each the median first question sat
#: in the gap between the two and jumped between them from run to run.
LOOKAHEAD_STRATEGIES = ("L1S", "L2S", "L2S")
UPLOAD_STRATEGIES = ("TD", "RND", "L1S")
THINK_RANGE_S = (0.020, 0.060)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: Server processes behind the front (1 = single-process ``serve``).
    workers: int
    #: Sessions per measured second: ``sessions = rate * --seconds``.
    sessions_per_second: float
    #: Sessions in one unit of the balanced design; counts round to it.
    design_unit: int
    #: Labelers think 20–60 ms before each answer.
    think: bool = False


WORKLOADS = {
    "interactive-fleet": WorkloadSpec("interactive-fleet", 2, 3.0, 25, think=True),
    "lookahead-saturated": WorkloadSpec("lookahead-saturated", 1, 9.6, 72),
    "upload-cold": WorkloadSpec("upload-cold", 1, 18.0, 3),
}


@dataclass
class SessionPlan:
    """One labeler's session: the request to open it and how to answer."""

    payload: dict[str, Any]
    strategy: str
    seed: int
    #: Key of the instance in the workload's instance table.
    instance_key: Any
    goal: JoinPredicate
    oracle: PerfectOracle
    think: tuple[float, ...] = ()

    def label(self, pair) -> str:
        return str(self.oracle.label(pair))

    def think_s(self, k: int) -> float:
        return self.think[k % len(self.think)] if self.think else 0.0


@dataclass
class Workload:
    spec: WorkloadSpec
    #: The composition, in design order; :meth:`pass_plans` orders it.
    plans: list[SessionPlan]
    #: instance_key -> Instance (the reference runs over these).
    instances: dict[Any, Instance]
    #: Sessions created, answered and deleted before timing starts.
    warmup: list[SessionPlan]
    warmup_note: str

    def pass_plans(self, seed: int, k: int) -> list[SessionPlan]:
        """Pass ``k``'s session list: the whole composition in an order
        (and, with think time, think times) drawn from ``seed``."""
        rng = random.Random(f"{self.spec.name}/{seed}/{k}")
        plans = [dataclasses.replace(p) for p in self.plans]
        rng.shuffle(plans)
        if self.spec.think:
            for plan in plans:
                # 64 draws cycle: longer sessions reuse them in order.
                plan.think = tuple(rng.uniform(*THINK_RANGE_S) for _ in range(64))
        return plans


def session_count(spec: WorkloadSpec, seconds: float) -> int:
    units = max(1, round(spec.sessions_per_second * seconds / spec.design_unit))
    return units * spec.design_unit


def _cell_seed(*cell) -> int:
    """The session seed of one design cell: fixed, whatever ``--seed``."""
    return random.Random("/".join(map(str, cell))).randrange(2**31)


def _builtin_plan(name, instance, goal, strategy, session_seed) -> SessionPlan:
    payload = {
        "workload": name, "workload_seed": 0, "scale": SCALE,
        "strategy": strategy, "seed": session_seed,
    }
    return SessionPlan(
        payload, strategy, session_seed, name, goal, PerfectOracle(instance, goal)
    )


def _interactive_fleet(spec: WorkloadSpec, n: int) -> Workload:
    tables = generate_tpch(scale=SCALE, seed=0)
    goals = {f"tpch/{w.name}": (w.instance, w.goal) for w in tpch_workloads(tables)}
    for name, (instance, _) in goals.items():
        # The service regenerates builtins by name; both sides must agree.
        assert builtin_instance(name, seed=0, scale=SCALE).left.rows == instance.left.rows
    plans = [
        _builtin_plan(name, *goals[name], strategy, _cell_seed(name, strategy, rep))
        for rep in range(n // (len(goals) * len(FLEET_STRATEGIES)))
        for name in goals
        for strategy in FLEET_STRATEGIES
    ]
    warmup = [
        _builtin_plan(name, *goals[name], "TD", _cell_seed("warm-up", name))
        for name in goals
    ]
    return Workload(
        spec, plans, {k: v[0] for k, v in goals.items()}, warmup,
        "one TD session per builtin instance (builds each index once "
        "machine-wide), answered without think time and deleted; then "
        "unanswered sessions until every worker holds every index",
    )


def nonempty_goals(instance: Instance) -> list[JoinPredicate]:
    """Every one-pair predicate over Ω whose join is non-empty, in
    schema order."""
    left, right = instance.left, instance.right
    goals = []
    for i, a in enumerate(left.schema):
        left_values = {row[i] for row in left.rows}
        for j, b in enumerate(right.schema):
            if left_values & {row[j] for row in right.rows}:
                goals.append(JoinPredicate([(a, b)]))
    return goals


def _lookahead_saturated(spec: WorkloadSpec, n: int) -> Workload:
    name = "tpch/join5"
    instance = builtin_instance(name, seed=0, scale=SCALE)
    goals = nonempty_goals(instance)
    cells = [
        (goal, strategy, (rep, slot))
        for rep in range(max(1, n // (len(goals) * len(LOOKAHEAD_STRATEGIES))))
        for goal in goals
        for slot, strategy in enumerate(LOOKAHEAD_STRATEGIES)
    ]
    plans = [
        _builtin_plan(name, instance, goal, strategy, _cell_seed(goal, strategy, *rep))
        for goal, strategy, rep in cells
    ]
    warmup = [_builtin_plan(name, instance, goals[0], "L1S", _cell_seed("warm-up"))]
    return Workload(
        spec, plans, {name: instance}, warmup,
        "one L1S session on tpch/join5 (builds its index), run to "
        "completion and deleted",
    )


def _csv_text(relation) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([a.name for a in relation.schema])
    writer.writerows(relation.rows)
    return out.getvalue()


def _upload_plan(data_seed: int, strategy: str, instances: dict) -> SessionPlan:
    tables = generate_tpch(scale=SCALE, seed=data_seed)
    join4 = {w.name: w for w in tpch_workloads(tables)}["join4"]
    source = join4.instance
    csv_payload = {
        "left": {"name": source.left.name, "text": _csv_text(source.left)},
        "right": {"name": source.right.name, "text": _csv_text(source.right)},
    }
    # The reference runs over what the server parses: untyped CSV text.
    instance = instances[data_seed] = Instance(
        read_csv_text(csv_payload["left"]["text"], source.left.name),
        read_csv_text(csv_payload["right"]["text"], source.right.name),
    )
    session_seed = _cell_seed("upload", data_seed, strategy)
    return SessionPlan(
        {"csv": csv_payload, "strategy": strategy, "seed": session_seed},
        strategy, session_seed, data_seed, join4.goal,
        PerfectOracle(instance, join4.goal),
    )


def _upload_cold(spec: WorkloadSpec, n: int) -> Workload:
    instances: dict[Any, Instance] = {}
    plans = [
        _upload_plan(1 + i, UPLOAD_STRATEGIES[i % len(UPLOAD_STRATEGIES)], instances)
        for i in range(n)
    ]
    # Data seed 0 is never measured: the warm-up's index stays cold for them.
    warmup = [_upload_plan(0, "TD", instances)]
    return Workload(
        spec, plans, instances, warmup,
        "one TD upload session on its own data seed (never reused), run "
        "to completion and deleted",
    )


BUILDERS: dict[str, Callable[[WorkloadSpec, int], Workload]] = {
    "interactive-fleet": _interactive_fleet,
    "lookahead-saturated": _lookahead_saturated,
    "upload-cold": _upload_cold,
}


def build(name: str, seconds: float) -> Workload:
    """The composition sized for ``seconds`` of serving."""
    spec = WORKLOADS[name]
    return BUILDERS[name](spec, session_count(spec, seconds))


class ReferenceRunner:
    """The in-process ``run_inference`` result each served session must
    match: (sorted predicate pairs, interaction count).

    Results are memoised per (instance, goal, strategy, session seed)
    and kept in ``cache_path``, whose name the caller derives from the
    program's source, so a checkout computes each reference once."""

    def __init__(self, instances: dict[Any, Instance], cache_path: Path):
        self.instances = instances
        self.cache_path = cache_path
        self._indexes: dict[Any, Any] = {}
        self._memo: dict[str, list] = (
            json.loads(cache_path.read_text()) if cache_path.is_file() else {}
        )
        self._dirty = False

    def expected(self, plan: SessionPlan) -> tuple[list[list[str]], int]:
        key = f"{plan.instance_key}|{plan.goal}|{plan.strategy}|{plan.seed}"
        if key not in self._memo:
            instance = self.instances[plan.instance_key]
            index = self._indexes.get(plan.instance_key)
            if index is None:
                index = self._indexes[plan.instance_key] = build_signature_index(instance)
            result = run_inference(
                instance, strategy_by_name(plan.strategy), plan.oracle,
                index=index, seed=plan.seed,
            )
            pairs = [[str(a), str(b)] for a, b in result.predicate.sorted_pairs()]
            self._memo[key] = [pairs, result.interactions]
            self._dirty = True
        pairs, interactions = self._memo[key]
        return pairs, interactions

    def save(self) -> None:
        if self._dirty:
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            partial = self.cache_path.with_suffix(".tmp")
            partial.write_text(json.dumps(self._memo))
            partial.replace(self.cache_path)
