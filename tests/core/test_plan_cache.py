"""The plan cache: canonical state keys and the per-process LRU's
eviction and counter behaviour.

The key properties:

* **answer-order invariance** — two sessions that answered the same
  questions in different orders share one canonical key, and a session
  rehydrated from a snapshot lands on the same key as before the crash.
* **no collisions** — distinct indexes, depths, or labeled states never
  share a key (checked across all six Figure 7 configurations and
  across the packed-word boundary Ω ∈ {63, 64, 65}).
* **counter identity** — under the get-before-install protocol,
  ``misses == local_hits + computes``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import (
    InferenceSession,
    Label,
    LookaheadSkylineStrategy,
    PlanCache,
    SignatureIndex,
    canonical_state_key,
    plan_key_for_planner,
    resume_session,
    snapshot_session,
)
from repro.core.plan_cache import ENTRY_BYTES
from repro.core.state import InferenceState
from repro.data.synthetic import PAPER_CONFIGS, generate_synthetic
from repro.service import instance_fingerprint

from ..conftest import make_random_instance

FP = "f" * 64
OTHER_FP = "e" * 64


def _labeled_after(index, answers):
    """Drive a bare state through ``answers`` (class_id, label) pairs."""
    state = InferenceState(index)
    for class_id, label in answers:
        state.record(class_id, label)
    return state


class TestCanonicalStateKey:
    def test_answer_order_does_not_matter(self):
        forward = [(3, Label.POSITIVE), (7, Label.NEGATIVE), (1, Label.NEGATIVE)]
        assert canonical_state_key(FP, "L2S", forward) == canonical_state_key(
            FP, "L2S", reversed(forward)
        )

    def test_label_objects_and_strings_agree(self):
        assert canonical_state_key(
            FP, "L1S", [(2, Label.POSITIVE), (5, Label.NEGATIVE)]
        ) == canonical_state_key(FP, "L1S", [(2, "+"), (5, "-")])

    def test_strategy_fingerprint_and_state_separate_keys(self):
        base = canonical_state_key(FP, "L2S", [(1, "+")])
        assert canonical_state_key(FP, "L1S", [(1, "+")]) != base
        assert canonical_state_key(OTHER_FP, "L2S", [(1, "+")]) != base
        assert canonical_state_key(FP, "L2S", [(1, "-")]) != base
        assert canonical_state_key(FP, "L2S", [(2, "+")]) != base
        assert canonical_state_key(FP, "L2S", []) != base

    def test_no_collisions_across_fig7_sessions(self):
        """Every (config, step) of an adversarial session over each
        Figure 7 configuration gets its own key."""
        seen: set[str] = set()
        for position, config in enumerate(PAPER_CONFIGS):
            instance = generate_synthetic(config.scaled(16), seed=position)
            index = SignatureIndex(instance, backend="python")
            fingerprint = instance_fingerprint(instance)
            state = InferenceState(index)
            keys = [
                canonical_state_key(
                    fingerprint, "L2S", state.labeled_classes()
                )
            ]
            while state.has_informative():
                class_id = state.informative_class_ids()[0]
                state.record(class_id, Label.NEGATIVE)
                keys.append(
                    canonical_state_key(
                        fingerprint, "L2S", state.labeled_classes()
                    )
                )
            assert len(set(keys)) == len(keys)
            assert not seen.intersection(keys)
            seen.update(keys)
        assert len(seen) > len(PAPER_CONFIGS)

    @pytest.mark.parametrize("left,right", [(7, 9), (8, 8), (5, 13)])
    def test_word_boundary_omegas_permutation_invariant(self, left, right):
        """Ω ∈ {63, 64, 65}: keys are stable under answer permutation
        on either side of the packed-word boundary."""
        rng = random.Random(left * right)
        instance = make_random_instance(
            rng, left_arity=left, right_arity=right, rows=6, values=3
        )
        assert len(instance.omega) in (63, 64, 65)
        index = SignatureIndex(instance, backend="python")
        fingerprint = instance_fingerprint(instance)
        class_ids = InferenceState(index).informative_class_ids()[:4]
        answers = [
            (cid, Label.POSITIVE if i % 2 else Label.NEGATIVE)
            for i, cid in enumerate(class_ids)
        ]
        shuffled = list(answers)
        rng.shuffle(shuffled)
        forward = _labeled_after(index, answers)
        scrambled = _labeled_after(index, shuffled)
        assert canonical_state_key(
            fingerprint, "L2S", forward.labeled_classes()
        ) == canonical_state_key(
            fingerprint, "L2S", scrambled.labeled_classes()
        )

    def test_snapshot_rehydrate_lands_on_the_same_key(self):
        rng = random.Random(11)
        instance = make_random_instance(rng, 3, 3, rows=8, values=3)
        index = SignatureIndex(instance, backend="python")
        strategy = LookaheadSkylineStrategy(depth=2)
        session = InferenceSession(
            instance, strategy, oracle=None, index=index, seed=5
        )
        for _ in range(3):
            if session.is_finished():
                break
            question = session.propose()
            session.answer(question.question_id, Label.NEGATIVE)
        fingerprint = instance_fingerprint(instance)
        before = plan_key_for_planner(
            strategy.planner_for(session.state), fingerprint
        )
        resumed = resume_session(snapshot_session(session), index=index)
        after = plan_key_for_planner(
            resumed.strategy.planner_for(resumed.state), fingerprint
        )
        assert before == after

    def test_planner_key_matches_bare_key(self):
        rng = random.Random(3)
        instance = make_random_instance(rng, 2, 2, rows=6, values=3)
        index = SignatureIndex(instance, backend="python")
        state = InferenceState(index)
        state.record(state.informative_class_ids()[0], Label.NEGATIVE)
        strategy = LookaheadSkylineStrategy(depth=2)
        planner = strategy.planner_for(state)
        assert plan_key_for_planner(planner, FP) == canonical_state_key(
            FP, "L2S", state.labeled_classes()
        )


TABLE = {1: (0, 2), 2: (math.inf, math.inf)}


class TestPlanCache:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(0)

    def test_get_install_get_counter_identity(self):
        cache = PlanCache(8)
        assert cache.get("k") is None  # miss -> caller computes
        cache.install("k", TABLE)
        assert cache.get("k") == TABLE  # local hit
        stats = cache.stats()
        assert stats["misses"] == 2
        assert stats["misses"] == stats["local_hits"] + stats["computes"]
        assert stats["local_hits"] == 1
        assert stats["computes"] == 1
        assert stats["entries"] == 1
        assert stats["resident_bytes"] == ENTRY_BYTES * len(TABLE)

    def test_lru_evicts_least_recently_used(self):
        cache = PlanCache(2)
        for key in ("a", "b"):
            cache.get(key)
            cache.install(key, TABLE)
        assert cache.get("a") is not None  # refresh "a": "b" is now LRU
        cache.get("c")
        cache.install("c", TABLE)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        # Evicted tables stop counting toward the resident size.
        assert stats["resident_bytes"] == 2 * ENTRY_BYTES * len(TABLE)
