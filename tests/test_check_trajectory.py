"""Unit tests for the checked-in CI bench gate
(``benchmarks/check_trajectory.py``), which replaced the inline CI
heredoc: each suite's tolerances must pass healthy smoke reports and
fail regressed ones, and the CLI must exit non-zero on failure."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_trajectory.py"
)
_spec = importlib.util.spec_from_file_location(
    "check_trajectory", _MODULE_PATH
)
check_trajectory = importlib.util.module_from_spec(_spec)
# dataclasses resolves the defining module through sys.modules, so the
# module must be registered before exec.
sys.modules["check_trajectory"] = check_trajectory
_spec.loader.exec_module(check_trajectory)


def ok_names(gates):
    return [gate.name for gate in gates if gate.ok]


def failed_names(gates):
    return [gate.name for gate in gates if not gate.ok]


class TestCoreSuite:
    def report(self, speedups):
        return {
            "benchmarks": [
                {"name": f"cell{i}", "workload": "w", "speedup": s}
                for i, s in enumerate(speedups)
            ]
        }

    def test_healthy_cells_pass(self):
        gates = check_trajectory.check_core(
            self.report([1.2, 25.0, 0.5]), {}
        )
        assert failed_names(gates) == []

    def test_regressed_cell_fails(self):
        gates = check_trajectory.check_core(
            self.report([1.2, 0.49]), {}
        )
        assert failed_names(gates) == ["speedup:cell1:w"]

    def test_empty_report_fails(self):
        gates = check_trajectory.check_core({"benchmarks": []}, {})
        assert failed_names(gates) == ["has_cells"]


class TestBuildSuite:
    def test_target_comes_from_baseline(self):
        baseline = {
            "acceptance": {"targets": {"streaming_peak_ratio_max": 0.5}}
        }
        good = {"acceptance": {"streaming_peak_ratio": 0.4}}
        bad = {"acceptance": {"streaming_peak_ratio": 0.6}}
        assert failed_names(
            check_trajectory.check_build(good, baseline)
        ) == []
        assert failed_names(
            check_trajectory.check_build(bad, baseline)
        ) == ["streaming_peak_ratio"]

    def test_missing_ratio_fails(self):
        gates = check_trajectory.check_build({"acceptance": {}}, {})
        assert failed_names(gates) == ["streaming_peak_ratio"]


class TestPlanSuite:
    def acceptance(self, **overrides):
        base = {
            "l2s_incremental_ms": 105.0,
            "l2s_from_scratch_ms": 100.0,
            "l2s_gate_tolerance": 1.1,
            "per_session_kernel_seconds": 1.0,
            "batched_kernel_seconds": 0.4,
            "plan_cache_cold_p95_ms": 2.7,
            "plan_cache_warm_p95_ms": 0.06,
            "plan_cache_gate_min": 3.0,
            "plan_cache_misses": 32,
            "plan_cache_local_hits": 16,
            "plan_cache_computes": 16,
        }
        base.update(overrides)
        return {"acceptance": base}

    def test_gate_rederives_from_timings(self):
        """The gate must not trust the report's own boolean."""
        report = self.acceptance(
            l2s_incremental_ms=120.0,
            l2s_gate=True,  # lying — timings exceed tolerance
        )
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == [
            "l2s_incremental_within_tolerance"
        ]

    def test_within_tolerance_passes(self):
        assert failed_names(
            check_trajectory.check_plan(self.acceptance(), {})
        ) == []

    def test_batched_kernel_gate_rederives_from_seconds(self):
        """1.2x is above the full-run gate min the report itself could
        claim, but below the smoke floor — re-derived, so it fails."""
        report = self.acceptance(
            batched_kernel_seconds=0.9,
            batched_kernel_gate=True,
            batched_kernel_gate_min=0.5,
        )
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == ["batched_kernel_segment"]

    def test_missing_batched_kernel_numbers_fail(self):
        report = self.acceptance()
        del report["acceptance"]["batched_kernel_seconds"]
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == ["batched_kernel_segment"]

    def test_plan_cache_speedup_below_floor_fails(self):
        """2.5x warm speedup is a regression against the 3x floor —
        re-derived from the raw p95s, not the report's own gate bool."""
        report = self.acceptance(
            plan_cache_cold_p95_ms=2.5,
            plan_cache_warm_p95_ms=1.0,
            plan_cache_gate=True,  # lying
        )
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == ["plan_cache_warm_p95"]

    def test_plan_cache_smoke_floor_from_report(self):
        """A smoke report carries its relaxed 1.5x floor and a 2x
        speedup passes it — the same numbers fail a full-run report."""
        report = self.acceptance(
            plan_cache_cold_p95_ms=2.0,
            plan_cache_warm_p95_ms=1.0,
            plan_cache_gate_min=1.5,
        )
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == []

    def test_plan_cache_floor_weakening_clamped(self):
        """A report cannot talk the floor below the checker's minimum:
        1.2x claimed against a 0.5x floor still fails at 1.5x."""
        report = self.acceptance(
            plan_cache_cold_p95_ms=1.2,
            plan_cache_warm_p95_ms=1.0,
            plan_cache_gate_min=0.5,
            plan_cache_gate=True,  # lying
        )
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == ["plan_cache_warm_p95"]

    def test_plan_cache_missing_latencies_fail(self):
        report = self.acceptance()
        del report["acceptance"]["plan_cache_warm_p95_ms"]
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == ["plan_cache_warm_p95"]

    def test_plan_cache_counter_identity_rederived(self):
        """misses == local_hits + computes, recomputed
        from the raw counters (a dropped install would break it)."""
        report = self.acceptance(plan_cache_computes=15)
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == ["plan_cache_counter_identity"]

    def test_plan_cache_missing_counters_fail(self):
        report = self.acceptance()
        del report["acceptance"]["plan_cache_misses"]
        gates = check_trajectory.check_plan(report, {})
        assert failed_names(gates) == ["plan_cache_counter_identity"]


class TestServiceSuite:
    def report(self, hit_ratio=0.98, histogram=None, depth=2):
        if histogram is None:
            histogram = {"2": 3, "7": 1}
        return {
            "acceptance": {"index_cache_hit_ratio": hit_ratio},
            "serving": {
                "speculation": {
                    "depth": depth,
                    "hit_ratio_by_depth": {
                        str(d): 0.5 for d in range(1, depth + 1)
                    },
                }
            },
            "batched_sessions": {
                "batched": {
                    "kernel_batch": {
                        "batch_size_histogram": histogram
                    }
                }
            },
        }

    def test_hit_ratio_gate(self):
        baseline = {
            "acceptance": {"index_cache_hit_ratio_target": 0.9}
        }
        assert failed_names(
            check_trajectory.check_service(self.report(), baseline)
        ) == []
        assert failed_names(
            check_trajectory.check_service(
                self.report(hit_ratio=0.85), baseline
            )
        ) == ["index_cache_hit_ratio"]

    def test_singleton_histogram_fails(self):
        """Batches of size 1 mean nothing ever coalesced over HTTP."""
        gates = check_trajectory.check_service(
            self.report(histogram={"1": 40}), {}
        )
        assert failed_names(gates) == ["kernel_batch_coalesced"]

    def test_missing_depth2_speculation_fails(self):
        gates = check_trajectory.check_service(
            self.report(depth=1), {}
        )
        assert failed_names(gates) == ["speculation_depth2_reported"]


class TestStoreSuite:
    def smoke(self, overhead=5.0, identical=True, rehydrate=9.0):
        return {
            "acceptance": {
                "journal_overhead_p95_pct": overhead,
                "journal_overhead_max_pct": 15.0,
                "crash_recovery_identical": identical,
                "rehydrate_p95_ms": rehydrate,
            }
        }

    def baseline(self, rehydrate=9.0):
        return {"acceptance": {"rehydrate_p95_ms": rehydrate}}

    def test_healthy_report_passes(self):
        gates = check_trajectory.check_store(
            self.smoke(), self.baseline()
        )
        assert failed_names(gates) == []
        assert set(ok_names(gates)) == {
            "journal_overhead_p95",
            "crash_recovery_identical",
            "rehydrate_p95_vs_baseline",
        }

    def test_overhead_above_smoke_tolerance_fails(self):
        gates = check_trajectory.check_store(
            self.smoke(overhead=30.0), self.baseline()
        )
        assert failed_names(gates) == ["journal_overhead_p95"]

    def test_non_identical_recovery_fails(self):
        gates = check_trajectory.check_store(
            self.smoke(identical=False), self.baseline()
        )
        assert failed_names(gates) == ["crash_recovery_identical"]

    def test_rehydrate_order_of_magnitude_regression_fails(self):
        gates = check_trajectory.check_store(
            self.smoke(rehydrate=95.0), self.baseline(rehydrate=9.0)
        )
        assert failed_names(gates) == ["rehydrate_p95_vs_baseline"]

    def test_rehydrate_gate_skipped_without_baseline(self):
        gates = check_trajectory.check_store(
            self.smoke(rehydrate=95.0), {}
        )
        assert failed_names(gates) == []


class TestFleetSuite:
    def smoke(
        self,
        rates={1: 50.0, 2: 80.0},
        cpu_count=2,
        takeover=1.1,
        recovery_parity=True,
        scaling_parity=True,
    ):
        return {
            "scaling": {
                "by_workers": {
                    str(w): {"sessions_per_sec": rate}
                    for w, rate in rates.items()
                }
            },
            "acceptance": {
                "cpu_count": cpu_count,
                "takeover_seconds": takeover,
                "recovery_parity": recovery_parity,
                "scaling_parity": scaling_parity,
            },
        }

    def baseline(self, takeover=1.0, factor=0.75):
        return {
            "acceptance": {
                "takeover_seconds": takeover,
                "scaling_floor_factor": factor,
            }
        }

    def test_healthy_report_passes(self):
        gates = check_trajectory.check_fleet(
            self.smoke(), self.baseline()
        )
        assert failed_names(gates) == []
        assert set(ok_names(gates)) == {
            "scaling_vs_cores",
            "oversubscription_bounded",
            "recovery_parity",
            "scaling_parity",
            "takeover_vs_baseline",
            # No shared_index cell => unsupported platform semantics:
            # the plane degrades to private builds and passes trivially.
            "shared_index_supported",
        }

    def test_speedup_rederived_from_raw_rates(self):
        """The gate recomputes speedups from sessions/sec — 1.1x at 2
        workers on 2 cores is below the 1.5x floor even though the
        report carries no speedup field to lie with."""
        report = self.smoke(rates={1: 50.0, 2: 55.0}, cpu_count=2)
        gates = check_trajectory.check_fleet(report, self.baseline())
        assert failed_names(gates) == ["scaling_vs_cores"]

    def test_floor_applies_to_largest_core_fitting_fleet(self):
        """On a 1-core runner the 4-worker cell is oversubscription,
        not the scaling gate: the same rates that fail on 4 cores pass
        on 1 core (where only the bounded-collapse floor applies)."""
        rates = {1: 50.0, 4: 60.0}
        one_core = self.smoke(rates=rates, cpu_count=1)
        four_core = self.smoke(rates=rates, cpu_count=4)
        assert failed_names(
            check_trajectory.check_fleet(one_core, self.baseline())
        ) == []
        assert failed_names(
            check_trajectory.check_fleet(four_core, self.baseline())
        ) == ["scaling_vs_cores"]

    def test_four_core_four_worker_floor_is_three_x(self):
        """On >= 4-core hardware the floor is the paper-grade 3x."""
        below = self.smoke(rates={1: 50.0, 4: 145.0}, cpu_count=8)
        gates = check_trajectory.check_fleet(below, self.baseline())
        assert failed_names(gates) == ["scaling_vs_cores"]
        above = self.smoke(rates={1: 50.0, 4: 155.0}, cpu_count=8)
        assert failed_names(
            check_trajectory.check_fleet(above, self.baseline())
        ) == []

    def test_oversubscription_collapse_fails(self):
        """4 workers on 1 core may cost throughput but not collapse
        past the bounded floor."""
        report = self.smoke(rates={1: 50.0, 4: 10.0}, cpu_count=1)
        gates = check_trajectory.check_fleet(report, self.baseline())
        assert failed_names(gates) == ["oversubscription_bounded"]

    def test_parity_flags_gate(self):
        gates = check_trajectory.check_fleet(
            self.smoke(recovery_parity=False, scaling_parity=False),
            self.baseline(),
        )
        assert failed_names(gates) == [
            "recovery_parity",
            "scaling_parity",
        ]

    def test_takeover_order_of_magnitude_regression_fails(self):
        gates = check_trajectory.check_fleet(
            self.smoke(takeover=11.0), self.baseline(takeover=1.0)
        )
        assert failed_names(gates) == ["takeover_vs_baseline"]

    def test_takeover_gate_skipped_without_baseline(self):
        gates = check_trajectory.check_fleet(
            self.smoke(takeover=99.0), {}
        )
        assert failed_names(gates) == []

    def test_missing_rates_fail(self):
        report = self.smoke()
        del report["scaling"]
        gates = check_trajectory.check_fleet(report, self.baseline())
        assert failed_names(gates) == [
            "scaling_vs_cores",
            "oversubscription_bounded",
        ]

    def test_suite_registered(self):
        assert "fleet" in check_trajectory.SUITES


class TestSharedIndexGates:
    def cell(
        self,
        supported=True,
        single=4000,
        fleet=4200,
        build_p95=300.0,
        attach_p95=5.0,
        leaked=[],
        floor=1.5,
        ratio_max=None,
    ):
        acceptance = {"shared_attach_speedup_floor": floor}
        if ratio_max is not None:
            acceptance["shared_memory_ratio_max"] = ratio_max
        report = {
            "shared_index": {
                "supported": supported,
                "workers": 4,
                "single_resident_bytes": single,
                "fleet_resident_bytes": fleet,
                "private_build_latency": {"p95_ms": build_p95},
                "attach_latency": {"p95_ms": attach_p95},
                "leaked_segments": leaked,
            },
            "acceptance": acceptance,
        }
        return report

    def names(self, report):
        return check_trajectory._shared_index_gates(report)

    def test_healthy_cell_passes(self):
        gates = self.names(self.cell())
        assert failed_names(gates) == []
        assert set(ok_names(gates)) == {
            "shared_index_memory",
            "shared_index_attach_speedup",
            "shared_index_no_leaks",
        }

    def test_unsupported_platform_passes_trivially(self):
        gates = self.names(self.cell(supported=False))
        assert failed_names(gates) == []
        assert ok_names(gates) == ["shared_index_supported"]

    def test_memory_ratio_rederived_from_raw_bytes(self):
        """4 workers holding 4 private copies is exactly the failure
        the plane exists to remove."""
        gates = self.names(self.cell(single=4000, fleet=16000))
        assert failed_names(gates) == ["shared_index_memory"]

    def test_memory_ratio_boundary(self):
        assert failed_names(
            self.names(self.cell(single=4000, fleet=6000))
        ) == []
        assert failed_names(
            self.names(self.cell(single=4000, fleet=6001))
        ) == ["shared_index_memory"]

    def test_smoke_report_ratio_ceiling_honored(self):
        """A smoke report may relax the ceiling (tiny indexes make the
        flat buffer's fixed overhead dominate) up to the hard cap."""
        gates = self.names(
            self.cell(single=4000, fleet=8000, ratio_max=3.0)
        )
        assert failed_names(gates) == []

    def test_report_cannot_weaken_ratio_past_hard_cap(self):
        gates = self.names(
            self.cell(single=4000, fleet=16000, ratio_max=10.0)
        )
        assert failed_names(gates) == ["shared_index_memory"]

    def test_attach_slower_than_floor_fails(self):
        gates = self.names(
            self.cell(build_p95=100.0, attach_p95=80.0)
        )
        assert failed_names(gates) == ["shared_index_attach_speedup"]

    def test_report_floor_cannot_undercut_the_minimum(self):
        """A report claiming a 0.1x floor is clamped to the canary
        minimum — the gate cannot be weakened from the report side."""
        gates = self.names(
            self.cell(build_p95=100.0, attach_p95=90.0, floor=0.1)
        )
        assert failed_names(gates) == ["shared_index_attach_speedup"]

    def test_full_run_floor_applies_when_recorded(self):
        """A full (non-smoke) report records the 5x floor; 3x attach
        speedup then fails even though it clears the smoke minimum."""
        gates = self.names(
            self.cell(build_p95=300.0, attach_p95=100.0, floor=5.0)
        )
        assert failed_names(gates) == ["shared_index_attach_speedup"]

    def test_leaked_segments_fail(self):
        gates = self.names(
            self.cell(leaked=["repro_idx_deadbeef_g1"])
        )
        assert failed_names(gates) == ["shared_index_no_leaks"]

    def test_missing_measurements_fail(self):
        """A supported cell with no samples (e.g. classification found
        no attaches) must fail loudly, not pass vacuously."""
        gates = self.names(
            self.cell(single=0, attach_p95=None)
        )
        assert set(failed_names(gates)) == {
            "shared_index_memory",
            "shared_index_attach_speedup",
        }

    def test_gates_ride_along_in_check_fleet(self):
        report = {
            "scaling": {
                "by_workers": {
                    "1": {"sessions_per_sec": 50.0},
                    "2": {"sessions_per_sec": 80.0},
                }
            },
            "acceptance": {
                "cpu_count": 2,
                "takeover_seconds": 1.0,
                "recovery_parity": True,
                "scaling_parity": True,
            },
        }
        report["shared_index"] = self.cell()["shared_index"]
        report["acceptance"]["shared_attach_speedup_floor"] = 1.5
        gates = check_trajectory.check_fleet(report, {})
        assert failed_names(gates) == []
        assert "shared_index_memory" in ok_names(gates)


class TestStreamSuite:
    def report(
        self,
        polled=0.26,
        streamed=0.22,
        parity=True,
        bare=1.1,
        fanned=1.25,
        subscribers=256,
        fan_parity=True,
        dropped=0,
    ):
        return {
            "latency": {
                "polled_question_latency": {"p50_ms": polled},
                "streamed_question_latency": {"p50_ms": streamed},
                "parity": {"checked": parity, "sessions": 6},
            },
            "acceptance": {"stream_parity": parity},
            "fanout": {
                "bare_answer_latency": {"p95_ms": bare},
                "fanout_answer_latency": {"p95_ms": fanned},
                "subscribers": subscribers,
                "parity_checked": fan_parity,
                "events_dropped": dropped,
            },
        }

    def gates(self, report):
        return check_trajectory.check_stream(report, {})

    def test_suite_registered(self):
        assert "stream" in check_trajectory.SUITES

    def test_healthy_report_passes(self):
        gates = self.gates(self.report())
        assert failed_names(gates) == []
        assert set(ok_names(gates)) == {
            "streamed_beats_polled_p50",
            "stream_parity",
            "fanout_subscribers",
            "fanout_overhead_p95",
            "fanout_parity",
            "no_dropped_events",
        }

    def test_streamed_slower_than_polled_fails(self):
        gates = self.gates(self.report(polled=0.2, streamed=0.3))
        assert failed_names(gates) == ["streamed_beats_polled_p50"]

    def test_overhead_above_both_tolerances_fails(self):
        """500% AND +5ms — neither the ratio nor the absolute floor
        forgives it."""
        gates = self.gates(self.report(bare=1.0, fanned=6.0))
        assert failed_names(gates) == ["fanout_overhead_p95"]

    def test_absolute_floor_forgives_tiny_bare_p95(self):
        """300% of a 0.5ms bare p95 is +1.5ms — scheduler noise on a
        busy runner, not a fan-out regression."""
        gates = self.gates(self.report(bare=0.5, fanned=2.0))
        assert failed_names(gates) == []

    def test_ratio_forgives_large_absolute_on_slow_runner(self):
        gates = self.gates(self.report(bare=100.0, fanned=110.0))
        assert failed_names(gates) == []

    def test_missing_latency_numbers_fail(self):
        gates = check_trajectory.check_stream(
            {"fanout": self.report()["fanout"]}, {}
        )
        assert "streamed_beats_polled_p50" in failed_names(gates)
        assert "stream_parity" in failed_names(gates)

    def test_missing_fanout_numbers_fail(self):
        report = self.report()
        del report["fanout"]
        gates = check_trajectory.check_stream(report, {})
        assert set(failed_names(gates)) == {
            "fanout_subscribers",
            "fanout_overhead_p95",
            "fanout_parity",
            "no_dropped_events",
        }

    def test_unchecked_parity_fails(self):
        """Timings from diverged question sequences prove nothing."""
        gates = self.gates(self.report(parity=False))
        assert failed_names(gates) == ["stream_parity"]

    def test_unchecked_fanout_parity_fails(self):
        gates = self.gates(self.report(fan_parity=False))
        assert failed_names(gates) == ["fanout_parity"]

    def test_dropped_events_fail(self):
        gates = self.gates(self.report(dropped=3))
        assert failed_names(gates) == ["no_dropped_events"]

    def test_too_few_subscribers_fail(self):
        gates = self.gates(self.report(subscribers=8))
        assert failed_names(gates) == ["fanout_subscribers"]


class TestCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        report = self.write(
            tmp_path,
            "smoke.json",
            {
                "acceptance": {"index_cache_hit_ratio": 0.99},
                "serving": {
                    "speculation": {
                        "depth": 2,
                        "hit_ratio_by_depth": {"1": 0.6, "2": 0.3},
                    }
                },
                "batched_sessions": {
                    "batched": {
                        "kernel_batch": {
                            "batch_size_histogram": {"4": 2}
                        }
                    }
                },
            },
        )
        baseline = self.write(
            tmp_path,
            "base.json",
            {"acceptance": {"index_cache_hit_ratio_target": 0.9}},
        )
        code = check_trajectory.main(
            [
                "--suite", "service",
                "--report", report,
                "--baseline", baseline,
            ]
        )
        assert code == 0
        assert "[OK]" in capsys.readouterr().out

    def test_exit_one_on_failure(self, tmp_path, capsys):
        report = self.write(
            tmp_path,
            "smoke.json",
            {"acceptance": {"index_cache_hit_ratio": 0.2}},
        )
        baseline = self.write(tmp_path, "base.json", {})
        code = check_trajectory.main(
            [
                "--suite", "service",
                "--report", report,
                "--baseline", baseline,
            ]
        )
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            check_trajectory.main(
                ["--suite", "nope", "--report", "x", "--baseline", "y"]
            )

    def test_committed_baselines_satisfy_their_own_gates(self):
        """The committed full-run reports must pass the smoke gates —
        the trajectory is anchored by real, healthy reports."""
        root = Path(__file__).resolve().parent.parent
        for suite in sorted(check_trajectory.SUITES):
            baseline_path = root / f"BENCH_{suite}.json"
            if not baseline_path.exists():
                continue
            baseline = json.loads(baseline_path.read_text())
            gates = check_trajectory.run_suite(
                suite, baseline, baseline
            )
            assert failed_names(gates) == [], (
                f"committed BENCH_{suite}.json fails its own gate"
            )
