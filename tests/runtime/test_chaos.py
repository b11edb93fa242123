"""Tests for deterministic fault injection (:mod:`repro.runtime.chaos`).

The load-bearing contracts:

* decisions are a pure function of (plan seed, site, label, token,
  attempt) — replayable across processes and execution orders;
* with no plan installed, every ``chaos_point`` is a no-op;
* the resilient runner recovers from every injected fault kind, and a
  recovered run is bitwise-identical to a fault-free one.
"""

import numpy as np
import pytest

from repro.core.config import fast_config
from repro.runtime import (
    ArtifactCache,
    EventLog,
    FaultPlan,
    FaultRule,
    Job,
    Runner,
    SweepSpec,
    chaos_point,
    chaos_scope,
    register_executor,
)
from repro.runtime.chaos import (
    ChaosError,
    ChaosHang,
    ChaosTransientError,
    ChaosWorkerCrash,
    active_plan,
)
from repro.runtime.resilience import ResilienceConfig, RetryPolicy

FAST = fast_config()

#: Quick retry policy for tests — real backoff shape, negligible sleeps.
QUICK = ResilienceConfig(
    retry=RetryPolicy(max_attempts=4, backoff_base=0.001, backoff_max=0.002)
)


def _unit(rng, x):
    return float(rng.standard_normal(64).sum()) + x


register_executor("chaos_unit", _unit)


def unit_job(i=0, key=True):
    return Job(
        kind="chaos_unit", label=f"u{i}", payload={"x": float(i)}, seed=100 + i,
        key={"cell": i} if key else None,
    )


class TestFaultRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="job.run", kind="meteor")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="job.run", kind="error", probability=1.5)

    def test_transient_defaults_until_attempt(self):
        assert FaultRule(site="job.run", kind="transient").until_attempt == 1
        assert FaultRule(site="job.run", kind="error").until_attempt is None


class TestFaultPlanParse:
    def test_presets(self):
        for preset in ("transient", "crash", "hang", "error", "corrupt", "mixed"):
            plan = FaultPlan.parse(preset, seed=3)
            assert plan.rules and plan.seed == 3

    def test_grammar(self):
        plan = FaultPlan.parse(
            "transient@job.run:p=0.5,until=2;hang@stage.routing:hang=5", seed=1
        )
        assert len(plan.rules) == 2
        assert plan.rules[0] == FaultRule(
            site="job.run", kind="transient", probability=0.5, until_attempt=2
        )
        assert plan.rules[1].hang_seconds == 5.0

    def test_default_site_is_job_run(self):
        assert FaultPlan.parse("error").rules[0].site == "job.run"

    def test_rejects_unknown_kind_and_option(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("meteor@job.run")
        with pytest.raises(ValueError, match="unknown chaos rule option"):
            FaultPlan.parse("error@job.run:frequency=2")
        with pytest.raises(ValueError, match="empty chaos spec"):
            FaultPlan.parse(" ; ")


class TestDecide:
    def test_deterministic_and_site_matched(self):
        plan = FaultPlan.parse("transient@stage.*:p=0.5", seed=9)
        first = plan.decide("stage.routing", label="a", token="t", attempt=0)
        again = plan.decide("stage.routing", label="a", token="t", attempt=0)
        assert first == again
        assert plan.decide("job.run", label="a", token="t", attempt=0) is None

    def test_probability_splits_the_population(self):
        plan = FaultPlan.parse("error@job.run:p=0.5", seed=9)
        fired = sum(
            plan.decide("job.run", label=f"job-{i}", token=i) is not None
            for i in range(200)
        )
        assert 60 < fired < 140

    def test_until_attempt_bounds_firing(self):
        plan = FaultPlan(rules=(FaultRule(site="job.run", kind="transient"),))
        assert plan.decide("job.run", attempt=0) is not None
        assert plan.decide("job.run", attempt=1) is None

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(rules=(
            FaultRule(site="job.*", kind="error"),
            FaultRule(site="job.run", kind="hang"),
        ))
        assert plan.decide("job.run").kind == "error"


class TestScopeAndPoint:
    def test_no_plan_is_noop(self):
        assert active_plan() is None
        assert chaos_point("job.run") is None
        with chaos_scope(None):
            assert active_plan() is None
        with chaos_scope(FaultPlan()):  # empty plan: also a no-op
            assert active_plan() is None

    def test_action_faults_raise(self):
        for kind, exc in (
            ("error", ChaosError),
            ("transient", ChaosTransientError),
            ("crash", ChaosWorkerCrash),  # inline: degraded, not os._exit
        ):
            plan = FaultPlan(rules=(FaultRule(site="job.run", kind=kind),))
            with chaos_scope(plan, label="j"):
                with pytest.raises(exc):
                    chaos_point("job.run")

    def test_hang_sleeps_then_raises(self):
        plan = FaultPlan(rules=(
            FaultRule(site="job.run", kind="hang", hang_seconds=0.01),
        ))
        with chaos_scope(plan):
            with pytest.raises(ChaosHang):
                chaos_point("job.run")

    def test_corrupt_rule_is_returned_not_raised(self):
        plan = FaultPlan(rules=(FaultRule(site="cache.store", kind="corrupt"),))
        with chaos_scope(plan):
            rule = chaos_point("cache.store")
        assert rule is not None and rule.kind == "corrupt"

    def test_scope_restores_previous_context(self):
        plan = FaultPlan(rules=(FaultRule(site="x", kind="error"),))
        with chaos_scope(plan):
            assert active_plan() is plan
        assert active_plan() is None


class TestRunnerRecovery:
    """The resilient runner survives each fault kind and stays correct."""

    def clean_value(self, i=0):
        return Runner().run([unit_job(i, key=False)])[0].value

    def run_with(self, spec, **runner_kwargs):
        plan = FaultPlan.parse(spec, seed=5)
        events = EventLog()
        runner = Runner(resilience=QUICK, chaos=plan, events=events,
                        **runner_kwargs)
        results = runner.run([unit_job(0, key=False)])
        return results[0], events

    def test_transient_recovers_bitwise(self):
        result, events = self.run_with("transient@job.run")
        assert result.failure is None
        assert result.attempts == 2
        assert result.value == self.clean_value()
        assert events.of_kind("job_retry")

    def test_inline_crash_recovers(self):
        result, _ = self.run_with("crash@job.run:until=1")
        assert result.failure is None
        assert result.value == self.clean_value()

    def test_hang_classified_timeout_then_recovers(self):
        result, events = self.run_with("hang@job.run:until=1,hang=0.01")
        assert result.failure is None
        assert result.value == self.clean_value()
        assert events.of_kind("job_timeout")

    def test_persistent_error_becomes_failure(self):
        result, events = self.run_with("error@job.run")
        assert result.failure is not None
        assert result.failure.failure == "error"
        assert result.failure.attempts == QUICK.retry.max_attempts
        assert result.value is None
        assert events.of_kind("job_failed")

    def test_corrupt_store_recovers_on_next_run(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="1.0")
        plan = FaultPlan.parse("corrupt@cache.store", seed=5)
        first = Runner(cache=cache, chaos=plan).run([unit_job(0)])
        assert first[0].value == self.clean_value()  # caller got the real value
        # The stored artifact was truncated: the rerun treats it as a
        # miss, recomputes, and re-stores a good copy.
        second = Runner(cache=cache).run([unit_job(0)])
        assert not second[0].cache_hit
        assert second[0].value == self.clean_value()
        third = Runner(cache=cache).run([unit_job(0)])
        assert third[0].cache_hit
        assert third[0].value == self.clean_value()

    def test_flow_stage_fault_recovers_verified(self):
        # A transient fault inside the AutoNCS stages (not just the job
        # boundary): the retried flow must still produce a verifiably
        # legal design.
        from repro.networks import random_sparse_network
        from repro.verify.verifier import verify_flow

        network = random_sparse_network(30, 0.08, rng=3, name="chaos-net")
        plan = FaultPlan(rules=(
            FaultRule(site="stage.*", kind="transient", until_attempt=1),
        ), seed=5)
        job = Job(kind="autoncs", label="flow",
                  payload={"network": network, "config": FAST}, seed=9)
        result = Runner(resilience=QUICK, chaos=plan).run([job])[0]
        assert result.failure is None
        assert result.attempts == 2
        assert verify_flow(result.value.design).passed

    def test_retry_determinism_vs_fault_free_run(self):
        # The acceptance contract: the same seed with and without
        # transient faults produces bitwise-identical artifacts once
        # retries succeed.
        spec = SweepSpec(sizes=(30,), densities=(0.08,), seed=11,
                         kind="autoncs", config=FAST, name="t")
        clean = Runner().run_sweep(spec)
        plan = FaultPlan(rules=(
            FaultRule(site="job.run", kind="transient", until_attempt=1),
        ), seed=5)
        chaotic = Runner(resilience=QUICK, chaos=plan).run_sweep(spec)
        assert [r.attempts for r in chaotic.results] == [2]
        clean_rows = [
            {k: v for k, v in row.items() if k != "seconds"}
            for row in clean.cell_rows()
        ]
        chaos_rows = [
            {k: v for k, v in row.items() if k != "seconds"}
            for row in chaotic.cell_rows()
        ]
        assert clean_rows == chaos_rows
        assert np.array_equal(
            clean.results[0].value.design.placement.x,
            chaotic.results[0].value.design.placement.x,
        )
        assert np.array_equal(
            clean.results[0].value.design.placement.y,
            chaotic.results[0].value.design.placement.y,
        )


class TestCounters:
    def test_faults_injected_counted(self):
        from repro.observability import Recorder, recording

        recorder = Recorder()
        plan = FaultPlan.parse("transient@job.run", seed=5)
        with recording(recorder):
            Runner(resilience=QUICK, chaos=plan).run([unit_job(0, key=False)])
        counters = recorder.snapshot().counters
        assert counters.get("chaos.faults_injected") == 1
        assert counters.get("chaos.faults.transient") == 1
        assert counters.get("runner.retries") == 1

    def test_null_plan_resilient_run_counts_nothing(self):
        # A resilient runner with no plan installed must cost nothing in
        # the resilience accounting: no retries, faults or failures.
        from repro.observability import Recorder, recording

        recorder = Recorder()
        jobs = [unit_job(i, key=False) for i in range(16)]
        with recording(recorder):
            results = Runner(resilience=QUICK, chaos=None).run(jobs)
        assert all(r.failure is None and r.attempts == 1 for r in results)
        counters = recorder.snapshot().counters
        for name in ("runner.retries", "runner.failures", "chaos.faults_injected"):
            assert counters.get(name, 0) == 0, name

    def test_transient_preset_grid_recovers_with_equal_checksum(self):
        from repro.observability import Recorder, recording

        jobs = [unit_job(i, key=False) for i in range(16)]
        clean = Runner().run(jobs)
        recorder = Recorder()
        plan = FaultPlan.parse("transient", seed=5)
        with recording(recorder):
            chaotic = Runner(resilience=QUICK, chaos=plan).run(jobs)
        counters = recorder.snapshot().counters
        assert counters.get("chaos.faults_injected", 0) > 0
        assert counters.get("runner.retries") == counters.get("chaos.faults_injected")
        assert counters.get("runner.failures", 0) == 0
        # Value by value, which is stronger than an equal checksum.
        assert [r.value for r in chaotic] == [r.value for r in clean]
