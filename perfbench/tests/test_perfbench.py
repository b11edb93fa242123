"""Tests for the benchmark's own code (not for the program it measures)."""

from __future__ import annotations

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import flows
import measure
import pytest
import run
import service_mix
from flows import Design, PassResult


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_tail_reports_p99_only_with_ten_samples_beyond():
    result = measure.tail(range(1, 1001))
    assert (result.rule, result.value, result.samples, result.beyond) == ("p99", 990.0, 1000, 10)
    bigger = measure.tail(range(1, 1501))
    assert bigger.rule == "p99" and bigger.beyond >= 10 and bigger.samples == 1500


@pytest.mark.parametrize("n", [1, 2, 500, 999])
def test_tail_falls_back_to_max_and_states_the_count(n):
    result = measure.tail(list(range(n, 0, -1)))
    assert (result.rule, result.value, result.samples, result.beyond) == ("max", float(n), n, 0)


def test_tail_rejects_empty_sample():
    with pytest.raises(ValueError):
        measure.tail([])


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
class _ScriptedGauge(measure.SpeedGauge):
    """A gauge whose reference timings are given, not measured."""

    def __init__(self, timings, calm_s=1.0):
        super().__init__(measure.Reference(lambda: None, calm_s))
        self._timings = iter(timings)

    def sample(self):
        self.samples.append(next(self._timings))
        return len(self.samples) - 1


def test_gauge_scales_by_the_local_median_of_reference_timings():
    window = measure.GAUGE_WINDOW
    # A calm stretch, then the machine runs at half speed.
    gauge = _ScriptedGauge([1.0] * 20 + [2.0] * 20)
    points = [gauge.sample() for _ in range(40)]
    assert gauge.scale(3.0, points[0]) == 3.0
    assert gauge.scale(3.0, points[-1]) == 1.5
    # Near the change the window holds both speeds; its median follows
    # the majority.
    assert gauge.scale(3.0, points[20 - window + 1]) == 3.0
    assert gauge.scale(3.0, points[20 + window - 1]) == 1.5
    # One slow reference timing among calm ones does not move the scale.
    spiky = _ScriptedGauge([1.0] * 5 + [9.0] + [1.0] * 5)
    middle = [spiky.sample() for _ in range(11)][5]
    assert spiky.scale(2.0, middle) == 2.0


def test_settle_takes_a_full_window_and_returns_its_middle():
    gauge = _ScriptedGauge([1.0] * 11 + [4.0] * 11, calm_s=2.0)
    first, second = gauge.settle(), gauge.settle()
    assert (first, second) == (measure.GAUGE_WINDOW, 3 * measure.GAUGE_WINDOW + 1)
    assert gauge.scale(1.0, first) == 2.0 and gauge.scale(1.0, second) == 0.5
    # An operation between the two windows is scaled by both of them.
    assert gauge.local(first, second) == 2.5
    assert gauge.scale(1.0, first, second) == 0.8


@pytest.mark.parametrize("reference", [measure.INTERPRETER_REFERENCE, measure.ARRAY_REFERENCE])
def test_reference_work_runs_and_is_timed(reference):
    gauge = measure.SpeedGauge(reference)
    assert gauge.sample() == 0 and gauge.samples[0] > 0


# ----------------------------------------------------------------------
# Ratio bases
# ----------------------------------------------------------------------
def _design(name, latency, connections, clustered, area=100.0, delay=1.0):
    # Scaled times are half the wall times, as on a machine running at
    # twice the reference speed.
    return Design(name=name, latency_s=latency, connections=connections, clustered=clustered,
                  area_um2=area, delay_ns=delay, wirelength_um=10.0,
                  outlier_ratio=1 - clustered / connections, cells=3, wires=4,
                  family=name.split(".")[0], scaled_s=latency / 2)


def test_ratio_of_empty_base_is_zero():
    assert measure.ratio(5, 0) == 0.0
    assert measure.ratio(1, 4) == 0.25


def test_batch_times_use_per_family_medians_and_quality_is_pooled():
    designs = [
        _design("a.0", 1.0, 100, 90, area=10.0, delay=1.0),
        _design("b.0", 3.0, 300, 150, area=20.0, delay=3.0),
        # An input whose flow runs long: a median ignores it.
        _design("a.1", 30.0, 100, 50, area=40.0, delay=1.0),
        _design("b.1", 4.0, 300, 50, area=20.0, delay=3.0),
        _design("a.2", 2.0, 100, 100, area=12.0, delay=2.0),
        _design("b.2", 5.0, 300, 200, area=18.0, delay=2.0),
    ]
    metrics = flows.end_to_end(PassResult(designs), scaled=False)
    # Typical set: median a (2 s) + median b (4 s) = 6 s for 400 connections.
    assert metrics["p50_ms"] == metrics["miss_p50_ms"] == 6000.0
    assert metrics["conn_per_s"] == pytest.approx(400 / 6.0)
    assert metrics["rps"] == pytest.approx(2 / 6.0)
    assert metrics["p99_ms"] == 4000.0  # the slowest family's median
    scaled = flows.end_to_end(PassResult(designs))
    assert scaled["p50_ms"] == 3000.0 and scaled["p99_ms"] == 2000.0
    assert scaled["conn_per_s"] == pytest.approx(400 / 3.0)
    # Quality pools every design, weighted by connections where a ratio.
    assert metrics["clustered_ratio"] == pytest.approx(640 / 1200)
    assert metrics["area_um2"] == pytest.approx(62 / 3 + 58 / 3)
    assert metrics["delay_ns"] == pytest.approx(2.0)


def test_setup_generates_each_set_once_and_checks_a_repeat():
    calls = []

    def make_set(index):
        calls.append(index)
        return [f"net-{index}"]

    inputs, seconds = flows.timed_setup(make_set, 4, tuple, _ScriptedGauge([1.0] * 5))
    assert inputs == [(0, "net-0"), (1, "net-1"), (2, "net-2"), (3, "net-3")]
    assert calls == [0, 1, 2, 3, 0] and len(seconds) == 5
    _, seconds = flows.timed_setup(make_set, 1, tuple, _ScriptedGauge([1.0] * 3))
    assert len(seconds) == flows.SETUP_REPEATS
    drifting = iter(range(100))
    with pytest.raises(flows.BenchFailure):
        flows.timed_setup(lambda index: [next(drifting)], 2, tuple, _ScriptedGauge([1.0] * 3))


def test_failed_counts_failures_against_attempts():
    outcome = run.Outcome(attempted=4, failures=["x: boom"], end_to_end={})
    assert outcome.failed == 1
    assert run.Outcome(attempted=1, failures=["a", "b"], end_to_end={}).failed == 1


def test_service_cache_hit_ratio_is_over_requests_in_the_pass():
    before = {"counters": {"requests": 5, "cache_hits": 1, "jobs_executed": 4},
              "cache": {"misses": 4}}
    after = {"counters": {"requests": 105, "cache_hits": 71, "dedup_coalesced": 19,
                          "jobs_executed": 14}, "cache": {"hits": 8, "misses": 14}}
    metrics = service_mix.per_layer(service_mix.LoadPass([], 1.0, before, after, {}))
    assert metrics["runtime.cache_hit_ratio"] == pytest.approx(0.89)
    assert metrics["runtime.jobs_executed"] == 10
    assert metrics["runtime.cache_misses"] == 10
    assert metrics["runtime.artifact_cache_hits"] == 8


def test_undeclared_metric_is_refused_and_absent_layer_reads_zero():
    declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "count"}]
    assert run.select_metrics({"a": 1.5}, declared, absent_is_zero=True) == {
        "a": {"value": 1.5, "unit": "s"}, "b": {"value": 0.0, "unit": "count"}}
    with pytest.raises(KeyError):
        run.select_metrics({"a": 1.5}, declared, absent_is_zero=False)
    with pytest.raises(KeyError):
        run.select_metrics({"a": 1.0, "b": 2.0, "c": 3.0}, declared, absent_is_zero=True)


def test_declared_end_to_end_metrics_match_what_workloads_measure():
    spec = run.load_spec(run.ROOT)
    declared = {metric["name"] for metric in spec["end_to_end"]}
    batch = set(flows.end_to_end(PassResult([_design("a", 1.0, 10, 5)])))
    assert batch | {"setup_s", "peak_rss_mb", "ok_ratio"} == declared
    assert {metric["name"] for metric in spec["per_layer"]} >= set(
        service_mix.per_layer(service_mix.LoadPass([], 1.0, {}, {}, {})))


# ----------------------------------------------------------------------
# Seed plumbing
# ----------------------------------------------------------------------
def test_service_schedule_follows_the_seed():
    jobs = service_mix.schedule(1, 10)
    assert jobs == service_mix.schedule(1, 10)
    assert jobs != service_mix.schedule(2, 10)
    assert len(jobs) == 1000
    counts = Counter(service_mix.job_key(job) for job in jobs)
    assert sum(1 for n in counts.values() if n > 1) == service_mix.REPEAT_SET
    assert sum(1 for n in counts.values() if n == 1) == 100
    repeated = service_mix.repeated_jobs(jobs)
    assert len(repeated) == service_mix.REPEAT_SET
    assert {service_mix.job_key(job) for job in repeated} == {
        key for key, n in counts.items() if n > 1}


def test_repeated_answers_are_checked_against_the_primed_reference():
    jobs = [{"neurons": 48, "network_seed": 1}, {"neurons": 48, "network_seed": 2}] * 2
    reference = {(48, 1): {"area_um2": 1.0}}

    def sample(index, result):
        return service_mix.Sample(index, 0.01, 200, {"state": "done", "result": result})

    same = [sample(0, {"area_um2": 1.0}), sample(1, {"area_um2": 5.0}),
            sample(2, {"area_um2": 1.0}), sample(3, {"area_um2": 6.0})]
    assert service_mix.consistency_failures(jobs, same, reference) == []
    # Even the first answer of a repeated job must match the reference.
    drifted = [sample(0, {"area_um2": 1.5}), sample(2, {"area_um2": 1.5})]
    assert len(service_mix.consistency_failures(jobs, drifted, reference)) == 2


def test_paper_inputs_follow_the_seed():
    def digest(seed, index):
        return flows.digest_instances(flows.paper_set(seed, index, scale=0.2))

    assert len(digest(3, 0)) == len(flows.PAPER_TESTBENCHES)
    assert digest(3, 0) == digest(3, 0)
    assert digest(3, 0) != digest(4, 0)
    assert digest(3, 0) != digest(3, 1)  # every instance set draws its own stream


def test_every_set_has_its_own_flow_seed():
    seeds = {flows.flow_seed(seed, index) for seed in (1, 2) for index in range(5)}
    assert len(seeds) == 10
    assert flows.flow_seed(1, 3) == flows.flow_seed(1, 3)


def test_instance_sets_follow_the_run_length():
    assert flows.instance_sets(40, flows.PAPER_SET_SECONDS) == 12
    assert flows.instance_sets(1, flows.PAPER_SET_SECONDS) == 1
    assert len(service_mix.schedule(1, 27)) == len(service_mix.schedule(1, 1)) == 1000
    assert len(service_mix.schedule(1, 40)) == 1500


@pytest.fixture(scope="module")
def small_testbench():
    from repro.experiments.testbenches import build_testbench, scaled_testbench

    return build_testbench(scaled_testbench(1, 48), rng=5)


def test_same_seed_gives_identical_qor_and_traced_pass_reproduces_it(small_testbench):
    inputs = [(0, small_testbench)]
    gauge = measure.SpeedGauge(measure.ARRAY_REFERENCE)
    first = flows.run_pass(inputs, lambda index, item: flows.map_testbench(item, 5), gauge)
    again = flows.run_pass(inputs, lambda index, item: flows.map_testbench(item, 5), gauge)
    assert not first.failures and not again.failures
    assert first.designs[0].scaled_s > 0
    assert flows.fidelity_failures(first, again) == []
    clock = flows.LayerClock()
    traced = flows.run_pass(
        inputs, lambda index, item: flows.traced_testbench(item, 5, clock), gauge)
    assert not traced.failures
    assert flows.fidelity_failures(first, traced) == []
    assert clock.busy["placement"] > 0 and clock.busy["routing"] > 0


def test_fidelity_check_reports_a_one_sided_fallback_and_qor_drift():
    plain = _design("a", 1.0, 10, 5)
    plain.fallbacks = [{"stage": "placement", "action": "annealing_placer"}]
    drifted = _design("a", 1.0, 10, 5, area=101.0)
    failures = flows.fidelity_failures(PassResult([plain]), PassResult([drifted]))
    assert len(failures) == 2


# ----------------------------------------------------------------------
# Load generator: never more client threads or connections than nproc
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nproc", [1, 2, 8, None])
def test_client_threads_never_exceed_nproc(monkeypatch, nproc):
    monkeypatch.setattr(service_mix.os, "cpu_count", lambda: nproc)
    assert service_mix.client_threads() == 1 <= (nproc or 1)


class _FakeService(BaseHTTPRequestHandler):
    """Answers every job as a cache hit."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"state": "done", "coalesced": False, "cache_hit": True,
                           "job_id": "j", "result": {"connections": 1}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_load_generator_uses_one_thread_and_one_connection_at_a_time(monkeypatch):
    seen = {"threads": set(), "in_flight": 0, "peak": 0}
    post_job = service_mix.post_job

    def counting_post_job(conn, job):
        seen["threads"].add(threading.get_ident())
        seen["in_flight"] += 1
        seen["peak"] = max(seen["peak"], seen["in_flight"])
        try:
            return post_job(conn, job)
        finally:
            seen["in_flight"] -= 1

    monkeypatch.setattr(service_mix, "post_job", counting_post_job)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeService)
    server.daemon_threads = True
    acceptor = threading.Thread(target=server.serve_forever, daemon=True)
    acceptor.start()
    try:
        jobs = service_mix.schedule(7, 1)[:200]
        gauge = _ScriptedGauge([2.0] * 200, calm_s=1.0)
        samples, wall = service_mix.run_load("127.0.0.1", server.server_address[1], jobs,
                                             gauge)
    finally:
        server.shutdown()
        server.server_close()
        acceptor.join(timeout=5)
    assert not acceptor.is_alive()
    assert len(samples) == 200 and all(sample.ok for sample in samples) and wall > 0
    assert all(sample.scaled_s == sample.latency_s / 2 for sample in samples)
    assert seen["peak"] == 1 and len(seen["threads"]) == service_mix.client_threads()
