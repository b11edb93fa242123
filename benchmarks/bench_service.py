"""Mapping service — HTTP load test: latency, throughput, dedup mix.

Spins an in-process :class:`~repro.service.http.ServiceServer` and
drives the fixed serving mix from :mod:`repro.service.loadtest`: many
client threads submitting a small set of unique jobs, so the dedup /
cache layer should execute each unique flow exactly once and serve the
rest from the in-flight coalescer or the artifact cache.

The bench asserts the serving *contracts* — zero errors, exactly-once
execution per unique job, a ≥90 % hit mix — while *recording* latency
percentiles and throughput without asserting them (both are machine
numbers; ``perfbench/`` is where service speed is measured).

Fast mode shrinks the request count (the contracts are scale-free),
not the unique-job set.
"""

from __future__ import annotations

from benchmarks.conftest import bench_fast, bench_seed, write_result
from repro.service import ServiceConfig, ServiceServer
from repro.service.loadtest import default_payloads, run_load

UNIQUE_JOBS = 8
CLIENTS = 16


def _request_count() -> int:
    return 240 if bench_fast() else 1200


def test_service_load(benchmark, tmp_path):
    requests = _request_count()
    config = ServiceConfig(
        workers=4,
        max_queue=max(64, UNIQUE_JOBS * 4),
        cache_dir=tmp_path / "cache",
    )
    outcome = {}

    def load():
        with ServiceServer(config) as server:
            outcome["report"] = run_load(
                server.url,
                requests=requests,
                clients=CLIENTS,
                payloads=default_payloads(UNIQUE_JOBS, seed=bench_seed()),
            )
            outcome["executed"] = server.service.metrics.counter("jobs_executed")
            outcome["failed"] = server.service.metrics.counter("failed")
        return outcome

    benchmark.pedantic(load, rounds=1, iterations=1)
    report = outcome["report"]

    # Contract 1: the mix is served clean — no errors, no failed jobs.
    assert report.errors == 0
    assert outcome["failed"] == 0
    assert len(report.latencies_seconds) == requests

    # Contract 2: dedup executes each unique flow exactly once; the
    # remaining requests are hits (coalesced in flight or cache-served),
    # which at this mix is a >= 90 % hit ratio.
    assert outcome["executed"] == UNIQUE_JOBS
    hit_ratio = (requests - outcome["executed"]) / requests
    assert hit_ratio >= 0.90

    write_result(
        "service_load",
        "\n".join(
            [
                f"mix: {requests} requests over {CLIENTS} client thread(s), "
                f"{UNIQUE_JOBS} unique job(s)",
                report.format(),
                f"hit ratio (exactly-once): {hit_ratio:.1%}",
            ]
        ),
    )
