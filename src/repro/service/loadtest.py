"""Load generation against a running mapping service.

The measurement core of the service load benchmark
(``benchmarks/bench_service.py``): a pool of client threads submits a
fixed, seeded request mix over HTTP (``?wait=1``, so each request's
wall time *is* its submission-to-result latency), and a
:class:`LoadReport` aggregates latencies, errors and throughput.

The default mix cycles a small set of unique jobs across many requests
— the serving sweet spot the dedup layer exists for — so a healthy run
executes each unique flow exactly once and serves everything else from
the in-flight coalescer or the artifact cache (a ≥90 % hit mix at the
default 8 uniques / 1200 requests).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.service.client import ServiceClient, ServiceError
from repro.service.metrics import percentile


def default_payloads(unique: int = 8, seed: int = 42) -> List[Dict[str, Any]]:
    """The seeded request mix: ``unique`` distinct tiny ``map`` jobs."""
    return [
        {
            "kind": "map",
            "neurons": 16 + 2 * index,
            "density": 0.2,
            "network_seed": index + 1,
            "seed": seed,
            "fast": True,
        }
        for index in range(unique)
    ]


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    requests: int = 0
    errors: int = 0
    rejected: int = 0  # 429 backpressure responses (retried, then counted here)
    wall_seconds: float = 0.0
    latencies_seconds: List[float] = field(default_factory=list)
    server_stats: Optional[Dict[str, Any]] = None

    @property
    def p50_seconds(self) -> float:
        return percentile(self.latencies_seconds, 50.0)

    @property
    def p99_seconds(self) -> float:
        return percentile(self.latencies_seconds, 99.0)

    @property
    def throughput_rps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    @property
    def hit_ratio(self) -> float:
        """Server-side (cache + coalesced) hits over requests, when known."""
        if not self.server_stats:
            return 0.0
        return float(self.server_stats.get("cache_hit_ratio", 0.0))

    def format(self) -> str:
        lines = [
            f"requests    : {self.requests} "
            f"({self.errors} error(s), {self.rejected} shed by backpressure)",
            f"wall        : {self.wall_seconds:.2f}s "
            f"({self.throughput_rps:,.0f} req/s)",
            f"latency     : p50 {self.p50_seconds * 1e3:.1f}ms  "
            f"p99 {self.p99_seconds * 1e3:.1f}ms",
        ]
        if self.server_stats:
            counters = self.server_stats.get("counters", {})
            lines.append(
                f"server      : hit ratio {self.hit_ratio:.1%}, "
                f"{counters.get('jobs_executed', 0)} flow(s) executed, "
                f"{counters.get('failed', 0)} failed"
            )
        return "\n".join(lines)


def run_load(
    base_url: str,
    requests: int = 1200,
    clients: int = 16,
    payloads: Optional[List[Dict[str, Any]]] = None,
    timeout: float = 120.0,
    max_backoffs: int = 50,
) -> LoadReport:
    """Drive ``requests`` submissions at ``base_url`` from ``clients`` threads.

    Requests round-robin over ``payloads`` (default mix above) with
    ``wait=1``, so every latency sample covers queueing + dedup +
    execution (or cache service).  A 429 sleeps out the server's
    ``Retry-After`` hint and retries (counted in ``rejected``); any
    other failure counts as an error and moves on.
    """
    mix = payloads if payloads is not None else default_payloads()
    report = LoadReport(requests=requests)
    lock = threading.Lock()

    def worker(indices: range) -> None:
        client = ServiceClient(base_url, timeout=timeout)
        for index in indices:
            payload = mix[index % len(mix)]
            backoffs = 0
            started = time.perf_counter()
            while True:
                try:
                    client.submit(payload, wait=True)
                except ServiceError as exc:
                    if exc.queue_full and backoffs < max_backoffs:
                        backoffs += 1
                        time.sleep(exc.retry_after_seconds or 0.05)
                        continue
                    with lock:
                        report.errors += 1
                except OSError:
                    with lock:
                        report.errors += 1
                break
            elapsed = time.perf_counter() - started
            with lock:
                report.rejected += backoffs
                report.latencies_seconds.append(elapsed)

    per_client = [range(start, requests, clients) for start in range(clients)]
    threads = [
        threading.Thread(target=worker, args=(indices,), name=f"load-{i}")
        for i, indices in enumerate(per_client)
    ]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - wall_started
    try:
        report.server_stats = ServiceClient(base_url, timeout=timeout).stats()
    except (ServiceError, OSError):
        report.server_stats = None
    return report
