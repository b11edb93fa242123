"""The ``service-mix`` workload: a closed-loop client against the service.

``python -m repro serve`` runs as a child process with a fresh cache
directory; the benchmark process is the client.  One client sends its
next ``POST /jobs?wait=1`` only after the previous answer arrived.
About nine requests in ten repeat a small fixed set of ``map`` jobs; one
in ten asks for a network never seen before, a miss that runs the flow
and stores the result.

The repeated set is computed during set-up by the first server started
on the run's cache directory, and the load runs against a later server
on the same directory.  So the first request of each repeated job is
read from the artifact cache, and the rest are served from the load
server's finished-job table.  The first server's answers are also the
reference every repeated answer of the load must equal.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import INTERPRETER_REFERENCE, SpeedGauge, median, ratio, tail

#: Requests per block, and how many of them are fresh (misses).
BLOCK_REQUESTS = 100
FRESH_PER_BLOCK = 10
#: At least this many blocks (1000 requests), so the 99th percentile
#: has at least 10 samples beyond it.
MIN_BLOCKS = 10
#: Seconds one block takes on a 2-core machine (1000 requests: 25-35 s).
BLOCK_SECONDS = 2.7
#: Distinct repeated jobs.
REPEAT_SET = 8
NEURON_SIZES = (48, 56, 64)
DENSITY = 0.1
#: Server starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0


def warmup_job(start: int) -> dict:
    """The warm-up job of server start ``start``: outside the schedule (its
    size is never drawn) and new to the run's cache, so every start
    computes one flow."""
    return {"kind": "map", "neurons": 24, "density": 0.2, "network_seed": start,
            "seed": 0, "fast": True}


def client_threads() -> int:
    """Client threads the load opens: one, and never more than ``nproc``.

    With two, two misses often computed at once and shared the server's
    interpreter lock, so miss latency turned bimodal and its median and
    p99 spread 0.3-0.4 between runs (README.md).
    """
    return min(1, os.cpu_count() or 1)


def job_key(job: dict) -> Tuple[int, int]:
    return (job["neurons"], job["network_seed"])


def repeated_jobs(jobs: List[dict]) -> List[dict]:
    """The jobs that occur more than once, in order of first occurrence."""
    counts: Dict[Tuple[int, int], int] = {}
    for job in jobs:
        counts[job_key(job)] = counts.get(job_key(job), 0) + 1
    first: Dict[Tuple[int, int], dict] = {}
    for job in jobs:
        if counts[job_key(job)] > 1:
            first.setdefault(job_key(job), job)
    return list(first.values())


def schedule(seed: int, seconds: float) -> List[dict]:
    """The request sequence for ``seed``; its length follows ``seconds``.

    A run of ``seconds`` sends ``seconds / BLOCK_SECONDS`` blocks of
    :data:`BLOCK_REQUESTS` (at least :data:`MIN_BLOCKS`).  Fresh jobs cycle through the neuron sizes so every block
    has the same miss cost mix; the seed picks the networks, their flow
    seeds and the order.
    """
    rnd = random.Random(seed)
    blocks = max(MIN_BLOCKS, round(seconds / BLOCK_SECONDS))
    count = REPEAT_SET + blocks * FRESH_PER_BLOCK
    network_seeds = rnd.sample(range(1, 2**31 - 1), count)
    # One flow seed per job: a shared one makes every miss of a run
    # cheaper or dearer together.
    flow_seeds = [rnd.randrange(1, 2**31 - 1) for _ in range(count)]

    def job(index: int) -> dict:
        return {"kind": "map", "neurons": NEURON_SIZES[index % len(NEURON_SIZES)],
                "density": DENSITY, "network_seed": network_seeds[index],
                "seed": flow_seeds[index], "fast": True}

    repeated = [job(i) for i in range(REPEAT_SET)]
    jobs: List[dict] = []
    for block in range(blocks):
        start = REPEAT_SET + block * FRESH_PER_BLOCK
        items = [job(i) for i in range(start, start + FRESH_PER_BLOCK)]
        items += [rnd.choice(repeated) for _ in range(BLOCK_REQUESTS - FRESH_PER_BLOCK)]
        rnd.shuffle(items)
        jobs.extend(items)
    return jobs


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro serve`` child on a free port.

    Every server of a run shares ``workdir`` and its cache directory.
    """

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = None

    def start(self, warmup: dict) -> float:
        """Start, wait for ``/healthz`` and the ``warmup`` job; wall seconds taken."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self._log = open(self.workdir / "server.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--cache-dir", str(self.workdir / "cache")],
            cwd=self.workdir, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._read_port(start + START_TIMEOUT_S)
        while True:
            try:
                if get_json("127.0.0.1", self.port, "/healthz").get("ok"):
                    break
            except OSError:
                pass
            if time.perf_counter() > start + START_TIMEOUT_S or self.proc.poll() is not None:
                raise RuntimeError("service did not answer /healthz")
            time.sleep(0.005)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            status, body = post_job(conn, warmup)
        finally:
            conn.close()
        if status != 200 or body.get("state") != "done":
            raise RuntimeError(f"warm-up job failed: HTTP {status} {body}")
        return time.perf_counter() - start

    def _read_port(self, deadline: float) -> int:
        stream = self.proc.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
                raise RuntimeError("service did not report its address")
            chunk = os.read(stream.fileno(), 1)
            if not chunk:
                raise RuntimeError("service exited before reporting its address")
            line += chunk
        # "mapping service listening on http://127.0.0.1:<port>"
        return int(line.decode().strip().rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def get_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def post_job(conn: http.client.HTTPConnection, job: dict) -> Tuple[int, dict]:
    """``POST /jobs?wait=1`` on an open connection; ``(status, body)``."""
    conn.request("POST", "/jobs?wait=1", body=json.dumps(job),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    body = json.loads(response.read() or b"{}")
    return response.status, body


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    latency_s: float
    status: int
    body: dict
    #: ``latency_s`` at reference machine speed (:class:`measure.SpeedGauge`).
    scaled_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.body.get("state") == "done"

    @property
    def hit(self) -> bool:
        return bool(self.body.get("coalesced") or self.body.get("cache_hit"))


def run_load(host: str, port: int, jobs: List[dict],
             gauge: Optional[SpeedGauge] = None) -> Tuple[List[Sample], float]:
    """Closed loop over ``jobs``: one client, one request at a time.

    Like :class:`repro.service.client.ServiceClient`, each request opens
    its own connection.  Returns ``(samples in schedule order, wall
    seconds)``.  A request that raises counts as failed (status 0).
    With a ``gauge``, a reference sample follows every request, and each
    sample's ``scaled_s`` is set from them.
    """
    samples = []
    points = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        begin = time.perf_counter()
        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            status, body = post_job(conn, job)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, body = 0, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            conn.close()
        samples.append(Sample(index, time.perf_counter() - begin, status, body))
        if gauge is not None:
            points.append(gauge.sample())
    wall = time.perf_counter() - start
    for sample, point in zip(samples, points):
        sample.scaled_s = gauge.scale(sample.latency_s, point)
    return samples, wall


def prime(server: "Server", jobs: List[dict]) -> Dict[Tuple[int, int], dict]:
    """Compute ``jobs`` on ``server``; their result summaries by job key."""
    samples, _ = run_load("127.0.0.1", server.port, jobs)
    reference = {}
    for sample in samples:
        if not sample.ok:
            raise RuntimeError(f"priming job {jobs[sample.index]} failed: "
                               f"HTTP {sample.status} {sample.body}")
        reference[job_key(jobs[sample.index])] = sample.body["result"]
    return reference


def consistency_failures(jobs: List[dict], samples: List[Sample],
                         reference: Dict[Tuple[int, int], dict]) -> List[str]:
    """Repeated jobs must return the result summary the priming server
    computed for them."""
    failures = []
    for sample in samples:
        key = job_key(jobs[sample.index])
        if sample.ok and key in reference and sample.body.get("result") != reference[key]:
            failures.append(f"request {sample.index}: result differs from the primed answer "
                            f"for {key}")
    return failures


@dataclass
class LoadPass:
    """The load phase against the last server started."""

    samples: List[Sample]
    wall_s: float
    stats_before: dict
    stats_after: dict
    records: Dict[str, dict]


def load_pass(server: Server, jobs: List[dict], traced: bool, gauge: SpeedGauge) -> LoadPass:
    """Run the schedule against a started server.

    A traced run also reads ``GET /jobs/<id>`` of every miss, after the
    load so it adds no request to the timed loop.
    """
    before = get_json("127.0.0.1", server.port, "/stats")
    samples, wall = run_load("127.0.0.1", server.port, jobs, gauge)
    after = get_json("127.0.0.1", server.port, "/stats")
    records: Dict[str, dict] = {}
    if traced:
        for sample in samples:
            if sample.ok and not sample.hit:
                job_id = sample.body["job_id"]
                records[job_id] = get_json("127.0.0.1", server.port, f"/jobs/{job_id}")
    return LoadPass(samples, wall, before, after, records)


def end_to_end(jobs: List[dict], run: LoadPass, scaled: bool = True) -> Dict[str, float]:
    """End-to-end metrics of a pass (see README.md).

    Latencies are at reference machine speed unless ``scaled`` is false;
    throughput is over the time spent in requests.  The quality figures
    cover every distinct design the pass served.
    """
    done = [s for s in run.samples if s.ok]
    latencies = [s.scaled_s if scaled else s.latency_s for s in done]
    misses = [latency for s, latency in zip(done, latencies) if not s.hit]
    busy = sum(latencies)
    designs: Dict[Tuple[int, int], dict] = {}
    for sample in done:
        designs.setdefault(job_key(jobs[sample.index]), sample.body["result"])
    results = list(designs.values())
    connections = sum(r["connections"] for r in results)
    clustered = sum(r["connections"] * (1.0 - r["outlier_ratio"]) for r in results)
    return {
        "conn_per_s": ratio(sum(s.body["result"]["connections"] for s in done), busy),
        "rps": ratio(len(done), busy),
        "p50_ms": 1000.0 * median(latencies) if latencies else 0.0,
        "p99_ms": 1000.0 * tail(latencies).value if latencies else 0.0,
        "miss_p50_ms": 1000.0 * median(misses) if misses else 0.0,
        "area_um2": sum(r["area_um2"] for r in results),
        "delay_ns": ratio(sum(r["delay_ns"] for r in results), len(results)),
        "clustered_ratio": ratio(clustered, connections),
    }


def per_layer(run: LoadPass) -> Dict[str, float]:
    """Service and runtime layer metrics of a traced run.

    Queue wait and execution time come from ``GET /jobs/<id>`` of every
    miss; transport is the client latency minus the server-side
    ``finished - created`` of the same miss.  Cache counts are deltas of
    ``/stats`` over the load.
    """
    by_id = {s.body.get("job_id"): s for s in run.samples if s.ok and not s.hit}
    waits, execs, transports = [], [], []
    for job_id, record in run.records.items():
        created, started, finished = record["created"], record["started"], record["finished"]
        if started is None or finished is None:
            continue
        waits.append(started - created)
        execs.append(finished - started)
        transports.append(by_id[job_id].latency_s - (finished - created))
    counters_before = run.stats_before.get("counters", {})
    counters_after = run.stats_after.get("counters", {})

    def delta(name: str) -> int:
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    def cache_delta(name: str) -> int:
        return (run.stats_after.get("cache", {}).get(name, 0)
                - run.stats_before.get("cache", {}).get(name, 0))

    return {
        "service.queue_wait_ms_p50": 1000.0 * median(waits) if waits else 0.0,
        "service.exec_ms_p50": 1000.0 * median(execs) if execs else 0.0,
        "service.transport_ms_p50": 1000.0 * median(transports) if transports else 0.0,
        "service.rejected": sum(1 for s in run.samples if s.status == 429),
        "runtime.cache_hit_ratio": ratio(delta("cache_hits") + delta("dedup_coalesced"),
                                         delta("requests")),
        "runtime.artifact_cache_hits": cache_delta("hits"),
        "runtime.cache_misses": cache_delta("misses"),
        "runtime.jobs_executed": delta("jobs_executed"),
    }


def _started(root: Path, workdir: Path, start: int, setups: List[float],
             gauge: SpeedGauge) -> Server:
    server = Server(root, workdir)
    try:
        before = gauge.settle()
        wall = server.start(warmup_job(start))
        setups.append(gauge.scale(wall, before, gauge.settle()))
    except BaseException:
        server.stop()
        raise
    return server


def run_workload(root: Path, workdir: Path, seed: int, seconds: float, traced: bool):
    """Set up, prime and load one run.

    :data:`SETUP_REPEATS` servers start one after another on one fresh
    cache directory.  The first computes the repeated jobs (the
    reference answers); the last takes the load.

    Returns ``(jobs, setup seconds at reference speed, reference answers,
    load pass)``.
    """
    jobs = schedule(seed, seconds)
    setups: List[float] = []
    gauge = SpeedGauge(INTERPRETER_REFERENCE)
    try:
        with _started(root, workdir, 0, setups, gauge) as server:
            reference = prime(server, repeated_jobs(jobs))
        for start in range(1, SETUP_REPEATS - 1):
            _started(root, workdir, start, setups, gauge).stop()
        with _started(root, workdir, SETUP_REPEATS - 1, setups, gauge) as server:
            run = load_pass(server, jobs, traced, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return jobs, setups, reference, run
