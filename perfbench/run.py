#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-tb --seed 1 --seconds 40 --trace 0

Run from the repository root (or anywhere: paths resolve from this
file).  The program is imported from ``src/`` of the same checkout.
Workloads: ``paper-tb`` and ``service-mix`` (see README.md for why each
exists).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (``paper-tb`` adds a pass under an installed recorder
for them); the metric names and units
are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Exit status: 0 when every output passed the correctness gate, 1 when
any failed, 2 when the program's sources or ``BENCHMARK.json`` are
missing.  A full record with the run metadata is also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-tb", "service-mix")


@dataclass
class Outcome:
    """What one workload run measured and which outputs failed."""

    attempted: int
    failures: List[str]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        # Each failure message names one design or request.
        return min(self.attempted, len(self.failures))


def run_paper_tb(seed: int, seconds: float, traced: bool) -> Outcome:
    """``paper-tb``: an untraced pass, then (traced runs) a traced one.

    BLAS runs single-threaded (see :func:`measure.single_threaded_blas`).
    """
    import flows
    from measure import ARRAY_REFERENCE, SpeedGauge, median, peak_rss_mb, single_threaded_blas

    single_threaded_blas()
    sets = flows.instance_sets(seconds, flows.PAPER_SET_SECONDS)
    flows.import_program()
    gauge = SpeedGauge(ARRAY_REFERENCE)
    imports = []
    point = gauge.settle()
    for _ in range(flows.SETUP_REPEATS):
        wall = flows.fresh_import_seconds(str(ROOT / "src"))
        after = gauge.settle()
        imports.append(gauge.scale(wall, point, after))
        point = after
    inputs, generate = flows.timed_setup(lambda index: flows.paper_set(seed, index), sets,
                                         flows.digest_instances, gauge)
    untraced = flows.run_pass(
        inputs, lambda index, item: flows.map_testbench(item, flows.flow_seed(seed, index)),
        gauge)
    end_to_end = flows.end_to_end(untraced)
    # Every set is generated once: total generation = sets x median set.
    end_to_end["setup_s"] = median(imports) + sets * median(generate)
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    notes = {
        "import_s": imports,
        "generate_s": generate,
        "instance_sets": sets,
        "flow_wall_s": untraced.wall_s,
        "wall_clock": flows.end_to_end(untraced, scaled=False),
        "reference_s": gauge.samples,
        "designs": {d.name: {"latency_s": d.latency_s, "scaled_s": d.scaled_s, "qor": d.qor(),
                             "fallbacks": d.fallbacks}
                    for d in untraced.designs},
        "p99_rule": f"slowest family's median design latency ({len(untraced.designs)} designs, "
                    f"{sets} per family)",
    }
    outcome = Outcome(len(inputs), list(untraced.failures), end_to_end, notes=notes)
    if traced:
        from repro.observability import Recorder, recording

        clock, recorder = flows.LayerClock(), Recorder()
        with recording(recorder):
            traced_pass = flows.run_pass(
                inputs, lambda index, item: flows.traced_testbench(
                    item, flows.flow_seed(seed, index), clock), gauge)
        outcome.attempted += len(inputs)
        outcome.failures += traced_pass.failures
        outcome.failures += flows.fidelity_failures(untraced, traced_pass)
        outcome.per_layer = flows.per_layer(traced_pass, untraced, clock, recorder,
                                            sets * median(generate))
    return outcome


def run_service(seed: int, seconds: float, traced: bool) -> Outcome:
    """``service-mix``: a closed loop against ``python -m repro serve``.

    The client and the server share one CPU and run single-threaded BLAS.
    No recorder runs in the server, so a traced run takes the same load
    and only adds the ``GET /jobs/<id>`` reads behind the service
    metrics; ``observability.trace_overhead`` reads 0 here.
    """
    import service_mix
    from measure import median, peak_rss_mb, pin_to_one_cpu, single_threaded_blas, tail

    single_threaded_blas()
    cpu = pin_to_one_cpu()
    workdir = ROOT / ".perfbench" / f"service-{os.getpid()}"
    jobs, setups, reference, run = service_mix.run_workload(ROOT, workdir, seed, seconds, traced)
    failures = [f"request {s.index}: HTTP {s.status} {s.body.get('state') or s.body.get('error')}"
                for s in run.samples if not s.ok]
    failures += service_mix.consistency_failures(jobs, run.samples, reference)
    end_to_end = service_mix.end_to_end(jobs, run)
    end_to_end["setup_s"] = median(setups)
    end_to_end["peak_rss_mb"] = peak_rss_mb(server=True)
    latencies = [s.scaled_s for s in run.samples if s.ok]
    rule = tail(latencies) if latencies else None
    notes = {
        "setup_s": setups,
        "requests": len(jobs),
        "client_threads": service_mix.client_threads(),
        "cpu": cpu,
        "primed_jobs": len(reference),
        "misses": sum(1 for s in run.samples if s.ok and not s.hit),
        "load_wall_s": run.wall_s,
        "wall_clock": service_mix.end_to_end(jobs, run, scaled=False),
        "p99_rule": rule and {"rule": rule.rule, "samples": rule.samples, "beyond": rule.beyond},
    }
    outcome = Outcome(len(jobs), failures, end_to_end, notes=notes)
    if traced:
        outcome.per_layer = service_mix.per_layer(run)
    return outcome


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def select_metrics(produced: Dict[str, float], declared: List[dict],
                   absent_is_zero: bool) -> Dict[str, dict]:
    """Attach declared units; refuse undeclared names.

    A per-layer metric the workload does not produce is a layer that
    does no work on it and reads 0; a missing end-to-end metric is an
    error.
    """
    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(produced) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(produced))
    if missing and not absent_is_zero:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": float(produced.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec(ROOT)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # Turn SIGTERM into SystemExit so the service child is stopped on the
    # way out, not orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from measure import fixed_malloc_thresholds

    fixed_malloc_thresholds()
    traced = bool(args.trace)
    if args.workload == "service-mix":
        outcome = run_service(args.seed, args.seconds, traced)
    else:
        outcome = run_paper_tb(args.seed, args.seconds, traced)

    from measure import ratio, run_metadata

    if outcome.failures and outcome.failed == outcome.attempted:
        # Nothing succeeded, so there is nothing to measure.
        for failure in outcome.failures:
            print(f"perfbench: FAILED: {failure}", file=sys.stderr)
        return 1
    outcome.end_to_end["ok_ratio"] = ratio(outcome.attempted - outcome.failed, outcome.attempted)
    end_to_end = select_metrics(outcome.end_to_end, spec["end_to_end"], absent_is_zero=False)
    per_layer = select_metrics(outcome.per_layer, spec["per_layer"], absent_is_zero=True)
    metadata = run_metadata(ROOT, args.seed, args.workload, traced)
    correct = not outcome.failures

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for title, metrics in (("end to end", end_to_end),) + (
            (("per layer", per_layer),) if traced else ()):
        print(f"  {title}:")
        for name, metric in metrics.items():
            print(f"    {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    print("  notes: " + json.dumps(outcome.notes, default=str))
    print("  metadata: " + json.dumps(metadata))

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
              "failures": outcome.failures, "end_to_end": end_to_end,
              "per_layer": per_layer if traced else {}, "notes": outcome.notes,
              "metadata": metadata}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": per_layer if traced else end_to_end}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
