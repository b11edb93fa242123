"""The batch workload ``paper-tb``.

It drives the program through its public API only.  The untraced pass
is what a user runs; the traced pass calls the same public stages one by
one under an installed :class:`repro.observability.Recorder`, timing each
call from here, so per-layer busy times come from the benchmark's own
clock and per-layer counts from the counters the program already
records.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The paper's three testbench families (index, full-size N).  They run
#: at :data:`PAPER_SCALE` of the paper's size: one full-size tb1+tb2+tb3
#: pass takes about 85 s on a 2-core machine, and one design's flow time
#: depends so much on its input that a run needs several designs of each
#: family to give a steady median (README.md).
PAPER_TESTBENCHES: Tuple[Tuple[int, int], ...] = ((1, 300), (2, 400), (3, 500))
PAPER_SCALE = 0.3

#: Flow seconds one instance set takes on a 2-core machine; a run maps
#: ``round(seconds / PAPER_SET_SECONDS)`` sets (at least one), each
#: generated from its own stream of the seed, so per-family medians damp
#: the input-dependent outliers of single designs.
PAPER_SET_SECONDS = 3.3

#: Fewest input generations, and fresh-interpreter imports, timed per
#: run (``setup_s`` uses their medians).
SETUP_REPEATS = 3

#: The program modules ``paper-tb`` uses.
PROGRAM_MODULES = (
    "repro",
    "repro.core",
    "repro.experiments.testbenches",
    "repro.mapping.autoncs_mapping",
    "repro.observability",
    "repro.physical.cost",
    "repro.physical.placement.placer",
    "repro.physical.routing.router",
    "repro.verify",
)

LAYERS = ("clustering", "mapping", "placement", "routing", "cost", "verify")


class BenchFailure(RuntimeError):
    """An output of the program failed the benchmark's correctness gate."""


@dataclass
class Design:
    """What one delivered design contributes to the metrics."""

    name: str
    latency_s: float
    connections: int
    clustered: int
    area_um2: float
    delay_ns: float
    wirelength_um: float
    outlier_ratio: float
    cells: int
    wires: int
    fallbacks: List[dict] = field(default_factory=list)
    family: str = ""
    #: ``latency_s`` at reference machine speed (:class:`measure.SpeedGauge`).
    scaled_s: float = 0.0

    def qor(self) -> Tuple[float, float, float, float]:
        """The quality figures that must repeat exactly for a fixed seed."""
        return (self.area_um2, self.wirelength_um, self.delay_ns, self.outlier_ratio)


class LayerClock:
    """Busy time per layer, measured around public calls."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {layer: 0.0 for layer in LAYERS}

    @contextmanager
    def __call__(self, layer: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy[layer] += time.perf_counter() - start


def import_program() -> float:
    """Import :data:`PROGRAM_MODULES` into this process; seconds taken."""
    import importlib

    start = time.perf_counter()
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    return time.perf_counter() - start


def fresh_import_seconds(src: str) -> float:
    """Seconds a fresh interpreter takes to import :data:`PROGRAM_MODULES`
    from ``src`` (timed inside the child, so interpreter start-up is
    left out)."""
    code = ("import time; start = time.perf_counter(); "
            + "; ".join(f"import {module}" for module in PROGRAM_MODULES)
            + "; print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(make_set: Callable[[int], list], sets: int, digest: Callable[[list], tuple],
                gauge):
    """Generate every instance set once, timing each, and set 0 again
    until there are :data:`SETUP_REPEATS` samples (at least once).

    Returns ``(inputs, seconds)``: ``(set, item)`` pairs and one duration
    per generation at reference machine speed (``gauge`` samples after
    each).  Raises :class:`BenchFailure` when a regenerated set differs
    (the same seed must give the same inputs).
    """
    inputs, timed = [], []
    for index in range(sets):
        start = time.perf_counter()
        inputs += [(index, item) for item in make_set(index)]
        timed.append((time.perf_counter() - start, gauge.sample()))
    first = digest([item for index, item in inputs if index == 0])
    for _ in range(max(1, SETUP_REPEATS - sets)):
        start = time.perf_counter()
        again = make_set(0)
        timed.append((time.perf_counter() - start, gauge.sample()))
        if digest(again) != first:
            raise BenchFailure("input generation is not deterministic for a fixed seed")
    return inputs, [gauge.scale(wall, point) for wall, point in timed]


def _require_checks(report, names, label: str) -> None:
    """Every named check ran (not skipped) and passed."""
    statuses = {check.name: check.status for check in report.checks}
    bad = {name: statuses.get(name, "missing") for name in names if statuses.get(name) != "pass"}
    if bad:
        raise BenchFailure(f"{label}: verification did not pass: {bad}")


def instance_sets(seconds: float, set_seconds: float) -> int:
    """How many instance sets a run of ``seconds`` maps (at least one)."""
    return max(1, round(seconds / set_seconds))


def set_rng(seed: int, index: int):
    """The generator of instance set ``index`` (its own stream of ``seed``)."""
    import numpy as np

    return np.random.default_rng([seed, index])


def flow_seed(seed: int, index: int) -> int:
    """The flow seed of instance set ``index``.

    Each set gets its own, so the designs of a run do not share one
    stream of clustering and placement draws: a shared seed makes their
    flow times move together and a run's median with them.
    """
    import numpy as np

    return int(np.random.SeedSequence([seed, index, 1]).generate_state(1)[0])


# ----------------------------------------------------------------------
# paper-tb
# ----------------------------------------------------------------------
def paper_set(seed: int, index: int, scale: float = PAPER_SCALE,
              testbenches=PAPER_TESTBENCHES) -> list:
    """Instance set ``index``: every testbench family, built by
    ``build_testbench`` at ``scale`` of the paper's size."""
    from repro.experiments.testbenches import build_testbench, scaled_testbench

    rng = set_rng(seed, index)
    return [build_testbench(scaled_testbench(tb, round(n * scale)), rng=rng)
            for tb, n in testbenches]


def digest_instances(instances: list) -> tuple:
    return tuple(instance.network.digest() for instance in instances)


def _require_recall(report, label: str) -> None:
    """The functional check replayed the testbench's own Hopfield recall."""
    from repro.verify import CHECK_NAMES

    _require_checks(report, CHECK_NAMES, label)
    if "recall_steps" not in report.check("functional").stats:
        raise BenchFailure(f"{label}: the Hopfield-recall comparison did not run")


def map_testbench(instance, seed: int) -> Design:
    """Untraced: ``repro.map_network``, then ``repro.verify`` once with the
    testbench's Hopfield reference (all four checks)."""
    import repro
    from repro import FlowOptions

    start = time.perf_counter()
    result = repro.map_network(instance.network, options=FlowOptions(seed=seed))
    report = repro.verify(result, options=FlowOptions(hopfield=instance.hopfield))
    latency = time.perf_counter() - start
    label = instance.network.name
    _require_recall(report, label)
    summary = result.summary()
    return Design(
        name=label,
        latency_s=latency,
        connections=instance.network.num_connections,
        clustered=result.isc.clustered_connections,
        area_um2=float(summary["area_um2"]),
        delay_ns=float(summary["delay_ns"]),
        wirelength_um=float(summary["wirelength_um"]),
        outlier_ratio=float(summary["outlier_ratio"]),
        cells=result.mapping.netlist.num_cells,
        wires=result.mapping.netlist.num_wires,
        fallbacks=list(result.metadata.get("fallbacks", [])),
    )


def traced_testbench(instance, seed: int, clock: LayerClock) -> Design:
    """Traced: ``AutoNCS.run``'s stages called one by one, in its order.

    Same configuration and the same RNG stream as :func:`map_testbench`
    (``ensure_rng(seed)`` threaded through clustering and placement), but
    without the flow's fallbacks — a run where a fallback fires cannot
    be traced faithfully and fails the fidelity check instead.
    """
    from repro.core import AutoNCS
    from repro.mapping.autoncs_mapping import autoncs_mapping
    from repro.physical.cost import evaluate_cost
    from repro.physical.layout import PhysicalDesign
    from repro.physical.placement.placer import place
    from repro.physical.routing.router import RoutingConfig, route
    from repro.utils.rng import ensure_rng
    from repro.verify import verify_flow

    flow = AutoNCS()
    config = flow.config
    rng = ensure_rng(seed)
    network = instance.network
    start = time.perf_counter()
    with clock("clustering"):
        isc = flow.cluster(network, rng=rng)
    with clock("mapping"):
        mapping = autoncs_mapping(isc, library=flow.library)
    with clock("placement"):
        placement = place(mapping.netlist, technology=config.technology,
                          config=config.placement, rng=rng)
    with clock("routing"):
        routing = route(mapping.netlist, placement, technology=config.technology,
                        config=config.routing if config.routing is not None else RoutingConfig())
    with clock("cost"):
        cost = evaluate_cost(mapping.netlist, placement, routing,
                             technology=config.technology, weights=config.cost_weights)
    design = PhysicalDesign(mapping=mapping, placement=placement, routing=routing, cost=cost)
    with clock("verify"):
        report = verify_flow(design, hopfield=instance.hopfield)
    latency = time.perf_counter() - start
    label = network.name
    _require_recall(report, label)
    return Design(
        name=label,
        latency_s=latency,
        connections=network.num_connections,
        clustered=isc.clustered_connections,
        area_um2=float(cost.area_um2),
        delay_ns=float(cost.average_delay_ns),
        wirelength_um=float(cost.wirelength_um),
        outlier_ratio=float(isc.outlier_ratio),
        cells=mapping.netlist.num_cells,
        wires=mapping.netlist.num_wires,
    )


# ----------------------------------------------------------------------
# Running the workload
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """Designs of one pass over the inputs, plus failures by name."""

    designs: List[Design] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(design.latency_s for design in self.designs)

    @property
    def scaled_wall_s(self) -> float:
        return sum(design.scaled_s for design in self.designs)


def run_pass(inputs: list, map_one: Callable[[int, object], Design], gauge) -> PassResult:
    """Call ``map_one(set, input)`` for every input once; a failing design
    is recorded, not raised.

    ``gauge`` (a :class:`measure.SpeedGauge`) takes a reference sample
    after every design, from which each design's ``scaled_s`` is set.
    """
    result = PassResult()
    samples = []
    for index, item in inputs:
        name = f"{item.network.name}.{index}"
        try:
            design = map_one(index, item)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            traceback.print_exc(file=sys.stderr)
            result.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            sample = gauge.sample()
        design.family = design.name
        design.name = name
        result.designs.append(design)
        samples.append(sample)
    for design, sample in zip(result.designs, samples):
        design.scaled_s = gauge.scale(design.latency_s, sample)
    return result


def fidelity_failures(untraced: PassResult, traced: PassResult) -> List[str]:
    """Where the traced pass did not reproduce the untraced QoR exactly."""
    failures = []
    for design in untraced.designs:
        if design.fallbacks:
            failures.append(
                f"{design.name}: a fallback fired in the untraced run only "
                f"({[f['action'] for f in design.fallbacks]})"
            )
    plain = {design.name: design.qor() for design in untraced.designs}
    for design in traced.designs:
        expected: Optional[tuple] = plain.get(design.name)
        if expected is not None and expected != design.qor():
            failures.append(
                f"{design.name}: traced QoR {design.qor()} != untraced {expected}"
            )
    return failures


def by_family(designs: List[Design]) -> Dict[str, List[Design]]:
    families: Dict[str, List[Design]] = {}
    for design in designs:
        families.setdefault(design.family, []).append(design)
    return families


def end_to_end(result: PassResult, scaled: bool = True) -> Dict[str, float]:
    """End-to-end metrics of the untraced pass (see README.md).

    A request maps one instance set, one network of each family.  Its
    typical latency is the sum over families of the family's median
    design latency, so an input whose flow happens to run long moves it
    less.  Latencies are at reference machine speed unless ``scaled`` is
    false.  The quality figures pool every design.
    """
    from measure import median, ratio

    designs = result.designs
    if not designs:
        return {}
    families = by_family(designs).values()
    typical = [median([d.scaled_s if scaled else d.latency_s for d in members])
               for members in families]
    set_s = sum(typical)
    return {
        "conn_per_s": ratio(sum(median([d.connections for d in members]) for members in families),
                            set_s),
        "rps": ratio(len(typical), set_s),
        "p50_ms": 1000.0 * set_s,
        # Far fewer than 1000 designs, so no p99 exists: the tail is the
        # slowest family's median design.
        "p99_ms": 1000.0 * max(typical),
        # Every design is computed from scratch: all requests are misses.
        "miss_p50_ms": 1000.0 * set_s,
        "area_um2": sum(ratio(sum(d.area_um2 for d in members), len(members))
                        for members in families),
        "delay_ns": ratio(sum(d.delay_ns for d in designs), len(designs)),
        "clustered_ratio": ratio(sum(d.clustered for d in designs),
                                 sum(d.connections for d in designs)),
    }


def per_layer(traced: PassResult, untraced: PassResult, clock: LayerClock,
              recorder, generate_s: float) -> Dict[str, float]:
    """Layer metrics of the traced pass.

    Busy times come from :class:`LayerClock`; counts from the counters
    the program records under the installed recorder.  Shares
    are of the traced pass's wall time.
    """
    from measure import ratio
    from repro.physical.routing.kernel import resolve_kernel

    counters = recorder.snapshot().counters

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    wall = traced.wall_s
    busy = clock.busy
    designs = traced.designs
    return {
        "networks.generate_s": generate_s,
        "clustering.busy_s": busy["clustering"],
        "clustering.share": ratio(busy["clustering"], wall),
        "clustering.isc_iterations": count("isc.iterations"),
        "clustering.outlier_ratio": ratio(sum(d.connections - d.clustered for d in designs),
                                          sum(d.connections for d in designs)),
        "mapping.busy_s": busy["mapping"],
        "mapping.netlist_cells": float(sum(d.cells for d in designs)),
        "mapping.wires": float(sum(d.wires for d in designs)),
        "placement.busy_s": busy["placement"],
        "placement.share": ratio(busy["placement"], wall),
        "placement.gradient_steps": count("placement.gradient_steps"),
        "placement.wa_evals": count("placement.wa_evals"),
        "placement.density_evals": count("placement.density_evals"),
        "routing.busy_s": busy["routing"],
        "routing.share": ratio(busy["routing"], wall),
        "routing.heap_pops": count("routing.heap_pops"),
        "routing.visited_bins": count("routing.visited_bins"),
        "routing.maze_searches": count("routing.maze_searches"),
        "routing.first_pass_failures": count("routing.first_pass_failures"),
        "routing.useful_search_ratio": ratio(count("routing.wires_routed"),
                                             count("routing.maze_searches")),
        "routing.heuristic_hit_ratio": ratio(
            count("routing.heuristic_hits"),
            count("routing.heuristic_hits") + count("routing.heuristic_builds")),
        "routing.compiled_kernel": 1.0 if resolve_kernel("auto") == "numba" else 0.0,
        "routing.wirelength_um": sum(d.wirelength_um for d in designs),
        "cost.busy_s": busy["cost"],
        "verify.busy_s": busy["verify"],
        "observability.trace_overhead": ratio(traced.scaled_wall_s, untraced.scaled_wall_s) - 1.0,
    }
