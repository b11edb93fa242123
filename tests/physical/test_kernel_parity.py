"""Differential parity suite: compiled routing kernel vs the python reference.

The contract (DESIGN.md "Routing kernel parity"): the kernel must produce
**bit-identical** paths, edge usage, counters and wirelength on every
input.  These tests enforce it three ways:

* the paper testbenches tb1–tb3, clustered, mapped and placed by the
  regular flow stages, routed with both algorithms;
* hypothesis property tests over random grids, capacities, preloaded
  usage ("obstruction maps") and wire lists at the batch-kernel level;
* the same checks against the *compiled* kernel when Numba is installed
  (skipped cleanly otherwise), plus the compiled kernel's speed floor:
  at least ``SPEEDUP_FLOOR`` times faster than the python reference.

Where Numba is absent the suite drives the uncompiled kernel through
:func:`~repro.physical.routing.kernel.interpreted_kernel` — the factory
builds both variants from the same source, so the interpreted run
exercises exactly the code the jit compiles.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import Recorder, recording
from repro.physical.routing.grid import RoutingGrid
from repro.physical.routing.kernel import (
    NUMBA_AVAILABLE,
    KernelUnavailableError,
    interpreted_kernel,
    kernel_available,
    resolve_kernel,
    route_wires_kernel,
)
from repro.physical.routing.maze import MazeWorkspace, maze_route
from repro.physical.routing.router import RoutingConfig, route

#: Counters that legitimately differ between engines (batch bookkeeping;
#: the python path memoizes heuristics the kernel computes inline).
ENGINE_SPECIFIC = {
    "routing.kernel_batches",
    "routing.kernel_wires",
    "routing.heuristic_builds",
    "routing.heuristic_hits",
}


#: Minimum same-run speedup of the compiled kernel over the python
#: reference on the dimension-64 testbenches (the reason the kernel exists).
SPEEDUP_FLOOR = 5.0


def _placed_testbench(index, dimension=16, seed=42):
    """Cluster, map and place one scaled testbench."""
    from repro.core.autoncs import AutoNCS
    from repro.experiments.testbenches import build_testbench, scaled_testbench
    from repro.mapping.autoncs_mapping import autoncs_mapping
    from repro.physical.placement.placer import place

    flow = AutoNCS()
    instance = build_testbench(scaled_testbench(index, dimension), rng=seed)
    isc = flow.cluster(instance.network, rng=np.random.default_rng(seed))
    mapping = autoncs_mapping(isc, library=flow.library)
    placement = place(
        mapping.netlist,
        technology=flow.config.technology,
        rng=np.random.default_rng(seed),
    )
    return mapping.netlist, placement, flow.config.technology


@pytest.fixture(scope="module", params=(1, 2, 3))
def testbench_case(request):
    return _placed_testbench(request.param)


def _route_recorded(netlist, placement, technology, config):
    recorder = Recorder()
    with recording(recorder):
        result = route(netlist, placement, technology=technology, config=config)
    counters = {
        name: value
        for name, value in recorder.snapshot().counters.items()
        if name.startswith("routing.") and name not in ENGINE_SPECIFIC
    }
    return result, counters


def assert_bit_identical(ref, ker, ref_counters=None, ker_counters=None):
    """Paths, lengths, overflow flags, usage and stats must match exactly."""
    assert len(ref.wires) == len(ker.wires)
    for a, b in zip(ref.wires, ker.wires):
        assert a.wire_index == b.wire_index
        assert a.path == b.path
        assert a.length_um == b.length_um  # bitwise: no approx
        assert a.overflowed == b.overflowed
    assert np.array_equal(ref.grid.horizontal_usage, ker.grid.horizontal_usage)
    assert np.array_equal(ref.grid.vertical_usage, ker.grid.vertical_usage)
    assert ref.total_wirelength_um == ker.total_wirelength_um
    assert ref.overflow_wires == ker.overflow_wires
    assert ref.relax_rounds == ker.relax_rounds
    assert ref.ripup_iterations == ker.ripup_iterations
    assert ref.ripups == ker.ripups
    if ref_counters is not None:
        assert ref_counters == ker_counters


class TestTestbenchParity:
    """tb1–tb3 through the full driver, both algorithms, both engines."""

    @pytest.mark.parametrize("algorithm", ("ordered", "negotiated"))
    def test_interpreted_kernel_matches_reference(self, testbench_case, algorithm):
        netlist, placement, technology = testbench_case
        ref, ref_counters = _route_recorded(
            netlist, placement, technology,
            RoutingConfig(algorithm=algorithm, kernel="python"),
        )
        with interpreted_kernel():
            ker, ker_counters = _route_recorded(
                netlist, placement, technology,
                RoutingConfig(algorithm=algorithm, kernel="numba"),
            )
        assert_bit_identical(ref, ker, ref_counters, ker_counters)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    @pytest.mark.parametrize("algorithm", ("ordered", "negotiated"))
    def test_compiled_kernel_matches_reference(self, testbench_case, algorithm):
        netlist, placement, technology = testbench_case
        ref, ref_counters = _route_recorded(
            netlist, placement, technology,
            RoutingConfig(algorithm=algorithm, kernel="python"),
        )
        ker, ker_counters = _route_recorded(
            netlist, placement, technology,
            RoutingConfig(algorithm=algorithm, kernel="numba"),
        )
        assert_bit_identical(ref, ker, ref_counters, ker_counters)

    @pytest.mark.parametrize("algorithm", ("ordered", "negotiated"))
    def test_congested_parity(self, testbench_case, algorithm):
        # capacity 1 forces relax rounds / rip-up iterations / the
        # overflow pass — the paths where batching could drift.
        netlist, placement, technology = testbench_case
        config = dict(
            algorithm=algorithm, capacity_per_bin=1, congestion_weight=4.0
        )
        ref, ref_counters = _route_recorded(
            netlist, placement, technology,
            RoutingConfig(kernel="python", **config),
        )
        with interpreted_kernel():
            ker, ker_counters = _route_recorded(
                netlist, placement, technology,
                RoutingConfig(kernel="numba", **config),
            )
        assert_bit_identical(ref, ker, ref_counters, ker_counters)


def _warm_compiled_kernel():
    """Trigger JIT compilation of both kernel variants on a tiny grid."""
    grid = RoutingGrid(
        origin=(0.0, 0.0), width=30.0, height=30.0, bin_um=10.0, capacity=2
    )
    workspace = MazeWorkspace(grid)
    route_wires_kernel(
        grid, workspace, [((0, 0), (2, 2))],
        window_margin=2, congestion_weight=2.0,
    )
    route_wires_kernel(
        grid, workspace, [((2, 2), (0, 0))],
        window_margin=2, congestion_weight=2.0, present_weight=0.5,
    )


@pytest.fixture(scope="module", params=(1, 2, 3))
def speed_case(request):
    return _placed_testbench(request.param, dimension=64)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
@pytest.mark.parametrize("algorithm", ("ordered", "negotiated"))
def test_compiled_kernel_speedup_floor(speed_case, algorithm):
    # Same-run wall-time ratio (both engines on this host, seconds
    # apart), with JIT compilation kept out of the timed region.
    netlist, placement, technology = speed_case
    _warm_compiled_kernel()
    seconds = {}
    for kernel in ("python", "numba"):
        start = time.perf_counter()
        _route_recorded(
            netlist, placement, technology,
            RoutingConfig(algorithm=algorithm, kernel=kernel),
        )
        seconds[kernel] = time.perf_counter() - start
    speedup = seconds["python"] / max(seconds["numba"], 1e-12)
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled kernel only {speedup:.2f}x faster than python "
        f"({seconds['python']:.3f}s vs {seconds['numba']:.3f}s)"
    )


# ----------------------------------------------------------------------
# Batch-kernel level property tests (random grids/capacities/obstructions)
# ----------------------------------------------------------------------
@st.composite
def routing_scenarios(draw):
    """One random routing scenario: grid, preloaded usage, wire list."""
    nx = draw(st.integers(min_value=2, max_value=9))
    ny = draw(st.integers(min_value=1, max_value=9))
    capacity = draw(st.integers(min_value=1, max_value=3))
    bin_um = draw(st.sampled_from((2.0, 5.0, 10.0)))
    grid = RoutingGrid(
        origin=(0.0, 0.0),
        width=nx * bin_um,
        height=ny * bin_um,
        bin_um=bin_um,
        capacity=capacity,
    )
    # Obstruction map: preload random edges up to (or past) capacity so
    # blocked/congested branches are exercised.
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    grid.horizontal_usage += rng.integers(
        0, capacity + 1, size=grid.horizontal_usage.shape
    )
    grid.vertical_usage += rng.integers(
        0, capacity + 1, size=grid.vertical_usage.shape
    )
    n_wires = draw(st.integers(min_value=1, max_value=8))
    pairs = []
    for _ in range(n_wires):
        s = (int(rng.integers(0, grid.nx)), int(rng.integers(0, grid.ny)))
        g = (int(rng.integers(0, grid.nx)), int(rng.integers(0, grid.ny)))
        if s != g:
            pairs.append((s, g))
    window = draw(st.integers(min_value=0, max_value=4))
    return grid, pairs, window


def _reference_batch(grid, workspace, pairs, *, window, allow_overflow=False,
                     present_weight=None):
    """The per-wire reference loop route_wires_kernel must reproduce.

    Returns ``(paths, overflow_flags)`` — the flag is the driver's
    after-commit :func:`_path_overflows` check, evaluated per wire right
    after its own commit (later wires never flip earlier flags).
    """
    from repro.physical.routing.router import _path_overflows

    paths = []
    flags = []
    for s, g in pairs:
        path = maze_route(
            grid, s, g,
            window_margin=window,
            congestion_weight=2.0,
            allow_overflow=allow_overflow,
            workspace=workspace,
            present_weight=present_weight,
        )
        if path is not None:
            grid.add_usage(path)
            flags.append(_path_overflows(grid, path))
        else:
            flags.append(False)
        paths.append(path)
    return paths, flags


def _clone(grid):
    twin = RoutingGrid(
        origin=grid.origin,
        width=grid.nx * grid.bin_um,
        height=grid.ny * grid.bin_um,
        bin_um=grid.bin_um,
        capacity=grid.base_capacity,
    )
    twin.horizontal_usage[:] = grid.horizontal_usage
    twin.vertical_usage[:] = grid.vertical_usage
    twin.horizontal_capacity[:] = grid.horizontal_capacity
    twin.vertical_capacity[:] = grid.vertical_capacity
    return twin


COUNTER_FIELDS = ("heap_pushes", "heap_pops", "visited_bins", "searches", "epoch")


class TestPropertyParity:
    @settings(max_examples=60, deadline=None)
    @given(case=routing_scenarios())
    def test_ordered_batch_parity(self, case):
        grid_ref, pairs, window = case
        grid_ker = _clone(grid_ref)
        ws_ref = MazeWorkspace(grid_ref)
        ws_ker = MazeWorkspace(grid_ker)
        ref_paths, _ = _reference_batch(grid_ref, ws_ref, pairs, window=window)
        with interpreted_kernel():
            ker_paths, statuses = route_wires_kernel(
                grid_ker, ws_ker, pairs,
                window_margin=window, congestion_weight=2.0,
            )
        assert ref_paths == ker_paths
        assert np.array_equal(grid_ref.horizontal_usage, grid_ker.horizontal_usage)
        assert np.array_equal(grid_ref.vertical_usage, grid_ker.vertical_usage)
        for field in COUNTER_FIELDS:
            assert getattr(ws_ref, field) == getattr(ws_ker, field), field
        for path, status in zip(ker_paths, statuses):
            assert (path is None) == (status == 0)

    @settings(max_examples=60, deadline=None)
    @given(case=routing_scenarios())
    def test_negotiated_batch_parity(self, case):
        grid_ref, pairs, window = case
        grid_ker = _clone(grid_ref)
        ws_ref = MazeWorkspace(grid_ref)
        ws_ker = MazeWorkspace(grid_ker)
        # Seed identical random history costs on both workspaces.
        h_ref, v_ref = ws_ref.ensure_history()
        h_ker, v_ker = ws_ker.ensure_history()
        rng = np.random.default_rng(1234)
        h_ref += rng.random(h_ref.shape)
        v_ref += rng.random(v_ref.shape)
        h_ker[:] = h_ref
        v_ker[:] = v_ref
        ref_paths, _ = _reference_batch(
            grid_ref, ws_ref, pairs, window=window, present_weight=0.7
        )
        with interpreted_kernel():
            ker_paths, _ = route_wires_kernel(
                grid_ker, ws_ker, pairs,
                window_margin=window, congestion_weight=2.0,
                present_weight=0.7,
            )
        assert ref_paths == ker_paths
        # Negotiated mode never blocks: every wire routes.
        assert all(path is not None for path in ker_paths)
        assert np.array_equal(grid_ref.horizontal_usage, grid_ker.horizontal_usage)
        assert np.array_equal(grid_ref.vertical_usage, grid_ker.vertical_usage)
        for field in COUNTER_FIELDS:
            assert getattr(ws_ref, field) == getattr(ws_ker, field), field

    @settings(max_examples=40, deadline=None)
    @given(case=routing_scenarios())
    def test_overflow_batch_parity(self, case):
        grid_ref, pairs, window = case
        grid_ker = _clone(grid_ref)
        ws_ref = MazeWorkspace(grid_ref)
        ws_ker = MazeWorkspace(grid_ker)
        ref_paths, ref_flags = _reference_batch(
            grid_ref, ws_ref, pairs, window=window, allow_overflow=True
        )
        with interpreted_kernel():
            ker_paths, statuses = route_wires_kernel(
                grid_ker, ws_ker, pairs,
                window_margin=window, congestion_weight=2.0,
                allow_overflow=True, flag_overflow=True,
            )
        assert ref_paths == ker_paths
        assert np.array_equal(grid_ref.horizontal_usage, grid_ker.horizontal_usage)
        assert np.array_equal(grid_ref.vertical_usage, grid_ker.vertical_usage)
        # Overflow flags match the reference's after-commit check.
        for path, status, flag in zip(ker_paths, statuses, ref_flags):
            if path is None:
                assert status == 0
            else:
                assert (status == 2) == flag

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    @settings(max_examples=25, deadline=None)
    @given(case=routing_scenarios())
    def test_compiled_batch_parity(self, case):
        grid_ref, pairs, window = case
        grid_ker = _clone(grid_ref)
        ws_ref = MazeWorkspace(grid_ref)
        ws_ker = MazeWorkspace(grid_ker)
        ref_paths, _ = _reference_batch(grid_ref, ws_ref, pairs, window=window)
        ker_paths, _ = route_wires_kernel(
            grid_ker, ws_ker, pairs,
            window_margin=window, congestion_weight=2.0,
        )
        assert ref_paths == ker_paths
        assert np.array_equal(grid_ref.horizontal_usage, grid_ker.horizontal_usage)
        assert np.array_equal(grid_ref.vertical_usage, grid_ker.vertical_usage)
        for field in COUNTER_FIELDS:
            assert getattr(ws_ref, field) == getattr(ws_ker, field), field


class TestDispatch:
    """kernel selection / fallback semantics."""

    def test_resolve_auto_prefers_kernel_when_available(self):
        with interpreted_kernel():
            assert resolve_kernel("auto") == "numba"

    def test_resolve_auto_falls_back_without_numba(self):
        if NUMBA_AVAILABLE:
            pytest.skip("fallback path requires numba to be absent")
        assert resolve_kernel("auto") == "python"

    def test_explicit_numba_without_numba_raises(self):
        if kernel_available():
            pytest.skip("requires numba to be absent")
        with pytest.raises(KernelUnavailableError):
            resolve_kernel("numba")

    def test_invalid_choice_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel("fortran")
        with pytest.raises(ValueError, match="kernel"):
            RoutingConfig(kernel="fortran")

    def test_env_var_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROUTING_KERNEL", "python")
        assert RoutingConfig().kernel == "python"
        monkeypatch.delenv("REPRO_ROUTING_KERNEL")
        assert RoutingConfig().kernel == "auto"

    def test_maze_route_kernel_leaves_grid_untouched(self):
        # maze_route's contract: the caller commits usage.  The kernel
        # commits internally, so the dispatch must roll it back.
        grid = RoutingGrid(origin=(0.0, 0.0), width=40.0, height=40.0,
                           bin_um=4.0, capacity=2)
        ws = MazeWorkspace(grid)
        with interpreted_kernel():
            path = maze_route(grid, (0, 0), (5, 5), workspace=ws, kernel="numba")
        assert path is not None
        assert grid.horizontal_usage.sum() == 0
        assert grid.vertical_usage.sum() == 0
        reference = maze_route(grid, (0, 0), (5, 5), workspace=ws)
        assert path == reference
