"""The placement objective against its reference formulas, bit for bit.

The objective caches the pair set, scatters with ``np.bincount`` and
computes gradients only at the points the line search accepts.  None of
that may move a single bit: values and gradients equal the reference
formulas of :mod:`tests.physical.placement_oracle`, and conjugate
gradient follows the same trajectory as with a line search that takes
the gradient at every trial point.
"""

import numpy as np
import pytest

import repro.physical.placement.density as density_module
import repro.physical.placement.optimizer as optimizer_module
from repro.observability import recording
from repro.physical.placement.density import density_value_and_grad, true_overlap
from repro.physical.placement.objective import PlacementObjective
from repro.physical.placement.optimizer import conjugate_gradient
from repro.physical.placement.wirelength import wa_wirelength, wa_wirelength_and_grad
from tests.physical import placement_oracle as oracle


def _design(n, wires, spread, seed):
    """Random cells and 2-pin wires; cells 1 and 2 share cell 0's centre."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(1.0, 6.0, n)
    heights = rng.uniform(1.0, 6.0, n)
    x = rng.uniform(0.0, spread, n)
    y = rng.uniform(0.0, spread, n)
    x[1:3] = x[0]
    y[1:3] = y[0]
    sources = rng.integers(0, n, wires)
    targets = (sources + rng.integers(1, n, wires)) % n
    weights = rng.uniform(0.5, 3.0, wires)
    return x, y, widths, heights, sources, targets, weights


def _objective(design, gamma=1.5, tau=0.8):
    _, _, widths, heights, sources, targets, weights = design
    return PlacementObjective(sources, targets, weights, widths, heights, gamma, tau)


def _assert_matches_oracle(design, binned, gamma=1.5, tau=0.8):
    x, y, widths, heights, sources, targets, weights = design
    objective = _objective(design, gamma, tau)
    z = objective.pack(x, y)
    for lam in (0.0, 2.75):
        objective.lam = lam
        expected, expected_grad = oracle.objective(
            x, y, sources, targets, weights, widths, heights, gamma, tau, lam, binned
        )
        value, grad = objective.value_and_grad(z)
        assert value == expected
        assert np.array_equal(grad, expected_grad)
        assert objective.value(z) == expected
        assert np.array_equal(objective.gradient(z), expected_grad)

    d, dgx, dgy = oracle.density(x, y, widths, heights, tau, binned)
    value, grad = objective.density_and_grad(z)
    assert value == d
    assert np.array_equal(grad, np.concatenate([dgx, dgy]))
    value, gx, gy = density_value_and_grad(x, y, widths, heights, tau)
    assert value == d
    assert np.array_equal(gx, dgx) and np.array_equal(gy, dgy)

    wl, wgx, wgy = oracle.wirelength(x, y, sources, targets, weights, gamma)
    value, grad = objective.wirelength_and_grad(z)
    assert value == wl
    assert np.array_equal(grad, np.concatenate([wgx, wgy]))
    value, gx, gy = wa_wirelength_and_grad(x, y, sources, targets, weights, gamma)
    assert value == wl
    assert np.array_equal(gx, wgx) and np.array_equal(gy, wgy)
    assert wa_wirelength(x, y, sources, targets, weights, gamma) == wl

    expected_overlap = oracle.overlap(x, y, widths, heights, binned)
    assert objective.overlap(z) == expected_overlap
    assert true_overlap(x, y, widths, heights) == expected_overlap


class TestOracle:
    def test_cached_pairs(self):
        design = _design(n=70, wires=120, spread=40.0, seed=1)
        assert _objective(design)._pairs is not None
        _assert_matches_oracle(design, binned=False)

    def test_binned_pairs(self, monkeypatch):
        design = _design(n=150, wires=260, spread=80.0, seed=2)
        monkeypatch.setattr(density_module, "PAIRWISE_LIMIT", 1)
        assert _objective(design)._pairs is None
        _assert_matches_oracle(design, binned=True)

    def test_tiny_designs(self):
        for n in (0, 1, 2):
            x, y = np.zeros(n), np.zeros(n)
            dims = np.full(n, 2.0)
            empty = np.zeros(0, dtype=int)
            objective = PlacementObjective(empty, empty, np.zeros(0), dims, dims, 1.0, 0.5)
            objective.lam = 1.5
            z = objective.pack(x, y)
            expected, expected_grad = oracle.objective(
                x, y, empty, empty, np.zeros(0), dims, dims, 1.0, 0.5, 1.5
            )
            value, grad = objective.value_and_grad(z)
            assert value == expected
            assert grad.dtype == expected_grad.dtype == float
            assert np.array_equal(grad, expected_grad)
            assert objective.overlap(z) == oracle.overlap(x, y, dims, dims)
            _, gx, _ = density_value_and_grad(x, y, dims, dims, 0.5)
            assert gx.dtype == float and np.array_equal(gx, np.zeros(n))


# ----------------------------------------------------------------------
# CG trajectory: lazy line search vs. the eager one it replaced
# ----------------------------------------------------------------------
def _eager_armijo_line_search(objective, z, value, grad, direction, initial_step,
                              c1=1e-4, shrink=0.5, max_backtracks=30):
    """The line search as it was: value and gradient at every trial point."""
    slope = float(grad @ direction)
    if slope >= 0.0:
        return z, value, grad, 0.0
    step = initial_step
    candidate = z + step * direction
    cand_value, cand_grad = objective.value_and_grad(candidate)
    if np.isfinite(cand_value) and cand_value <= value + c1 * step * slope:
        best = (candidate, cand_value, cand_grad, step)
        for _ in range(10):
            step *= 2.0
            candidate = z + step * direction
            cand_value, cand_grad = objective.value_and_grad(candidate)
            if np.isfinite(cand_value) and cand_value < best[1] + c1 * (
                step - best[3]
            ) * slope:
                best = (candidate, cand_value, cand_grad, step)
            else:
                break
        return best
    for _ in range(max_backtracks):
        step *= shrink
        candidate = z + step * direction
        cand_value, cand_grad = objective.value_and_grad(candidate)
        if np.isfinite(cand_value) and cand_value <= value + c1 * step * slope:
            return candidate, cand_value, cand_grad, step
    return z, value, grad, 0.0


@pytest.fixture(scope="module")
def tb1_problem():
    """The tb1 netlist's objective inputs and its connectivity seed."""
    from repro.core.autoncs import AutoNCS
    from repro.experiments.testbenches import build_testbench, scaled_testbench
    from repro.mapping.autoncs_mapping import autoncs_mapping
    from repro.physical.placement.seed import connectivity_seed

    flow = AutoNCS()
    instance = build_testbench(scaled_testbench(1, 32), rng=3)
    isc = flow.cluster(instance.network, rng=np.random.default_rng(3))
    netlist = autoncs_mapping(isc, library=flow.library).netlist
    omega = flow.config.technology.routing_space_factor
    widths = netlist.widths() * omega
    heights = netlist.heights() * omega
    sources, targets, weights = netlist.wire_endpoints()
    x, y = connectivity_seed(netlist, widths, heights, rng=3)
    side = float(np.sqrt(np.sum(widths * heights) * 1.8))
    args = (sources, targets, weights, widths, heights,
            max(0.01 * side, 0.5), max(0.005 * side, 0.25))
    return args, np.concatenate([x, y])


@pytest.mark.parametrize("lam_factor", [0.0, 4.0])
def test_cg_trajectory_matches_eager_line_search(tb1_problem, lam_factor, monkeypatch):
    args, z0 = tb1_problem
    runs = []
    for search in (optimizer_module._armijo_line_search, _eager_armijo_line_search):
        monkeypatch.setattr(optimizer_module, "_armijo_line_search", search)
        objective = PlacementObjective(*args)
        objective.lam = lam_factor * objective.initial_lambda(z0)
        runs.append((conjugate_gradient(objective, z0, max_iterations=30), objective))
    (lazy, lazy_objective), (eager, eager_objective) = runs
    assert lazy.z.tobytes() == eager.z.tobytes()
    assert lazy.value == eager.value
    assert lazy.iterations == eager.iterations
    assert lazy.converged == eager.converged
    assert lazy_objective.wa_evals == eager_objective.wa_evals
    assert lazy_objective.density_evals == eager_objective.density_evals
    # initial_lambda evaluates D once; CG adds to that only when λ > 0.
    assert (lazy_objective.density_evals > 1) == (lam_factor > 0)
    # The saving: one gradient per accepted step instead of one per trial.
    assert lazy_objective.gradient_evals < eager_objective.gradient_evals


def test_placer_counts_match_eager_line_search(monkeypatch):
    """Through place(): same layout and point counts, fewer gradients."""
    from repro.hardware.library import CrossbarLibrary
    from repro.mapping.netlist import CrossbarInstance, build_netlist
    from repro.physical.placement.placer import PlacementConfig, place

    instances = [
        CrossbarInstance(rows=(0, 1, 2), cols=(0, 1, 2), size=16,
                         connections=((0, 1), (1, 2))),
        CrossbarInstance(rows=(3, 4), cols=(3, 4), size=16, connections=((3, 4),)),
    ]
    netlist = build_netlist(6, instances, [(2, 3), (5, 0)], CrossbarLibrary())

    config = PlacementConfig(max_lambda_stages=3, cg_iterations_per_stage=10)
    runs = []
    for search in (optimizer_module._armijo_line_search, _eager_armijo_line_search):
        monkeypatch.setattr(optimizer_module, "_armijo_line_search", search)
        with recording() as recorder:
            placement = place(netlist, config=config, rng=0)
        runs.append((placement, recorder.snapshot()))
    (lazy, lazy_counts), (eager, eager_counts) = runs
    assert lazy.x.tobytes() == eager.x.tobytes()
    assert lazy.y.tobytes() == eager.y.tobytes()
    for name in ("placement.wa_evals", "placement.density_evals",
                 "placement.gradient_steps"):
        assert lazy_counts.get(name) == eager_counts.get(name)
    assert lazy_counts.get("placement.gradient_evals") < eager_counts.get(
        "placement.gradient_evals"
    )
