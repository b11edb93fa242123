"""Large-scale clustering pipeline — a 50k-neuron scale-free network.

The sparse-first network core exists so the AutoNCS flow reaches sizes
the paper's dense ISC cannot: this bench generates a 50 000-neuron
Barabási–Albert network, runs the tiered clustering pass
(:func:`~repro.clustering.hierarchical.cluster_hierarchical`, chosen by
``AutoNCS.cluster`` above the hierarchical threshold), maps it and
verifies coverage and hardware legality independently.

It asserts the exact network size, a clean verification, and that the
clustering quality does not drift above the recorded reference
(``crossbars``, ``discrete_synapses`` and ``outlier_ratio`` at most
1.2× the values of the first sparse-core release).  Stage wall times
are recorded, not asserted.  The run takes about two minutes, so it is
not part of the tier-1 suite; run it with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_scale.py
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_result
from repro.core.autoncs import AutoNCS
from repro.mapping.autoncs_mapping import autoncs_mapping
from repro.networks import scale_free_network
from repro.verify.verifier import verify_mapping

NEURONS = 50_000
ATTACHMENT = 2  # Barabási–Albert edges per new neuron
SEED = 42

#: Clustering quality of the reference run (seed 42); a value may grow
#: by at most ``TOLERANCE`` before the check fails.
REFERENCE = {
    "crossbars": 4042,
    "discrete_synapses": 125106,
    "outlier_ratio": 0.625555022200888,
}
TOLERANCE = 1.2


def test_scale_free_50k_pipeline():
    flow = AutoNCS()
    seconds = {}

    start = time.perf_counter()
    network = scale_free_network(NEURONS, ATTACHMENT, rng=SEED)
    seconds["generate"] = time.perf_counter() - start
    assert network.size == 50_000
    assert network.num_connections == 199_992

    start = time.perf_counter()
    isc = flow.cluster(network, rng=np.random.default_rng(SEED))
    seconds["cluster"] = time.perf_counter() - start

    start = time.perf_counter()
    mapping = autoncs_mapping(isc, library=flow.library)
    seconds["map"] = time.perf_counter() - start

    start = time.perf_counter()
    report = verify_mapping(mapping, checks=("coverage", "hardware"))
    seconds["verify"] = time.perf_counter() - start

    statuses = {check.name: check.status for check in report.checks}
    assert statuses == {"coverage": "pass", "hardware": "pass"}
    assert report.violations == []

    quality = {
        "crossbars": len(isc.crossbars),
        "discrete_synapses": mapping.num_synapses,
        "outlier_ratio": isc.outlier_ratio,
    }
    for name, value in quality.items():
        limit = REFERENCE[name] * TOLERANCE
        assert value <= limit, f"{name} {value} exceeds {limit:g}"

    write_result(
        "scale_free_50k",
        "\n".join(
            [
                f"network: {network.size} neurons, "
                f"{network.num_connections} connections "
                f"(scale-free, m={ATTACHMENT}, seed {SEED})",
                f"tiers: {isc.metadata.get('tiers', 1)}  "
                f"cut ratio: {isc.metadata.get('cut_ratio', 0.0):.4f}",
                *(
                    f"{name:<18}: {value:g} (limit {REFERENCE[name] * TOLERANCE:g})"
                    for name, value in quality.items()
                ),
                "stage seconds: "
                + "  ".join(f"{k}={v:.1f}" for k, v in seconds.items()),
            ]
        ),
    )
