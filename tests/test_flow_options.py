"""Tests for :class:`repro.FlowOptions`, ``repro.load_network`` and the
legacy per-call keyword shims on the facade functions."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import FlowOptions
from repro.core.config import AutoNcsConfig, fast_config
from repro.networks import random_sparse_network
from repro.networks.io import save_network_edgelist, save_network_npz


@pytest.fixture(scope="module")
def network():
    return random_sparse_network(40, 0.1, rng=7, name="opts-net")


class TestFlowOptions:
    def test_defaults(self):
        options = FlowOptions()
        assert options.config is None
        assert options.seed is None
        assert options.n_jobs == 1
        assert isinstance(options.resolved_config(), AutoNcsConfig)

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            FlowOptions(n_jobs=0)

    def test_checks_normalized_to_tuple(self):
        options = FlowOptions(checks=["coverage", "hardware"])
        assert options.checks == ("coverage", "hardware")

    def test_cache_key_stable_and_seed_sensitive(self):
        assert FlowOptions(seed=1).cache_key() == FlowOptions(seed=1).cache_key()
        assert FlowOptions(seed=1).cache_key() != FlowOptions(seed=2).cache_key()

    def test_cache_key_covers_result_determining_fields(self):
        base = FlowOptions(seed=1)
        assert FlowOptions(seed=1, verify=True).cache_key() != base.cache_key()
        assert FlowOptions(seed=1, baseline=True).cache_key() != base.cache_key()
        assert (
            FlowOptions(seed=1, checks=("coverage",)).cache_key()
            != base.cache_key()
        )
        assert (
            FlowOptions(seed=1, config=fast_config()).cache_key()
            != base.cache_key()
        )

    def test_cache_key_ignores_execution_strategy(self):
        base = FlowOptions(seed=1)
        assert FlowOptions(seed=1, n_jobs=4).cache_key() == base.cache_key()
        assert FlowOptions(seed=1, label="x").cache_key() == base.cache_key()


class TestOptionsParameter:
    def test_map_network_options_equals_legacy_kwargs(self, network):
        via_options = repro.map_network(
            network, options=FlowOptions(config=fast_config(), seed=3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            via_legacy = repro.map_network(network, config=fast_config(), seed=3)
        assert via_options.design.summary() == via_legacy.design.summary()

    def test_legacy_kwargs_warn(self, network):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.map_network(network, config=fast_config(), seed=3)
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations
        assert any("FlowOptions" in str(w.message) for w in deprecations)

    def test_legacy_kwargs_override_options(self, network):
        # Matching pre-1.7 behaviour: an explicit kwarg wins over options.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            report_a = repro.compare(
                network, options=FlowOptions(config=fast_config(), seed=1), seed=9
            )
            report_b = repro.compare(
                network, options=FlowOptions(config=fast_config(), seed=9)
            )
        assert report_a.rows() == report_b.rows()

    def test_unknown_kwarg_rejected(self, network):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.map_network(network, nonsense=1)

    def test_verify_options_checks(self, network):
        report = repro.verify(
            network,
            options=FlowOptions(
                config=fast_config(), seed=3, checks=("coverage", "hardware")
            ),
        )
        assert report.passed
        assert {c.name for c in report.checks if c.status != "skip"} <= {
            "coverage",
            "hardware",
        }


class TestLoadNetwork:
    def test_npz_round_trip(self, network, tmp_path):
        path = tmp_path / "net.npz"
        save_network_npz(network, path)
        loaded = repro.load_network(path)
        assert loaded.digest() == network.digest()

    def test_npz_round_trip_sparse_backend(self, tmp_path):
        sparse_net = random_sparse_network(40, 0.1, rng=7)
        path = tmp_path / "sparse.npz"
        save_network_npz(sparse_net, path)
        loaded = repro.load_network(path)
        assert loaded.digest() == sparse_net.digest()

    def test_edgelist_round_trip(self, network, tmp_path):
        path = tmp_path / "net.edges"
        save_network_edgelist(network, path)
        loaded = repro.load_network(path)
        assert loaded.digest() == network.digest()

    def test_name_override(self, network, tmp_path):
        path = tmp_path / "net.npz"
        save_network_npz(network, path)
        assert repro.load_network(path, name="renamed").name == "renamed"
