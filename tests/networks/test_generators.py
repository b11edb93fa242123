"""Tests for the synthetic network generators."""

import numpy as np
import pytest

from repro.networks import (
    block_diagonal_network,
    distance_decay_network,
    random_sparse_network,
    scale_free_network,
)


class TestRandomSparse:
    def test_density_approximate(self):
        net = random_sparse_network(200, 0.1, rng=0)
        assert 0.05 < net.density < 0.2

    def test_zero_diagonal(self):
        net = random_sparse_network(50, 0.5, rng=0)
        assert np.all(np.diag(net.matrix) == 0)

    def test_symmetric_by_default(self):
        assert random_sparse_network(40, 0.2, rng=1).is_symmetric()

    def test_asymmetric_option(self):
        net = random_sparse_network(60, 0.3, symmetric=False, rng=1)
        assert not net.is_symmetric()

    def test_reproducible(self):
        assert random_sparse_network(30, 0.2, rng=5) == random_sparse_network(30, 0.2, rng=5)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_sparse_network(10, 1.5)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_sparse_network(0, 0.5)

    # Digests of random_sparse_network(n, density, symmetric, rng=3) from
    # the historical dense sampler.  Golden fixtures and the service's
    # dedup keys depend on them, so they must never move.
    @pytest.mark.parametrize(
        "n,density,symmetric,digest",
        [
            (2, 0.3, True, "a34203612ee04f2aaffc7bd3fca8cbaf8c1366bdd02e06a68b3a6f31c166b4b2"),
            (2, 0.3, False, "821e4ae05820be4669f6a86c76c3be47c8531abf8264ddcd0bec8a6492cc4957"),
            (17, 0.05, True, "3f5d0abd50a6a29d35a01fd6c05fe37f8c66c6a7d081ecd1e0809542a0a934b0"),
            (17, 0.3, False, "c2731ef5bb55a4e080952faeeddde269c9f93caeda7f662480433839059e9f4b"),
            (60, 0.05, True, "ec26dc2ee2312c744f9d96422aa94d27af1684643009a533c7d77e9cc9b42273"),
            (60, 0.3, True, "d9de6e0df633e345b796a7f5afba6fb783e1e68c2344b8b0467d96c5eca581fe"),
            (60, 0.05, False, "624355cc9d8f7d4ab1d543e959ecec7d1df46d2067464ac7c94efa2a787ddaef"),
            (60, 0.3, False, "59225e5a52d398724679cae5f6b3d1ef4d70e78c25572fdc77719e2f5a4ddba9"),
            (150, 0.05, True, "827fb39bb3695c00b3d80a127f8a8a807190c689d353fd41877300aeb86ef1e0"),
            (150, 0.3, False, "af2b530fa0b32be0d9a9897590d00771ff98fdf29854b977b097a6c2d28b6356"),
            (1100, 0.05, True, "a5488945e3d4ff127fc7a8c0431ad77e1699ebbe65da5918f66af6ba4289f3df"),
            (1100, 0.05, False, "27ad668cce77e7ae065de7a513b733ed7fd47e6bc42c7be8b9a9a4642de50093"),
        ],
    )
    def test_digest_pinned(self, n, density, symmetric, digest):
        net = random_sparse_network(n, density, symmetric=symmetric, rng=3)
        assert net.digest() == digest

    def test_large_symmetric_reciprocal_edges_collapse(self):
        # Reciprocal draws i→j and j→i both add (i, j); they count once.
        net = random_sparse_network(4096, 0.0005, rng=1)
        assert net.is_symmetric()
        assert net.num_connections == int(net.out_degrees().sum())
        assert net.num_connections % 2 == 0


class TestBlockDiagonal:
    def test_size_is_sum(self):
        net = block_diagonal_network([10, 20, 30], rng=0)
        assert net.size == 60

    def test_blocks_denser_than_background(self):
        net = block_diagonal_network([25, 25], within_density=0.8,
                                     between_density=0.02, rng=0)
        block = net.submatrix(range(25))
        off = net.submatrix(range(25), range(25, 50))
        assert block.mean() > 5 * off.mean()

    def test_symmetric(self):
        assert block_diagonal_network([10, 15], rng=3).is_symmetric()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            block_diagonal_network([])

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            block_diagonal_network([10, 0])


class TestDistanceDecay:
    def test_local_denser_than_distant(self):
        net = distance_decay_network(100, scale=5.0, rng=0)
        m = net.matrix
        near = np.mean([m[i, i + 1] for i in range(99)])
        far = np.mean([m[i, (i + 50) % 100] for i in range(100)])
        assert near > far

    def test_symmetric(self):
        assert distance_decay_network(40, rng=1).is_symmetric()

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            distance_decay_network(20, scale=0)


class TestScaleFree:
    def test_size(self):
        assert scale_free_network(50, rng=0).size == 50

    def test_hub_exists(self):
        net = scale_free_network(100, attachment=2, rng=0)
        degrees = net.matrix.sum(axis=1)
        assert degrees.max() > 3 * degrees.mean()

    def test_symmetric(self):
        assert scale_free_network(30, rng=2).is_symmetric()

    def test_rejects_attachment_too_large(self):
        with pytest.raises(ValueError):
            scale_free_network(5, attachment=5)

    def test_reproducible(self):
        assert scale_free_network(30, rng=7) == scale_free_network(30, rng=7)
