"""CSR :class:`ConnectionMatrix` operations checked against plain numpy.

The matrix is stored as one canonical CSR array; every operation here is
re-derived independently with numpy on the dense ``to_dense()`` copy, the
oracle.  Property tests hold the two in agreement under random inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.networks import ConnectionMatrix


def _random_matrix(seed: int, n: int, density: float, symmetric: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n, n)) < density).astype(np.uint8)
    np.fill_diagonal(matrix, 0)
    if symmetric:
        matrix = np.maximum(matrix, matrix.T)
    return matrix


def _random_net(seed: int, n: int, density: float, symmetric: bool):
    """A random 0/1 matrix and the network built from it."""
    matrix = _random_matrix(seed, n, density, symmetric)
    net = ConnectionMatrix.from_dense(matrix, name="oracle")
    np.testing.assert_array_equal(net.to_dense(), matrix)
    return matrix, net


def _oracle_digest(matrix: np.ndarray) -> str:
    """The documented digest recipe, computed from numpy's edge list."""
    rows, cols = np.nonzero(matrix)
    h = hashlib.sha256()
    h.update(f"connection-matrix:{matrix.shape[0]}:{rows.size}:".encode("ascii"))
    h.update(rows.astype("<i8").tobytes())
    h.update(cols.astype("<i8").tobytes())
    return h.hexdigest()


common = given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 40),
    density=st.floats(0.0, 0.4),
    symmetric=st.booleans(),
)


@settings(max_examples=25, deadline=None)
@common
def test_digest_and_equality_backend_independent(seed, n, density, symmetric):
    matrix, net = _random_net(seed, n, density, symmetric)
    rows, cols = np.nonzero(matrix)
    builds = [
        net,
        ConnectionMatrix.from_sparse(sp.csr_array(matrix)),
        ConnectionMatrix.from_sparse(sp.coo_matrix(matrix)),
        ConnectionMatrix.from_edges(n, (rows, cols)),
    ]
    for built in builds:
        assert built.digest() == _oracle_digest(matrix)
        assert built == net
    flipped = matrix.copy()
    flipped[0, 1] ^= 1
    assert ConnectionMatrix.from_dense(flipped) != net
    assert ConnectionMatrix.from_dense(flipped).digest() != net.digest()
    assert net.num_connections == int(matrix.sum())
    assert np.isclose(net.density, matrix.sum() / float(n * n))
    assert net.is_symmetric() == bool(np.array_equal(matrix, matrix.T))


@settings(max_examples=25, deadline=None)
@common
def test_views_and_degrees_match(seed, n, density, symmetric):
    matrix, net = _random_net(seed, n, density, symmetric)
    np.testing.assert_array_equal(net.matrix, matrix)
    np.testing.assert_array_equal(net.to_sparse().toarray(), matrix)
    np.testing.assert_array_equal(net.out_degrees(), matrix.sum(axis=1))
    np.testing.assert_array_equal(net.in_degrees(), matrix.sum(axis=0))
    rows, cols = net.connection_arrays()
    o_rows, o_cols = np.nonzero(matrix)
    np.testing.assert_array_equal(rows, o_rows)
    np.testing.assert_array_equal(cols, o_cols)
    assert net.connection_list() == list(zip(o_rows.tolist(), o_cols.tolist()))


@settings(max_examples=25, deadline=None)
@common
def test_cluster_operations_match(seed, n, density, symmetric):
    matrix, net = _random_net(seed, n, density, symmetric)
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(n)
    members = np.sort(order[: max(1, n // 3)])
    second = order[max(1, n // 3) : max(1, n // 3) + max(1, n // 4)]
    rest = np.setdiff1d(np.arange(n), members)
    np.testing.assert_array_equal(net.submatrix(members), matrix[np.ix_(members, members)])
    np.testing.assert_array_equal(net.submatrix(members, rest), matrix[np.ix_(members, rest)])
    repeated = rng.integers(0, n, size=n)
    np.testing.assert_array_equal(
        net.submatrix(repeated, repeated[::-1]), matrix[np.ix_(repeated, repeated[::-1])]
    )
    assert net.connections_within(members) == int(matrix[np.ix_(members, members)].sum())
    clusters = [members.tolist(), second.tolist()] if second.size else [members.tolist()]
    np.testing.assert_array_equal(
        net.connections_within_many(clusters),
        [matrix[np.ix_(c, c)].sum() for c in clusters],
    )
    remaining = matrix.copy()
    for cluster in clusters:
        remaining[np.ix_(cluster, cluster)] = 0
    np.testing.assert_array_equal(net.remove_clusters(clusters).to_dense(), remaining)
    assert net.remove_clusters(clusters).digest() == _oracle_digest(remaining)
    assert net.outlier_count(clusters) == int(remaining.sum())


@settings(max_examples=25, deadline=None)
@common
def test_permuted_and_similarity_match(seed, n, density, symmetric):
    matrix, net = _random_net(seed, n, density, symmetric)
    order = np.random.default_rng(seed + 2).permutation(n)
    permuted = matrix[np.ix_(order, order)]
    np.testing.assert_array_equal(net.permuted(order).to_dense(), permuted)
    assert net.permuted(order).digest() == _oracle_digest(permuted)
    similarity = net.similarity()
    assert sp.issparse(similarity) and similarity.dtype == np.float64
    np.testing.assert_array_equal(
        similarity.toarray(), np.maximum(matrix, matrix.T).astype(float)
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_from_edges_matches_from_dense(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    matrix = _random_matrix(seed, n, 0.2, symmetric=False)
    rows, cols = np.nonzero(matrix)
    shuffle = rng.permutation(rows.size)
    via_dense = ConnectionMatrix.from_dense(matrix)
    via_arrays = ConnectionMatrix.from_edges(n, (rows[shuffle], cols[shuffle]))
    # Duplicate pairs collapse to a single connection.
    via_pairs = ConnectionMatrix.from_edges(n, list(zip(rows, cols)) * 2)
    assert via_dense.digest() == via_arrays.digest() == via_pairs.digest()
    assert via_pairs.num_connections == int(matrix.sum())
