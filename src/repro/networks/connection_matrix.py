"""Binary connection matrices — the central data structure of AutoNCS.

The paper (Sec. 2.1) represents a neural network by a connection matrix
``W ∈ R^{n×n}`` whose entry ``w_ij`` is 1 when input neuron *i* connects to
output neuron *j* and 0 otherwise ("connection matrix" and "network" are used
interchangeably).  :class:`ConnectionMatrix` wraps such a matrix with the
operations the clustering flow needs:

* counting connections inside / outside a set of clusters,
* removing within-cluster connections (building the "remaining network" of
  ISC, Sec. 3.4),
* extracting submatrices for crossbar mapping,
* symmetrization for spectral clustering on directed topologies.

Storage
-------
The paper's networks are sparse by definition (tb1–tb3 are 93.6–94.5 %
sparse, Sec. 4.1), so the matrix is stored in exactly one format at every
size: a canonical ``uint8`` :class:`scipy.sparse.csr_array` (sorted
indices, no explicit zeros or duplicates).  Every operation is
O(connections) or works on a small cluster-sized window; nothing
materializes the dense ``n × n`` array except the explicit dense views
(:attr:`~ConnectionMatrix.matrix`, :meth:`~ConnectionMatrix.to_dense`).

Construction goes through the explicit classmethods
:meth:`~ConnectionMatrix.from_dense`, :meth:`~ConnectionMatrix.from_sparse`
and :meth:`~ConnectionMatrix.from_edges`, which all funnel into one
canonicalization routine; :meth:`~ConnectionMatrix.digest` hashes the
canonical edge list, so the three constructors of the same topology share
a digest (the runtime cache and the service dedup layer key on it).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse as sp

from repro.utils.deprecation import warn_deprecated
from repro.utils.validation import check_binary_matrix, check_square


def _canonical_csr(n: int, rows: np.ndarray, cols: np.ndarray) -> sp.csr_array:
    """The canonical ``uint8`` CSR matrix of the edges ``(rows, cols)``.

    Sorts and deduplicates through the row-major linear index
    ``rows * n + cols`` (duplicate edges collapse to a single 1) and
    builds ``indptr`` by counting each row's edges.
    """
    keys = np.sort(rows * n + cols)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows, cols = np.divmod(keys, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    matrix = sp.csr_array((np.ones(keys.size, dtype=np.uint8), cols, indptr), shape=(n, n))
    matrix.has_canonical_format = True
    return matrix


class ConnectionMatrix:
    """An immutable-by-convention binary ``n × n`` connection matrix.

    Use the explicit constructors :meth:`from_dense`, :meth:`from_sparse`
    or :meth:`from_edges`; the legacy raw-``ndarray`` ``__init__`` still
    works but emits a :class:`DeprecationWarning`.
    """

    # Constructed via classmethods; these annotations document the state.
    _sparse: sp.csr_array
    name: str

    def __init__(self, matrix: np.ndarray, name: str = "network") -> None:
        warn_deprecated(
            "ConnectionMatrix(matrix)",
            "ConnectionMatrix.from_dense / from_sparse / from_edges",
            stacklevel=2,
        )
        built = ConnectionMatrix.from_dense(matrix, name=name)
        self._sparse = built._sparse
        self.name = built.name

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _build(cls, sparse: sp.csr_array, name: str = "network") -> "ConnectionMatrix":
        """Internal trusted constructor around a canonical CSR matrix."""
        self = cls.__new__(cls)
        self._sparse = sparse
        self.name = str(name)
        return self

    @classmethod
    def from_dense(
        cls,
        matrix: Union[np.ndarray, Sequence[Sequence[int]]],
        name: str = "network",
    ) -> "ConnectionMatrix":
        """Build from a square 0/1 array-like."""
        matrix = np.asarray(matrix)
        check_square("matrix", matrix)
        check_binary_matrix("matrix", matrix)
        n = matrix.shape[0]
        rows, cols = np.divmod(np.flatnonzero(matrix), max(n, 1))
        return cls._build(_canonical_csr(n, rows, cols), name=name)

    @classmethod
    def from_sparse(cls, matrix, name: str = "network") -> "ConnectionMatrix":
        """Build from any scipy sparse matrix/array of 0/1 entries.

        Duplicate entries are summed first (scipy's semantics), so the
        summed value must still be 0 or 1.
        """
        if not sp.issparse(matrix):
            raise TypeError(
                f"from_sparse expects a scipy sparse matrix, got "
                f"{type(matrix).__name__} (use from_dense for arrays)"
            )
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"matrix must be a square 2-D matrix, got shape {matrix.shape}"
            )
        coo = sp.coo_array(matrix)
        coo.sum_duplicates()
        ones = coo.data == 1
        if not np.all(ones | (coo.data == 0)):
            bad = np.unique(coo.data[~ones & (coo.data != 0)])[:8]
            raise ValueError(f"matrix must contain only 0/1 entries, found values {bad}")
        rows = coo.row[ones].astype(np.int64)
        cols = coo.col[ones].astype(np.int64)
        return cls._build(_canonical_csr(matrix.shape[0], rows, cols), name=name)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Union[Iterable[Tuple[int, int]], np.ndarray, Tuple[np.ndarray, np.ndarray]],
        name: str = "network",
    ) -> "ConnectionMatrix":
        """Build from ``(i, j)`` connection pairs (duplicates collapse to 1).

        ``edges`` may be an iterable of pairs, an ``(m, 2)`` array, or a
        ``(rows, cols)`` tuple of index arrays.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if isinstance(edges, tuple) and len(edges) == 2 and not np.isscalar(edges[0]):
            rows = np.asarray(edges[0], dtype=np.int64).ravel()
            cols = np.asarray(edges[1], dtype=np.int64).ravel()
        else:
            pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
            if pairs.size == 0:
                pairs = pairs.reshape(0, 2)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError(
                    f"edges must be (i, j) pairs, got an array of shape {pairs.shape}"
                )
            rows = pairs[:, 0].astype(np.int64)
            cols = pairs[:, 1].astype(np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n
        ):
            raise IndexError(f"edge endpoints must lie in [0, {n})")
        return cls._build(_canonical_csr(n, rows, cols), name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """A read-only dense view of the 0/1 matrix.

        This **materializes** the full ``n × n`` array — fine for
        rendering or simulating small networks, ruinous at 100k neurons.
        Scale-sensitive code should use :meth:`connection_arrays`,
        :meth:`submatrix` or :meth:`adjacency` instead.
        """
        view = self._sparse.toarray()
        view.flags.writeable = False
        return view

    def to_dense(self) -> np.ndarray:
        """A writable dense ``uint8`` copy of the matrix."""
        return self._sparse.toarray()

    def to_sparse(self) -> sp.csr_array:
        """A canonical ``csr_array`` copy of the matrix."""
        return self._sparse.copy()

    def adjacency(self, dtype=np.float64) -> sp.csr_array:
        """The adjacency as a ``csr_array`` copy cast to ``dtype``.

        This is the scale-safe accessor: consumers that only need matrix
        products (Laplacians, indicator contractions) operate on it
        without densifying.
        """
        return self._sparse.astype(dtype)

    @property
    def size(self) -> int:
        """Number of neurons ``n``."""
        return self._sparse.shape[0]

    @property
    def num_connections(self) -> int:
        """Total number of 1-entries (synapses) in the network."""
        return int(self._sparse.nnz)

    @property
    def sparsity(self) -> float:
        """``1 - connections / n²`` — the paper's sparsity definition (Sec. 2.2)."""
        n = self.size
        if n == 0:
            return 1.0
        return 1.0 - self.num_connections / float(n * n)

    @property
    def density(self) -> float:
        """``connections / n²`` — the complement of :attr:`sparsity`."""
        return 1.0 - self.sparsity

    def connection_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` index arrays of all connections, row-major order.

        The sparse-first primitive: O(connections), never materializes the
        dense matrix.
        """
        rows = np.repeat(
            np.arange(self.size, dtype=np.int64), np.diff(self._sparse.indptr)
        )
        return rows, self._sparse.indices.astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        """Per-neuron fanout (row sums) as ``int64``."""
        return np.diff(self._sparse.indptr).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """Per-neuron fanin (column sums) as ``int64``."""
        return np.bincount(self._sparse.indices, minlength=self.size).astype(np.int64)

    def digest(self) -> str:
        """A stable SHA-256 content hash of the topology.

        Two networks with the same connection matrix share a digest
        regardless of their :attr:`name` or the constructor that built
        them; the digest is stable across processes and sessions, so it
        can key on-disk caches (see :mod:`repro.runtime.cache`).  Computed
        from the canonical edge list — O(connections), never densifies.
        """
        rows, cols = self.connection_arrays()
        h = hashlib.sha256()
        h.update(f"connection-matrix:{self.size}:{rows.size}:".encode("ascii"))
        h.update(np.ascontiguousarray(rows, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(cols, dtype="<i8").tobytes())
        return h.hexdigest()

    def is_symmetric(self) -> bool:
        """True when the topology is undirected (``W == Wᵀ``)."""
        rows, cols = self.connection_arrays()
        return bool(np.array_equal(np.sort(cols * self.size + rows), rows * self.size + cols))

    def copy(self, name: Optional[str] = None) -> "ConnectionMatrix":
        """Return an independent copy, optionally renamed."""
        return ConnectionMatrix._build(
            self._sparse.copy(), name=self.name if name is None else name
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        # Canonical CSR: equal topologies have identical indptr/indices.
        return (
            self.size == other.size
            and np.array_equal(self._sparse.indptr, other._sparse.indptr)
            and np.array_equal(self._sparse.indices, other._sparse.indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"ConnectionMatrix(name={self.name!r}, n={self.size}, "
            f"connections={self.num_connections}, sparsity={self.sparsity:.4f})"
        )

    # ------------------------------------------------------------------
    # Cluster-oriented operations
    # ------------------------------------------------------------------
    def similarity(self) -> sp.csr_array:
        """``max(W, Wᵀ)`` as a float ``csr_array`` with sorted indices.

        Spectral clustering requires an undirected similarity; for directed
        topologies a connection in either direction makes the pair similar.
        """
        rows, cols = self.connection_arrays()
        both = _canonical_csr(
            self.size, np.concatenate([rows, cols]), np.concatenate([cols, rows])
        )
        return both.astype(np.float64)

    def submatrix(
        self, rows: Sequence[int], cols: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Extract the block ``W[rows, cols]`` (``cols`` defaults to ``rows``).

        Returns a dense ``uint8`` block — callers request cluster- or
        crossbar-sized windows, which stay small even on huge networks.
        """
        rows = np.asarray(list(rows), dtype=int)
        cols = rows if cols is None else np.asarray(list(cols), dtype=int)
        self._check_indices(rows)
        self._check_indices(cols)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.size, cols.size), dtype=np.uint8)
        return self._sparse[rows][:, cols].toarray()

    def _membership(self, cluster: Sequence[int]) -> np.ndarray:
        idx = np.asarray(list(cluster), dtype=int)
        self._check_indices(idx)
        return idx

    def connections_within(self, cluster: Sequence[int]) -> int:
        """Number of connections with both endpoints inside ``cluster``.

        This is the crossbar-utilized-connection count *m* of Sec. 3.1 for a
        cluster mapped to a crossbar.
        """
        idx = self._membership(cluster)
        if idx.size == 0:
            return 0
        rows, cols = self.connection_arrays()
        mask = np.zeros(self.size, dtype=bool)
        mask[idx] = True
        return int(np.count_nonzero(mask[rows] & mask[cols]))

    def connections_within_many(
        self, clusters: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Within-cluster connection counts for many **disjoint** clusters.

        One O(connections) pass instead of one scan per cluster — the
        primitive the ISC scoring loop runs every iteration.  Returns an
        ``int64`` array aligned with ``clusters``.
        """
        label = np.full(self.size, -1, dtype=np.int64)
        for position, cluster in enumerate(clusters):
            idx = self._membership(cluster)
            if np.any(label[idx] != -1):
                raise ValueError("clusters must be disjoint")
            label[idx] = position
        counts = np.zeros(len(clusters), dtype=np.int64)
        if not len(clusters):
            return counts
        rows, cols = self.connection_arrays()
        if rows.size == 0:
            return counts
        within = (label[rows] >= 0) & (label[rows] == label[cols])
        counts += np.bincount(label[rows][within], minlength=len(clusters))
        return counts

    def connections_within_clusters(self, clusters: Iterable[Sequence[int]]) -> int:
        """Total within-cluster connections over a disjoint cluster list."""
        return int(self.connections_within_many(list(clusters)).sum())

    def outlier_count(self, clusters: Iterable[Sequence[int]]) -> int:
        """Connections not covered by any cluster — the paper's *outliers*."""
        return self.num_connections - self.connections_within_clusters(clusters)

    def outlier_ratio(self, clusters: Iterable[Sequence[int]]) -> float:
        """Fraction of connections that are outliers (0 when the net is empty)."""
        total = self.num_connections
        if total == 0:
            return 0.0
        return self.outlier_count(clusters) / total

    def remove_cluster(self, cluster: Sequence[int]) -> "ConnectionMatrix":
        """Return a new network with within-``cluster`` connections deleted.

        Used by ISC (Algorithm 3, line 12) to build the remaining network
        after a cluster has been realized on a crossbar.
        """
        return self.remove_clusters([cluster])

    def remove_clusters(self, clusters: Iterable[Sequence[int]]) -> "ConnectionMatrix":
        """Delete within-cluster connections for every cluster in one pass."""
        label = np.full(self.size, -1, dtype=np.int64)
        for position, cluster in enumerate(clusters):
            idx = self._membership(cluster)
            label[idx] = position
        rows, cols = self.connection_arrays()
        keep = ~((label[rows] >= 0) & (label[rows] == label[cols]))
        return ConnectionMatrix._build(
            _canonical_csr(self.size, rows[keep], cols[keep]), name=self.name
        )

    def connection_list(self) -> List[Tuple[int, int]]:
        """All ``(i, j)`` pairs with ``w_ij == 1`` in row-major order."""
        rows, cols = self.connection_arrays()
        return list(zip(rows.tolist(), cols.tolist()))

    def permuted(self, order: Sequence[int]) -> "ConnectionMatrix":
        """Reorder neurons by ``order`` (used to draw clustered matrices)."""
        idx = np.asarray(list(order), dtype=int)
        if sorted(idx.tolist()) != list(range(self.size)):
            raise ValueError("order must be a permutation of range(n)")
        # result[a, b] = W[order[a], order[b]]  ⇒  edge (i, j) lands at
        # (inverse[i], inverse[j]).
        inverse = np.empty(self.size, dtype=np.int64)
        inverse[idx] = np.arange(self.size, dtype=np.int64)
        rows, cols = self.connection_arrays()
        return ConnectionMatrix._build(
            _canonical_csr(self.size, inverse[rows], inverse[cols]), name=self.name
        )

    # ------------------------------------------------------------------
    def _check_indices(self, idx: np.ndarray) -> None:
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise IndexError(
                f"neuron indices must lie in [0, {self.size}), got range "
                f"[{idx.min()}, {idx.max()}]"
            )
