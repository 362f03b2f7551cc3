"""Compressed-sparse-row matrices.

A small, dependency-free CSR implementation sufficient for the model
problems and solvers of the toolkit.  The data layout is the usual
triplet of arrays (``indptr``, ``indices``, ``data``); matvec is
vectorized with :func:`numpy.add.reduceat` so it stays fast enough for
the benchmark sizes without compiled extensions.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.utils.validation import check_integer

__all__ = ["CsrMatrix"]

#: Compute dtypes a CsrMatrix may carry.  Accumulation narrower than
#: float32 is numerically useless for Krylov work, so float16 is only
#: allowed as a *storage* dtype (entries are widened on multiply).
_COMPUTE_DTYPES = (np.float32, np.float64)
_STORAGE_DTYPES = (np.float16, np.float32, np.float64)


def _check_compute_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in [np.dtype(d) for d in _COMPUTE_DTYPES]:
        raise ValueError(
            f"compute dtype must be float32 or float64, got {resolved}"
        )
    return resolved


def _check_storage_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in [np.dtype(d) for d in _STORAGE_DTYPES]:
        raise ValueError(
            f"storage dtype must be float16, float32 or float64, "
            f"got {resolved}"
        )
    return resolved


class CsrMatrix:
    """A real matrix in compressed-sparse-row format.

    Parameters
    ----------
    indptr:
        Row-pointer array of length ``n_rows + 1``.
    indices:
        Column indices of stored entries (length ``nnz``).
    data:
        Stored values (length ``nnz``), coerced to the storage dtype
        (float64 unless ``dtype``/``storage`` say otherwise).
    shape:
        ``(n_rows, n_cols)``.
    dtype:
        Compute dtype -- the dtype matvec coerces input vectors to and
        (together with the storage dtype) the dtype of its results.
        float64 (the default) or float32.
    storage:
        Dtype the ``data`` array is stored in; defaults to ``dtype``.
        May be float16 to halve matrix memory traffic again -- entries
        are widened by NumPy promotion during the multiply, so the
        accumulation still runs at the compute dtype.

    Notes
    -----
    The constructor validates structural invariants (monotone
    ``indptr``, in-range column indices).  Duplicate column indices in
    a row are allowed and are summed implicitly by matvec, matching
    conventional CSR semantics.
    """

    def __init__(
        self,
        indptr: Iterable[int],
        indices: Iterable[int],
        data: Iterable[float],
        shape: Tuple[int, int],
        *,
        dtype=np.float64,
        storage=None,
    ):
        self.dtype = _check_compute_dtype(dtype)
        storage_dtype = (
            self.dtype if storage is None else _check_storage_dtype(storage)
        )
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=storage_dtype)
        # Dtype of matvec products: NumPy promotion of storage x compute
        # (float16 storage widens to the compute dtype, never narrows it).
        self._result_dtype = np.result_type(self.data.dtype, self.dtype)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ValueError("shape entries must be non-negative")
        self.shape = (n_rows, n_cols)
        self._validate()
        # Cached matvec reduce plan (structure is immutable): the rows
        # with at least one stored entry and their segment starts.
        # reduceat must only see strictly increasing indices -- repeated
        # indptr entries (empty rows) would make it return a neighbouring
        # segment's value instead of 0, so empty rows are masked out and
        # left at zero in the output.
        self._nonempty_rows = np.flatnonzero(np.diff(self.indptr) > 0)
        self._reduce_starts = self.indptr[self._nonempty_rows]
        self._has_empty_rows = self._nonempty_rows.size != n_rows

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if self.indptr.ndim != 1 or self.indptr.size != n_rows + 1:
            raise ValueError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.size != nnz or self.data.size != nnz:
            raise ValueError(
                f"indices/data must have length indptr[-1]={nnz}, "
                f"got {self.indices.size}/{self.data.size}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ValueError("column indices out of range")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        *,
        tol: float = 0.0,
        dtype=np.float64,
        storage=None,
    ) -> "CsrMatrix":
        """Build from a dense array, dropping entries with ``|a_ij| <= tol``."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        mask = np.abs(arr) > tol
        indptr = np.zeros(arr.shape[0] + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(mask.sum(axis=1))
        indices = np.nonzero(mask)[1]
        data = arr[mask]
        return cls(indptr, indices, data, arr.shape, dtype=dtype, storage=storage)

    @classmethod
    def from_coo(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[float],
        shape: Tuple[int, int],
        *,
        dtype=np.float64,
        storage=None,
    ) -> "CsrMatrix":
        """Build from coordinate (triplet) format; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have the same length")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column indices out of range")
        # Sum duplicates by sorting on (row, col).
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            keys = rows * n_cols + cols
            unique_mask = np.empty(rows.size, dtype=bool)
            unique_mask[0] = True
            unique_mask[1:] = keys[1:] != keys[:-1]
            group_ids = np.cumsum(unique_mask) - 1
            summed = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group_ids, values)
            rows = rows[unique_mask]
            cols = cols[unique_mask]
            values = summed
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(
            indptr, cols, values, (n_rows, n_cols), dtype=dtype, storage=storage
        )

    @classmethod
    def identity(cls, n: int, *, dtype=np.float64, storage=None) -> "CsrMatrix":
        """The n-by-n identity matrix."""
        check_integer(n, "n")
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        data = np.ones(n, dtype=np.float64)
        return cls(indptr, indices, data, (n, n), dtype=dtype, storage=storage)

    @classmethod
    def diagonal(
        cls, values: Iterable[float], *, dtype=np.float64, storage=None
    ) -> "CsrMatrix":
        """A diagonal matrix with the given diagonal values."""
        vals = np.asarray(values, dtype=np.float64)
        n = vals.size
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        return cls(indptr, indices, vals.copy(), (n, n), dtype=dtype, storage=storage)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    def is_square(self) -> bool:
        """Whether the matrix is square."""
        return self.shape[0] == self.shape[1]

    @property
    def storage_dtype(self) -> np.dtype:
        """Dtype the stored entries are held in (may be narrower than
        the compute dtype, e.g. float16 storage under float32 compute)."""
        return self.data.dtype

    def astype(self, dtype, *, storage=None) -> "CsrMatrix":
        """Return a copy with the given compute (and optional storage) dtype.

        The structure arrays are shared (they are immutable by
        convention); only ``data`` is converted.  ``astype(np.float64)``
        on a float64 matrix is still a new object, matching
        :meth:`copy` semantics for the data array.
        """
        resolved = _check_compute_dtype(dtype)
        storage_dtype = (
            resolved if storage is None else _check_storage_dtype(storage)
        )
        return CsrMatrix(
            self.indptr,
            self.indices,
            self.data.astype(storage_dtype),
            self.shape,
            dtype=resolved,
            storage=storage_dtype,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x`` for a 1-D vector ``x``."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 1 or x.size != self.n_cols:
            raise ValueError(
                f"x must be a vector of length {self.n_cols}, got shape {x.shape}"
            )
        products = self.data * x[self.indices]
        if not self._has_empty_rows:
            if self.n_rows == 0:
                return np.zeros(0, dtype=self._result_dtype)
            return np.add.reduceat(products, self._reduce_starts)
        result = np.zeros(self.n_rows, dtype=self._result_dtype)
        if products.size:
            result[self._nonempty_rows] = np.add.reduceat(
                products, self._reduce_starts
            )
        return result

    def matvec_block(self, X: np.ndarray) -> np.ndarray:
        """Return ``(A @ X.T).T`` for a stack of vectors ``X`` of shape ``(S, n)``.

        One gather and one ``reduceat`` over the whole stack: each row of
        the result is bit-identical to ``matvec(X[s])`` because
        ``np.add.reduceat`` reduces every row of the 2-D product array
        with the same segment sums the 1-D call uses.
        """
        X = np.asarray(X, dtype=self.dtype)
        if X.ndim != 2 or X.shape[1] != self.n_cols:
            raise ValueError(
                f"X must have shape (S, {self.n_cols}), got {X.shape}"
            )
        products = self.data * X[:, self.indices]
        if not self._has_empty_rows:
            if self.n_rows == 0:
                return np.zeros((X.shape[0], 0), dtype=self._result_dtype)
            return np.add.reduceat(products, self._reduce_starts, axis=1)
        result = np.zeros((X.shape[0], self.n_rows), dtype=self._result_dtype)
        if products.size:
            result[:, self._nonempty_rows] = np.add.reduceat(
                products, self._reduce_starts, axis=1
            )
        return result

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Return ``A.T @ y``."""
        y = np.asarray(y, dtype=self.dtype)
        if y.ndim != 1 or y.size != self.n_rows:
            raise ValueError(
                f"y must be a vector of length {self.n_rows}, got shape {y.shape}"
            )
        result = np.zeros(self.n_cols, dtype=self._result_dtype)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        np.add.at(result, self.indices, self.data * y[row_ids])
        return result

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal_values(self) -> np.ndarray:
        """Extract the main diagonal (zeros where no entry is stored)."""
        return self._diagonal_sums(0, min(self.shape), self.dtype)

    def _diagonal_sums(self, offset: int, length: int, dtype) -> np.ndarray:
        """Entries ``(i, i + offset)`` for ``i < length``, as ``dtype``.

        Zero where no entry is stored.  Each value is the ``sum()`` of
        the row's entries at that column in the storage dtype, taken in
        stored order, exactly as a per-row loop would: ``sum()`` starts
        from +0.0, so a lone -0.0 entry reads as 0.0, and duplicates
        (rare) are summed row by row.
        """
        diag = np.zeros(length, dtype=dtype)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        hits = np.flatnonzero(self.indices == row_ids + offset)
        hit_rows = row_ids[hits]
        diag[hit_rows] = self.data[hits] + 0
        repeated = hit_rows[1:] == hit_rows[:-1]
        for i in np.unique(hit_rows[1:][repeated]):
            diag[i] = self.data[hits[hit_rows == i]].sum()
        return diag

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(columns, values)`` of row ``i``."""
        check_integer(i, "i")
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range")
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end].copy(), self.data[start:end].copy()

    def row_slice(self, start: int, stop: int) -> "CsrMatrix":
        """Return rows ``start:stop`` as a new CSR matrix (same column space)."""
        check_integer(start, "start")
        check_integer(stop, "stop")
        if not 0 <= start <= stop <= self.n_rows:
            raise ValueError(f"invalid row slice [{start}, {stop})")
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        indptr = self.indptr[start : stop + 1] - self.indptr[start]
        return CsrMatrix(
            indptr, self.indices[lo:hi].copy(), self.data[lo:hi].copy(),
            (stop - start, self.n_cols),
            dtype=self.dtype, storage=self.data.dtype,
        )

    def to_dense(self) -> np.ndarray:
        """Return the dense equivalent (use only for small matrices/tests)."""
        dense = np.zeros(self.shape, dtype=self.dtype)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        np.add.at(dense, (row_ids, self.indices), self.data)
        return dense

    def transpose(self) -> "CsrMatrix":
        """Return the transpose as a new CSR matrix."""
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return CsrMatrix.from_coo(
            self.indices, row_ids, self.data, (self.n_cols, self.n_rows),
            dtype=self.dtype, storage=self.data.dtype,
        )

    def scale_rows(self, factors: np.ndarray) -> "CsrMatrix":
        """Return ``diag(factors) @ A`` as a new matrix."""
        factors = np.asarray(factors, dtype=self.dtype)
        if factors.shape != (self.n_rows,):
            raise ValueError("factors must have one entry per row")
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return CsrMatrix(
            self.indptr.copy(), self.indices.copy(), self.data * factors[row_ids],
            self.shape,
            dtype=self.dtype, storage=self.data.dtype,
        )

    def copy(self) -> "CsrMatrix":
        """Deep copy."""
        return CsrMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape,
            dtype=self.dtype, storage=self.data.dtype,
        )

    def __add__(self, other: "CsrMatrix") -> "CsrMatrix":
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("matrix shapes must match for addition")
        self_rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        other_rows = np.repeat(np.arange(other.n_rows), np.diff(other.indptr))
        return CsrMatrix.from_coo(
            np.concatenate([self_rows, other_rows]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
            self.shape,
            dtype=np.result_type(self.dtype, other.dtype),
        )

    def __mul__(self, scalar: Union[int, float]) -> "CsrMatrix":
        if not isinstance(scalar, (int, float, np.floating, np.integer)):
            return NotImplemented
        return CsrMatrix(
            self.indptr.copy(), self.indices.copy(), self.data * float(scalar),
            self.shape,
            dtype=self.dtype, storage=self.data.dtype,
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"
