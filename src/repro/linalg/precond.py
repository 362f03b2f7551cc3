"""Preconditioners (the mechanisms).

The solvers accept any object implementing the :class:`Preconditioner`
protocol (an ``apply`` method mapping a residual to a correction).  The
choices here are the standard light-weight ones used in resilience
studies -- Jacobi, SSOR, a Neumann-series polynomial and block Jacobi
-- all of which are also natural candidates for running in *unreliable*
mode under SRP, since a corrupted preconditioner application changes
only the rate of convergence, never the correctness of a converged
answer (for right preconditioning in flexible methods).

This module is the mechanism layer only.  The declarative surface --
serializable spec strings (``"jacobi"``, ``"ssor:omega=1.2"``,
``"poly:k=4"``, ``"bjacobi:bs=8"``), the named registry, and the
``precond=`` parameter every registered solver accepts -- lives in
:mod:`repro.precond`, which builds these classes and re-raises their
validation errors with the offending spec string attached.  The
unreliable-domain proxy is
:meth:`repro.reliability.ReliabilityDomain.preconditioner`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.linalg.csr import CsrMatrix
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "SsorPreconditioner",
    "NeumannPolynomialPreconditioner",
    "BlockJacobiPreconditioner",
]


class Preconditioner:
    """Protocol: a preconditioner maps a vector to M^{-1} v."""

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Return an approximation to ``M^{-1} vector``."""
        raise NotImplementedError

    def __call__(self, vector: np.ndarray) -> np.ndarray:
        return self.apply(vector)


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (M = I)."""

    def apply(self, vector: np.ndarray) -> np.ndarray:
        return np.array(vector, dtype=np.float64, copy=True)


class JacobiPreconditioner(Preconditioner):
    """Diagonal (Jacobi) preconditioner ``M = diag(A)``."""

    def __init__(self, matrix: CsrMatrix):
        diag = matrix.diagonal_values()
        if np.any(diag == 0.0):
            raise ValueError("Jacobi preconditioner requires a nonzero diagonal")
        self._inv_diag = 1.0 / diag

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self._inv_diag.size:
            raise ValueError("vector length does not match the matrix")
        return self._inv_diag * vector


class SsorPreconditioner(Preconditioner):
    """Symmetric successive over-relaxation preconditioner.

    Applies one forward and one backward Gauss-Seidel-like sweep with
    relaxation factor ``omega``: ``(D/omega + L) x = b``, then
    ``(D/omega + U) y = (D/omega) x``.

    Both triangular sweeps run **level-scheduled**.  ``__init__`` gives
    every row a level -- 1 + the largest level among the rows its strict
    lower (forward) or strict upper (backward) entries depend on -- and
    groups the rows by (level, dependency count ``k``).  Rows in one
    level depend only on earlier levels, so ``apply`` handles a whole
    group in a few vectorized operations, and the Python loop runs over
    groups rather than rows (on a 2-D Poisson grid: ``2 * grid - 1``
    levels per sweep, one or two groups each).

    The result is bit-identical to the row-by-row sweep.  Each row's
    dependency sum is a stacked ``np.matmul`` of shapes
    ``(m, 1, k) @ (m, k, 1)``, which calls the same BLAS ``ddot`` per
    row, over the same entries in stored order, that ``vals @ x[cols]``
    calls for one row; the short-vector ``ddot`` may accumulate with
    FMA, which ``einsum`` or explicit products would not reproduce.
    Grouping by ``k`` keeps padding out of the arithmetic: a padded
    ``0 * x`` term would turn ``inf`` into NaN and flip the sign of
    ``-0.0``.  Every elementwise step keeps the row loop's operation
    order.  ``tests/test_precond.py`` pins both the row-loop equality
    and the ``matmul``/``@`` agreement.
    """

    def __init__(self, matrix: CsrMatrix, omega: float = 1.0):
        if not matrix.is_square:
            raise ValueError("SSOR requires a square matrix")
        check_positive(omega, "omega")
        if omega >= 2.0:
            raise ValueError("omega must lie in (0, 2) for SSOR")
        self._n = matrix.n_rows
        self._omega = float(omega)
        diag = matrix.diagonal_values()
        if np.any(diag == 0.0):
            raise ValueError("SSOR requires a nonzero diagonal")
        row_ids = np.repeat(np.arange(self._n), np.diff(matrix.indptr))
        self._forward = _sweep_schedule(
            matrix, diag, row_ids, matrix.indices < row_ids
        )
        self._backward = _sweep_schedule(
            matrix, diag, row_ids, matrix.indices > row_ids
        )

    def apply(self, vector: np.ndarray) -> np.ndarray:
        b = np.asarray(vector, dtype=np.float64)
        if b.size != self._n:
            raise ValueError("vector length does not match the matrix")
        omega = self._omega
        # Forward sweep: (D/omega + L) x = b.  Every row lies in exactly
        # one group, so every entry of x (and of y below) is written.
        x = np.empty(self._n, dtype=np.float64)
        for rows, cols, vals, diag in self._forward:
            acc = b[rows]
            if cols is not None:
                acc = acc - np.matmul(vals, x[cols])[:, 0, 0]
            x[rows] = omega * acc / diag
        # Backward sweep: (D/omega + U) y = D x / omega.
        y = np.empty(self._n, dtype=np.float64)
        for rows, cols, vals, diag in self._backward:
            acc = diag * x[rows] / omega
            if cols is not None:
                acc = acc - np.matmul(vals, y[cols])[:, 0, 0]
            y[rows] = omega * acc / diag
        return y


def _sweep_schedule(
    matrix: CsrMatrix, diag: np.ndarray, row_ids: np.ndarray, strict: np.ndarray
) -> List[tuple]:
    """Level-scheduled row groups of one triangular sweep.

    ``strict`` masks the stored entries the sweep reads (``cols < row``
    forward, ``cols > row`` backward).  Returns ``(rows, cols, vals,
    diag)`` tuples in level order: ``rows`` are the group's row ids,
    ``cols`` an ``(m, k, 1)`` index array and ``vals`` an ``(m, 1, k)``
    float64 array of the rows' ``k`` dependencies in stored order (both
    ``None`` when ``k == 0``), and ``diag`` the rows' diagonal values.
    """
    n = matrix.n_rows
    if n == 0:
        return []
    dep_rows = row_ids[strict]
    counts = np.bincount(dep_rows, minlength=n)
    width = int(counts.max(initial=0))
    # Each row's dependencies in stored order, padded to a common width
    # (n x max k entries: sized for the short, even rows SSOR targets)
    # with the sentinel column n.  The padding only feeds the integer
    # level computation; the groups below slice it off.
    slots = np.arange(dep_rows.size) - (np.cumsum(counts) - counts)[dep_rows]
    cols = np.full((n, width), n, dtype=np.int64)
    cols[dep_rows, slots] = matrix.indices[strict]
    vals = np.zeros((n, width), dtype=np.float64)
    vals[dep_rows, slots] = matrix.data[strict]
    # Longest dependency chain ending at each row, as a fixed point:
    # each pass is exact for one more level, so the loop runs once per
    # level plus once to confirm.  The sentinel's level stays -1.
    level = np.zeros(n + 1, dtype=np.int64)
    level[n] = -1
    if width:
        slot_major = np.ascontiguousarray(cols.T)
        while True:
            deeper = level[slot_major].max(axis=0) + 1
            if np.array_equal(deeper, level[:n]):
                break
            level[:n] = deeper
    # Sort rows by (level, k) once, so that every group is a slice.
    key = level[:n] * (width + 1) + counts
    order = np.argsort(key, kind="stable")
    counts, cols, vals, diag = counts[order], cols[order], vals[order], diag[order]
    bounds = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    groups = []
    for start, stop in zip([0] + bounds, bounds + [n]):
        k = int(counts[start])
        rows = order[start:stop]
        if k == 0:
            groups.append((rows, None, None, diag[start:stop]))
        else:
            groups.append((rows, cols[start:stop, :k, None],
                           vals[start:stop, None, :k], diag[start:stop]))
    return groups


class NeumannPolynomialPreconditioner(Preconditioner):
    """Truncated Neumann-series polynomial preconditioner.

    With the Jacobi splitting ``A = D - N``, the inverse is approximated
    by ``M^{-1} = (I + G + G^2 + ... + G^k) D^{-1}`` where
    ``G = D^{-1} N``.  Matrix-power preconditioners like this need *no
    inner products*, which makes them attractive for latency-tolerant
    (RBSP) solvers.
    """

    def __init__(self, matrix: CsrMatrix, degree: int = 2):
        check_integer(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if not matrix.is_square:
            raise ValueError("polynomial preconditioner requires a square matrix")
        diag = matrix.diagonal_values()
        if np.any(diag == 0.0):
            raise ValueError("polynomial preconditioner requires a nonzero diagonal")
        self._matrix = matrix
        self._inv_diag = 1.0 / diag
        self._degree = int(degree)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self._matrix.n_rows:
            raise ValueError("vector length does not match the matrix")
        z = self._inv_diag * vector
        result = z.copy()
        term = z
        for _ in range(self._degree):
            # G term = D^{-1} (D - A) term = term - D^{-1} A term
            term = term - self._inv_diag * self._matrix.matvec(term)
            result += term
        return result


class BlockJacobiPreconditioner(Preconditioner):
    """Block-Jacobi preconditioner with contiguous diagonal blocks.

    The matrix is partitioned into ``n_blocks`` contiguous row blocks;
    each diagonal block is extracted densely and factorized once.  This
    mirrors the per-subdomain (per-rank) preconditioning a distributed
    solver would use, so it is the natural preconditioner for the
    simulated-MPI solvers and the natural unit of loss in LFLR studies.
    """

    def __init__(self, matrix: CsrMatrix, n_blocks: int):
        check_integer(n_blocks, "n_blocks")
        if not matrix.is_square:
            raise ValueError("block Jacobi requires a square matrix")
        n = matrix.n_rows
        if not 1 <= n_blocks <= n:
            raise ValueError("n_blocks must lie in [1, n_rows]")
        self._n = n
        bounds = np.linspace(0, n, n_blocks + 1).astype(int)
        self._ranges: List[tuple] = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(n_blocks)
        ]
        self._factors = []
        dense = matrix.to_dense() if n <= 2048 else None
        for start, stop in self._ranges:
            if dense is not None:
                block = dense[start:stop, start:stop]
            else:
                lo, hi = matrix.indptr[start], matrix.indptr[stop]
                rows = np.repeat(
                    np.arange(stop - start), np.diff(matrix.indptr[start:stop + 1])
                )
                cols = matrix.indices[lo:hi]
                mask = (cols >= start) & (cols < stop)
                block = np.zeros((stop - start, stop - start), dtype=np.float64)
                block[rows[mask], cols[mask] - start] = matrix.data[lo:hi][mask]
            if block.size == 0:
                self._factors.append(None)
                continue
            self._factors.append(np.linalg.inv(block))

    @property
    def block_ranges(self) -> List[tuple]:
        """The (start, stop) row range of each block."""
        return list(self._ranges)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self._n:
            raise ValueError("vector length does not match the matrix")
        result = np.zeros_like(vector)
        for (start, stop), inv in zip(self._ranges, self._factors):
            if inv is None or stop <= start:
                continue
            result[start:stop] = inv @ vector[start:stop]
        return result
