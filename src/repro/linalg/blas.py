"""Dense kernels used by the Krylov solvers.

Only the handful of operations GMRES/CG need beyond plain NumPy are
implemented: Givens rotations (for the incremental QR of the Hessenberg
matrix), back substitution, axpy and the two Gram-Schmidt variants.
Keeping them here (rather than inlined in the solvers) lets the
skeptical-programming layer wrap and check them, and lets the tests
exercise them in isolation.

Precision: the Gram-Schmidt block kernels follow the dtype of their
operands (a float32 basis orthogonalizes in float32 -- the
memory-traffic lever of the mixed-precision layer), while the Givens
rotations, Hessenberg least-squares state and back substitution stay
float64 unconditionally: they are O(m) per cycle, cost nothing, and
keeping the outer recurrence in full precision is what makes reduced
inner precision safe (the iterative-refinement shape).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_array_1d

__all__ = [
    "axpy",
    "givens_rotation",
    "givens_rotation_many",
    "apply_givens",
    "rotate_hessenberg_column",
    "back_substitution",
    "HessenbergLsq",
    "modified_gram_schmidt_step",
    "classical_gram_schmidt_step",
    "cgs2_step",
]


def _as_float(x) -> np.ndarray:
    """float64 no-op view, float32 preserved, everything else -> float64."""
    arr = np.asarray(x)
    if arr.dtype == np.float64 or arr.dtype == np.float32:
        return arr
    return np.asarray(arr, dtype=np.float64)


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return ``alpha * x + y`` (out of place)."""
    x = check_array_1d(x, "x", dtype=np.float64)
    y = check_array_1d(y, "y", dtype=np.float64)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    return alpha * x + y


def givens_rotation(a: float, b: float) -> Tuple[float, float]:
    """Return ``(c, s)`` such that ``[c s; -s c] @ [a; b] = [r; 0]``.

    Uses the numerically careful formulation that avoids overflow for
    large ``|a|`` or ``|b|``.
    """
    a = float(a)
    b = float(b)
    if b == 0.0:
        return 1.0, 0.0
    if a == 0.0:
        return 0.0, 1.0
    if abs(b) > abs(a):
        t = a / b
        s = 1.0 / math.sqrt(1.0 + t * t)
        c = s * t
    else:
        t = b / a
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = c * t
    return float(c), float(s)


def givens_rotation_many(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`givens_rotation` over a batch of ``(a, b)`` pairs.

    Replicates the scalar branch structure with ``np.where`` masks; each
    lane's ``(c, s)`` is bit-for-bit the scalar result, including the
    NaN cases (comparisons against NaN are False both in Python and in
    the mask chain, so a NaN input lands in the same final branch).  All
    branches are evaluated eagerly, so the out-of-branch divisions are
    run under ``errstate`` suppression and discarded by the masks.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_big = a / b
        s_big = 1.0 / np.sqrt(1.0 + t_big * t_big)
        c_big = s_big * t_big
        t_small = b / a
        c_small = 1.0 / np.sqrt(1.0 + t_small * t_small)
        s_small = c_small * t_small
    b_zero = b == 0.0
    a_zero = (a == 0.0) & ~b_zero
    big = (np.abs(b) > np.abs(a)) & ~b_zero & ~a_zero
    c = np.where(b_zero, 1.0, np.where(a_zero, 0.0, np.where(big, c_big, c_small)))
    s = np.where(b_zero, 0.0, np.where(a_zero, 1.0, np.where(big, s_big, s_small)))
    return c, s


def apply_givens(c: float, s: float, a: float, b: float) -> Tuple[float, float]:
    """Apply the rotation ``(c, s)`` to the pair ``(a, b)``."""
    return float(c * a + s * b), float(-s * a + c * b)


def rotate_hessenberg_column(col: list, g: list, givens: list, j: int) -> float:
    """Incremental QR update for GMRES Hessenberg column ``j``, in place.

    Applies the accumulated rotations in ``givens`` to ``col`` (the new
    column as ``j + 2`` Python floats), computes and appends the
    rotation that annihilates the subdiagonal entry, and applies it to
    ``col`` and to the least-squares right-hand side ``g``.  Operates
    on plain lists: the column is tiny and per-element ndarray indexing
    would dominate this O(j) recurrence at small n.  Returns the new
    recurrence residual ``|g[j + 1]|``.  ``givens`` holds the ``j``
    rotations of the previous columns.
    """
    # ``a`` carries the rotated sub-entry into the next rotation rather
    # than storing it in ``col`` and reading it back.
    a = col[0]
    for i, (c, s) in enumerate(givens):
        b = col[i + 1]
        col[i] = c * a + s * b
        a = c * b - s * a
    b = col[j + 1]
    c, s = givens_rotation(a, b)
    givens.append((c, s))
    col[j] = c * a + s * b
    col[j + 1] = c * b - s * a
    a, b = g[j], g[j + 1]
    g[j] = c * a + s * b
    g[j + 1] = c * b - s * a
    return abs(g[j + 1])


def back_substitution(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``R y = rhs`` for upper-triangular ``R``.

    Raises ``np.linalg.LinAlgError`` when a diagonal entry is zero (the
    Hessenberg QR broke down), so callers can treat breakdown
    explicitly rather than silently dividing by zero.
    """
    upper = np.asarray(upper, dtype=np.float64)
    rhs = check_array_1d(rhs, "rhs", dtype=np.float64)
    n = rhs.size
    if upper.shape[0] < n or upper.shape[1] < n:
        raise ValueError("triangular factor too small for the right-hand side")
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    pivots = np.diagonal(upper)[:n]
    bad = np.flatnonzero(~np.isfinite(pivots) | (pivots == 0.0))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"zero or non-finite pivot at row {int(bad[-1])}"
        )
    # Work on the strictly-upper-triangular part only: GMRES stores the
    # (numerically tiny) rotated subdiagonal entries in the same array,
    # and back substitution must ignore them.
    y = np.zeros(n, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        y[i] = (rhs[i] - upper[i, i + 1 : n] @ y[i + 1 : n]) / pivots[i]
    return y


class HessenbergLsq:
    """Incremental QR least-squares state of one restarted-Arnoldi cycle.

    Owns the pieces every GMRES-family solver used to hand-roll per
    cycle: the ``(m+1) x m`` Hessenberg array, the accumulated Givens
    rotations and the rotated least-squares right-hand side ``g``
    (initialized to ``beta * e_1``).  :meth:`append_column` performs the
    incremental QR update for the newest Arnoldi column and returns the
    recurrence residual ``|g[j+1]|``; :meth:`solve` back-substitutes for
    the cycle's correction coefficients.

    The stored :attr:`hessenberg` array is the live solver state the
    iteration hooks see -- fault-injection campaigns write into it, and
    :meth:`solve` reads whatever is there at restart time (the rotations
    and ``g`` are *not* re-derived from a mutated array, matching the
    pre-engine behaviour the SDC experiments were calibrated against).
    """

    def __init__(self, m: int, beta: float):
        self.hessenberg = np.zeros((int(m) + 1, int(m)), dtype=np.float64)
        self._givens: list = []
        self._g = [0.0] * (int(m) + 1)
        self._g[0] = float(beta)
        self.size = 0

    def append_column(self, coefficients: np.ndarray, h_next: float) -> float:
        """Rotate and store Arnoldi column ``size``; return the residual."""
        j = self.size
        col = coefficients.tolist()
        col.append(h_next)
        residual = rotate_hessenberg_column(col, self._g, self._givens, j)
        self.hessenberg[: j + 2, j] = col
        self.size = j + 1
        return residual

    def solve(self, k: Optional[int] = None) -> np.ndarray:
        """Back-substitute for the first ``k`` correction coefficients.

        Raises ``np.linalg.LinAlgError`` on a zero/non-finite pivot, as
        :func:`back_substitution` does.
        """
        k = self.size if k is None else int(k)
        return back_substitution(self.hessenberg[:k, :k], self._g[:k])


def modified_gram_schmidt_step(
    basis: np.ndarray, w: np.ndarray, n_vectors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Orthogonalize ``w`` against the first ``n_vectors`` columns of ``basis``.

    Modified Gram-Schmidt: projections are subtracted one at a time,
    which is the numerically stable variant GMRES conventionally uses.

    Returns ``(w_orth, coefficients)`` where ``coefficients[j]`` is the
    projection of the *partially orthogonalized* ``w`` onto column j.
    """
    w = _as_float(w).copy()
    coefficients = np.zeros(n_vectors, dtype=np.float64)
    for j in range(n_vectors):
        v = basis[:, j]
        coefficients[j] = float(v @ w)
        w -= coefficients[j] * v
    return w, coefficients


def classical_gram_schmidt_step(
    basis: np.ndarray, w: np.ndarray, n_vectors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Classical Gram-Schmidt step (all projections from the original w).

    Less stable than MGS but needs only a single global reduction for
    all the dot products, which is why latency-tolerant (pipelined)
    Krylov variants prefer it -- exactly the trade the RBSP model makes
    explicit.
    """
    w = _as_float(w)
    coefficients = basis[:, :n_vectors].T @ w
    w_orth = w - basis[:, :n_vectors] @ coefficients
    return w_orth, coefficients


def cgs2_step(
    basis: np.ndarray, w: np.ndarray, n_vectors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Classical Gram-Schmidt with reorthogonalization (CGS2).

    Two CGS passes: each is two BLAS-2 calls, so the whole step is four
    matrix-vector products with the basis block -- no interpreted loop
    over basis vectors.  "Twice is enough" (Giraud et al.): the second
    pass restores orthogonality to machine precision, making CGS2 at
    least as robust as MGS while keeping the single-reduction
    communication pattern.  Returns ``(w_orth, coefficients)`` with the
    coefficient sums of both passes.
    """
    w_orth, coefficients = classical_gram_schmidt_step(basis, w, n_vectors)
    w_orth, correction = classical_gram_schmidt_step(basis, w_orth, n_vectors)
    return w_orth, coefficients + correction
