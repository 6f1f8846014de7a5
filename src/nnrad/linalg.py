"""Dense linear algebra helpers: factor/solve, norms, FE scatter-assembly.

``lu_factor`` returns the explicit inverse of A, computed by
``numpy.linalg.inv``, ``lu_solve`` applies it with one matvec, and
``lu_update`` applies a rank-1 change of A to it in O(n^2).  On
the Newton loop's matrices, at most a few dozen rows, that costs less
than SciPy's LU factors and triangular solves, and it needs no SciPy.

Singular rule: A is singular when partial-pivot LU elimination meets a
pivot U_kk with |U_kk| <= SINGULARITY_RTOL * max|A|; SingularMatrixError
then reports the first such k.  The inverse screens for this cheaply.
With partial pivoting every |L_ij| <= 1, so U^-1 = A^-1 P^T L gives
||A^-1||_inf >= 1/(n |U_kk|) for every pivot, and a small pivot forces
max|A| * ||A^-1||_inf >= 1/(n * SINGULARITY_RTOL).  Only when ``inv``
raises, returns non-finite values, or that product comes within
SCREEN_MARGIN of the bound, does a partial-pivot Gauss-Jordan elimination
run; it applies the exact pivot rule and, if no pivot is small, supplies
the inverse.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "lu_factor",
    "lu_solve",
    "lu_update",
    "norm2",
    "scatter_add",
]

SINGULARITY_RTOL = 1e-14
# Fraction of the bound at which the screen hands over to elimination; it
# covers the rounding error of a computed inverse of a near-singular A.
SCREEN_MARGIN = 1e-3


class SingularMatrixError(ValueError):
    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(
            message or f"matrix is numerically singular at pivot {pivot_index}"
        )


def _gauss_jordan_inverse(A, threshold):
    """Inverse of A by Gauss-Jordan elimination with partial pivoting.

    Pivots equal those of LU with partial pivoting; raises
    SingularMatrixError at the first one at or under threshold.
    """
    n = A.shape[0]
    W = np.hstack([A, np.eye(n)])
    for k in range(n):
        p = k + int(np.argmax(np.abs(W[k:, k])))
        if abs(W[p, k]) <= threshold:
            raise SingularMatrixError(k)
        W[[k, p]] = W[[p, k]]
        W[k] /= W[k, k]
        col = W[:, k].copy()
        col[k] = 0.0
        W -= np.outer(col, W[k])
    return W[:, n:]


def lu_factor(A):
    """Factor A for lu_solve; raises SingularMatrixError on a tiny pivot.

    A pivot counts as singular when its magnitude is at or under
    1e-14 * max|A| (see the module docstring for the screen).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"lu_factor expects a square matrix, got {A.shape}")
    n = A.shape[0]
    scale = np.abs(A).max()
    try:
        inv = np.linalg.inv(A)
        # False for a non-finite inverse too.
        passed = scale * np.abs(inv).sum(axis=1).max() < SCREEN_MARGIN / (
            n * SINGULARITY_RTOL
        )
    except np.linalg.LinAlgError:
        passed = False
    if not passed:
        inv = _gauss_jordan_inverse(A, SINGULARITY_RTOL * scale)
    return inv


def lu_solve(f, b):
    """Solve A x = b with f = lu_factor(A)."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.shape[0]:
        raise ValueError(
            f"dimension mismatch: factor is {f.shape[0]}, b is {b.shape[0]}"
        )
    return f @ b


def lu_update(f, u, v):
    """Factor of A + u v^T from f = lu_factor(A), by Sherman-Morrison.

    Returns f - (f u)(v^T f) / (1 + v^T f u) in O(n^2).  By the matrix
    determinant lemma A + u v^T is singular when the denominator is zero;
    then, or when it is not finite, SingularMatrixError is raised with no
    pivot index.
    """
    fu = f @ u
    denom = 1.0 + float(v @ fu)
    if denom == 0.0 or not np.isfinite(denom):
        raise SingularMatrixError(None, "rank-1 update makes the matrix singular")
    return f - np.outer(fu, v @ f) / denom


def norm2(v):
    """Euclidean norm of a vector, as numpy.linalg.norm computes it.

    That is sqrt(v.dot(v)) on a contiguous copy, bit for bit, without
    norm's argument handling.
    """
    v = np.ascontiguousarray(v, dtype=float)
    return math.sqrt(v.dot(v))


def scatter_add(global_mat, local_mat, dof_map, signs=None):
    """Accumulate a local element matrix into a global one, in place.

    dof_map[i] gives the global index of local row/column i.  Optional
    `signs` flips local coordinate directions (e.g. a -theta_y plane
    coordinate) so sign[i]*sign[j]*local[i, j] lands at the mapped slot.
    """
    local = np.asarray(local_mat, dtype=float)
    dof_map = np.asarray(dof_map, dtype=int)
    n_glob = global_mat.shape[0]
    if np.any(dof_map < 0) or np.any(dof_map >= n_glob):
        raise IndexError(f"dof index out of range 0..{n_glob - 1}: {dof_map}")
    if signs is not None:
        s = np.asarray(signs, dtype=float)
        local = local * np.outer(s, s)
    global_mat[np.ix_(dof_map, dof_map)] += local
    return global_mat
