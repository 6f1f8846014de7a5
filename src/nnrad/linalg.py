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

Rank-k base: ``lu_factor(A, base=(B, f_B, cols))`` takes a matrix B that
equals A outside the k columns cols, and f_B = lu_factor(B).  With
D = A[:, cols] - B[:, cols] and W = f_B D, the Woodbury identity gives
A^-1 = f_B - W (I_k + W[cols])^-1 f_B[cols]: a k x k inverse and a few
products instead of an n x n inverse (Hager, "Updating the inverse of a
matrix", SIAM Review 31, 1989).  The result goes through the same
screen; if it fails, or ``inv`` raises, A is factored directly, so the
singular rule and the pivot reported are those of the direct path.  The
Newton loop passes A_eff as the base of its step Jacobians when the
model's F_nl reads k <= n/2 DOFs (newmark.SolveTerms).

Stacks: ``lu_factor``, ``lu_solve``, ``lu_update`` and ``norm2`` also take
a leading row axis, a (B, n, n) stack of matrices with (B, n) right-hand
sides, and treat each row as its own problem, the singularity screen
included, with a base of stacked B and f_B.  Each row's result has the
bits of the one-row call.
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
    """A is singular at pivot_index; row names the matrix of a stack."""

    def __init__(self, pivot_index, message=None, row=None):
        self.pivot_index = pivot_index
        self.row = row
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


def _passes(scale, inv):
    """The screen max|A| ||A^-1||_inf < SCREEN_MARGIN / (n SINGULARITY_RTOL).

    scale is max|A|, per row for a stack; a non-finite inverse fails.
    """
    n = inv.shape[-1]
    return scale * np.abs(inv).sum(axis=-1).max(axis=-1) < SCREEN_MARGIN / (
        n * SINGULARITY_RTOL
    )


def _rank_k_inverse(A, B, f_B, cols):
    """A^-1 from f_B = B^-1, A and B equal outside cols (Woodbury); rows too."""
    D = A[..., cols] - B[..., cols]
    W = np.matmul(f_B, D)
    small = np.linalg.inv(np.eye(len(cols)) + W[..., cols, :])
    return f_B - np.matmul(W, np.matmul(small, f_B[..., cols, :]))


def lu_factor(A, base=None):
    """Factor A for lu_solve; raises SingularMatrixError on a tiny pivot.

    A pivot counts as singular when its magnitude is at or under
    1e-14 * max|A| (see the module docstring for the screen).  base,
    (B, f_B, cols) with B equal to A outside the columns cols and
    f_B = lu_factor(B), forms the inverse as a rank-k update of f_B
    where the screen passes it (module docstring).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"lu_factor expects a square matrix, got {A.shape}")
    if A.ndim > 2:
        return _lu_factor_rows(A, base)
    scale = np.abs(A).max()
    try:
        inv = np.linalg.inv(A) if base is None else _rank_k_inverse(A, *base)
        passed = _passes(scale, inv)
    except np.linalg.LinAlgError:
        passed = False
    if not passed:
        if base is not None:
            return lu_factor(A)
        inv = _gauss_jordan_inverse(A, SINGULARITY_RTOL * scale)
    return inv


def _lu_factor_rows(A, base):
    """lu_factor of each matrix of a (B, n, n) stack, on stacked bases too.

    The inverses come from one stacked ``numpy.linalg.inv`` or rank-k
    update; a row that fails its screen, or a stack that ``inv`` rejects,
    is factored on its own with its own base.  The first singular row
    raises SingularMatrixError with ``row`` set.
    """
    scale = np.abs(A).max(axis=(-2, -1))
    try:
        inv = np.linalg.inv(A) if base is None else _rank_k_inverse(A, *base)
        passed = _passes(scale, inv)
    except np.linalg.LinAlgError:
        inv = np.empty_like(A)
        passed = np.zeros(len(A), dtype=bool)
    for i in np.flatnonzero(~passed):
        row_base = None if base is None else (base[0][i], base[1][i], base[2])
        try:
            inv[i] = lu_factor(A[i], row_base)
        except SingularMatrixError as err:
            raise SingularMatrixError(err.pivot_index, row=int(i)) from err
    return inv


def lu_solve(f, b):
    """Solve A x = b with f = lu_factor(A), or each row of a stack."""
    b = np.asarray(b, dtype=float)
    if f.ndim > 2:
        if b.shape != f.shape[:-1]:
            raise ValueError(f"dimension mismatch: factors {f.shape}, b {b.shape}")
        return np.matmul(f, b[..., None])[..., 0]
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
    pivot index.  A stack of factors takes (B, n) rows u and v; the first
    row whose denominator fails raises with ``row`` set.
    """
    if f.ndim > 2:
        fu = np.matmul(f, u[..., None])
        denom = 1.0 + np.matmul(v[..., None, :], fu)
        bad = (denom == 0.0) | ~np.isfinite(denom)
        if bad.any():
            raise SingularMatrixError(
                None, "rank-1 update makes the matrix singular",
                row=int(np.flatnonzero(bad)[0]),
            )
        return f - fu * np.matmul(v[..., None, :], f) / denom
    fu = f @ u
    denom = 1.0 + float(v @ fu)
    if denom == 0.0 or not np.isfinite(denom):
        raise SingularMatrixError(None, "rank-1 update makes the matrix singular")
    return f - np.outer(fu, v @ f) / denom


def norm2(v):
    """Euclidean norm of a vector, as numpy.linalg.norm computes it.

    That is sqrt(v.dot(v)) on a contiguous copy, bit for bit, without
    norm's argument handling.  Rows of shape (B, n) give the (B,) norms of
    the rows, each with the bits of its own norm2.
    """
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim > 1:
        return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])
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
