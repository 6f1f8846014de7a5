"""Dense linear algebra helpers: factor/solve, norms, FE scatter-assembly.

``lu_factor`` returns the explicit inverse of A, computed by
``numpy.linalg.inv``, or, for a block update of a matrix whose inverse
is known, a lazy Woodbury factor (below); ``lu_solve`` applies either,
and ``lu_update`` applies a rank-1 change of A to the explicit inverse in
O(n^2).  On the Newton loop's matrices, at most a few dozen rows, that
costs less than SciPy's LU factors and triangular solves, and it needs
no SciPy.

Singular rule: A is singular when partial-pivot LU elimination meets a
pivot U_kk with |U_kk| <= SINGULARITY_RTOL * max|A|; SingularMatrixError
then reports the first such k, or the k whose elimination step overflows
(A = [[1e-310]]).  The inverse screens for this cheaply.
With partial pivoting every |L_ij| <= 1, so U^-1 = A^-1 P^T L gives
||A^-1||_inf >= 1/(n |U_kk|) for every pivot, and a small pivot forces
max|A| * ||A^-1||_inf >= 1/(n * SINGULARITY_RTOL).  Only when ``inv``
raises, returns non-finite values, or that product comes within
SCREEN_MARGIN of the bound, does a partial-pivot Gauss-Jordan elimination
run; it applies the exact pivot rule and, if no pivot is small, supplies
the inverse.

A 1x1 [[a]] with a and 1/a finite and a nonzero is inverted as
[[1.0 / a]], the bits of ``numpy.linalg.inv``, which passes the screen by
construction; any other 1x1 takes the general path.

Rank-k base: ``lu_factor(D, base)`` factors A = B + P D Q^T, that is B
with the block D added on its rows base.rows and its k columns
base.cols (P = I[:, rows], Q = I[:, cols]), where
base = rank_k_base(B, f_B, rows, cols).  Every step Jacobian of the
Newton loop is factored so, B being A_eff (newmark.SolveTerms), and the
base alone picks the route:

- f_B is None: A = base.matrix(D) is formed and factored directly.
- k = 0: A is B, and its factor is f_B = lu_factor(B) itself, read-only.
- Otherwise the factor is lazy: (f_B, f_rows, K, cols), with
  f_rows = f_B[:, rows] and K = D (I_k + f_B[cols][:, rows] D)^-1, a k x k
  inverse and k x k products per factor.  By the Woodbury identity
  A^-1 = f_B - f_rows K f_B[cols] (Hager, "Updating the inverse of a
  matrix", SIAM Review 31, 1989), so lu_solve gives y - f_rows (K y[cols])
  with y = f_B b, and neither A nor A^-1 is formed.  The screen takes an
  upper bound instead: max|A| <= max(off_max, ||B[rows, cols] + D||_F),
  off_max being max|B| outside the block, and
  ||A^-1||_inf <= ||f_B||_inf + sqrt(k) ||f_rows||_inf ||f_B[cols]||_inf ||K||_F,
  whose norms of f_B the base computes once.  If the bound reaches the
  screen's limit, or ``inv`` raises, A is formed and factored directly,
  so the singular rule and the pivot reported are those of the direct
  path.  lu_update forms the explicit inverse from a lazy factor.

Stacks: ``lu_factor``, ``lu_solve``, ``lu_update`` and ``norm2`` also take
a leading row axis, a (B, n, n) stack of matrices with (B, n) right-hand
sides, and treat each row as its own problem, the singularity screen
included; with a base, a stack of blocks D and a base built from a
stacked B and f_B.  Each row's result has the bits of the one-row call:
the stacked products are single ``np.matvec``, ``np.vecmat`` and
``np.vecdot`` calls (NumPy >= 2.2).  In a stack's lazy factor, a row
whose bound fails is factored directly: its inverse takes that row's
place in f_B, with zero f_rows and K, so its solve subtracts zero from
the direct one.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "RankKBase",
    "SingularMatrixError",
    "lu_factor",
    "lu_solve",
    "lu_update",
    "norm2",
    "rank_k_base",
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
    SingularMatrixError at the first one at or under threshold, or at
    the one whose elimination step overflows.
    """
    n = A.shape[0]
    W = np.hstack([A, np.eye(n)])
    try:
        with np.errstate(over="raise"):
            for k in range(n):
                p = k + int(np.argmax(np.abs(W[k:, k])))
                if abs(W[p, k]) <= threshold:
                    raise SingularMatrixError(k)
                W[[k, p]] = W[[p, k]]
                W[k] /= W[k, k]
                col = W[:, k].copy()
                col[k] = 0.0
                W -= np.outer(col, W[k])
    except FloatingPointError:
        raise SingularMatrixError(k, f"matrix inverse overflows at pivot {k}") from None
    return W[:, n:]


def _limit(n):
    """The bound SCREEN_MARGIN / (n SINGULARITY_RTOL) on max|A| ||A^-1||_inf."""
    return SCREEN_MARGIN / (n * SINGULARITY_RTOL)


def _inf_norm(f):
    """||f||_inf, per row for a stack; 0 for a matrix with no columns."""
    return np.abs(f).sum(axis=-1).max(axis=-1, initial=0.0)


def _passes(scale, inv):
    """The screen max|A| ||A^-1||_inf < SCREEN_MARGIN / (n SINGULARITY_RTOL).

    scale is max|A|, a float for one matrix and per row for a stack; a
    non-finite inverse fails.  Callers fail a non-finite max|A|
    themselves: on a stack, inf * 0 would warn.
    """
    bound = _limit(inv.shape[-1])
    if inv.ndim > 2:
        return scale * np.abs(inv).sum(axis=-1).max(axis=-1) < bound
    return scale * float(np.abs(inv).sum(axis=1).max()) < bound


class RankKBase(NamedTuple):
    """A matrix B, its factor f_B and what every factor of B + P D Q^T shares.

    Built by rank_k_base.  lu_factor(D, base) factors base.matrix(D), B
    with the block D added on (rows, cols), by the route the base fixes
    (module docstring).  B, f_B and the fields derived from them may
    carry a leading row axis (a stack); rows, cols and eye are shared.
    f_B is read-only, or None, and then so are f_rows, f_cross, f_norm
    and w_norm.  f_rows and f_cross are C-contiguous, so that a row of a
    stack reaches BLAS as its one-row base does and the products keep
    their bits.  off_max, f_norm and w_norm are floats for one matrix.
    """

    B: np.ndarray
    f_B: Optional[np.ndarray]
    rows: np.ndarray
    cols: np.ndarray
    eye: np.ndarray  # I_k
    f_rows: Optional[np.ndarray]  # f_B[:, rows]
    f_cross: Optional[np.ndarray]  # f_B[cols][:, rows]
    block: np.ndarray  # B[rows, cols]
    off_max: np.ndarray  # max|B| outside the block
    f_norm: Optional[np.ndarray]  # ||f_B||_inf
    w_norm: Optional[np.ndarray]  # sqrt(k) ||f_B[:, rows]||_inf ||f_B[cols]||_inf

    def matrix(self, D):
        """B with the block D added on (rows, cols), formed: B + D when the
        block is all of B; a stack of blocks gives a stack of matrices."""
        if D.shape[-2:] == self.B.shape[-2:]:
            return self.B + D
        A = self.B.copy()
        A[..., self.rows[:, None], self.cols] += D
        return A

    def row(self, i):
        """The base of row i of a stacked base whose f_B is not None."""
        return self._replace(B=self.B[i], f_B=self.f_B[i], f_rows=self.f_rows[i],
                             f_cross=self.f_cross[i], block=self.block[i],
                             off_max=float(self.off_max[i]),
                             f_norm=float(self.f_norm[i]), w_norm=float(self.w_norm[i]))

    def lazy(self, D):
        """The lazy factor (f_B, f_rows, K, cols) of self.matrix(D), unscreened:
        K = D (I_k + f_B[cols][:, rows] D)^-1, whose inv may raise.

        One block takes its products from ndarray.dot, a stack from
        np.matmul: both reach BLAS on contiguous operands, so a row of a
        stack has the bits of its one-row call.
        """
        if D.ndim > 2:
            K = np.matmul(D, np.linalg.inv(self.eye + np.matmul(self.f_cross, D)))
        else:
            K = D.dot(np.linalg.inv(self.eye + self.f_cross.dot(D)))
        return self.f_B, self.f_rows, K, self.cols

    def inverse(self, D):
        """The inverse of self.matrix(D), formed from its lazy factor."""
        return _explicit(self.lazy(D))

    def _bounded(self, scale, K):
        """The screen's bound passes: scale times an upper bound of ||A^-1||_inf
        from K's Frobenius norm stays under the limit (module docstring)."""
        k_norm = norm2(K.reshape(len(K), -1) if K.ndim > 2 else K.ravel())
        return scale * (self.f_norm + self.w_norm * k_norm) < _limit(self.f_B.shape[-1])

    def factor(self, D):
        """The lazy factor of self.matrix(D) (k >= 1), or the factor formed
        directly where the bound fails it or inv raises."""
        if D.ndim > 2:
            return self._factor_stack(D)
        # An upper bound of max|self.matrix(D)|; max's first argument wins a
        # comparison with NaN, so a NaN in D stays.
        scale = max(norm2((self.block + D).ravel()), self.off_max)
        if math.isfinite(scale):  # else it fails unscreened: inf * 0 would warn
            try:
                f = self.lazy(D)
            except np.linalg.LinAlgError:
                f = None
            if f is not None and self._bounded(scale, f[2]):
                return f
        return lu_factor(self.matrix(D))

    def _factor_stack(self, D):
        """factor for a stack.  A row whose bound fails, or every row when inv
        raises, takes its one-row factor: K from a lazy one, or, from an
        explicit one, its place in f_B, with zero f_rows and K."""
        scale = np.maximum(norm2((self.block + D).reshape(len(D), -1)), self.off_max)
        scale[~np.isfinite(scale)] = np.nan  # NaN fails without inf * 0's warning
        try:
            K = self.lazy(D)[2]
            passed = self._bounded(scale, K)
        except np.linalg.LinAlgError:
            K, passed = np.empty(D.shape), np.zeros(len(D), dtype=bool)
        f_B, f_rows = self.f_B, self.f_rows
        if not passed.all():
            f_B, f_rows = f_B.copy(), f_rows.copy()
            for i, f in _each_row(~passed, lambda i: lu_factor(D[i], self.row(i))):
                if isinstance(f, tuple):
                    K[i] = f[2]
                else:
                    f_B[i], f_rows[i], K[i] = f, 0.0, 0.0
        return f_B, f_rows, K, self.cols


def rank_k_base(B, f_B, rows, cols):
    """The RankKBase of B for blocks on (rows, cols), with f_B = lu_factor(B),
    or None to factor every matrix directly; B and f_B may be (S, n, n)
    stacks.  f_B is made read-only: at k = 0 lu_factor returns it."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    outside = np.abs(B)
    outside[..., rows[:, None], cols] = 0.0
    off_max = outside.max(axis=(-2, -1))
    f_rows = f_cross = f_norm = w_norm = None
    if f_B is not None:
        f_B.flags.writeable = False
        f_rows = np.ascontiguousarray(f_B[..., :, rows])
        f_cols = f_B[..., cols, :]
        f_cross = np.ascontiguousarray(f_cols[..., rows])
        f_norm = _inf_norm(f_B)
        w_norm = math.sqrt(len(cols)) * _inf_norm(f_rows) * _inf_norm(f_cols)
    if B.ndim == 2:
        off_max, f_norm, w_norm = (None if a is None else float(a)
                                   for a in (off_max, f_norm, w_norm))
    return RankKBase(B, f_B, rows, cols, np.eye(len(cols)), f_rows, f_cross,
                     B[..., rows[:, None], cols], off_max, f_norm, w_norm)


def lu_factor(A, base=None):
    """Factor A for lu_solve; raises SingularMatrixError on a tiny pivot.

    A pivot counts as singular when its magnitude is at or under
    1e-14 * max|A| (see the module docstring for the screen).  The factor
    is the explicit inverse of A.  With base, a RankKBase of B, A is a
    block D and the factor is that of base.matrix(D), B with D added on
    (base.rows, base.cols), by the route the base fixes: formed and
    factored directly when base.f_B is None, f_B itself at k = 0, else
    the lazy factor (f_B, f_rows, K, cols), or the explicit inverse where
    its bound fails (module docstring).
    """
    A = np.asarray(A, dtype=float)
    if base is not None:
        if base.f_B is None:
            A = base.matrix(A)
        elif not len(base.cols):
            return base.f_B
        else:
            return base.factor(A)
    if A.shape == (1, 1):
        a = float(A[0, 0])
        if a != 0.0 and math.isfinite(a) and math.isfinite(r := 1.0 / a):
            return np.array([[r]])
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"lu_factor expects a square matrix, got {A.shape}")
    if A.ndim > 2:
        return _factor_rows(np.abs(A).max(axis=(-2, -1)), lambda: np.linalg.inv(A),
                            A.shape, lambda i: lu_factor(A[i]))
    scale = float(np.abs(A).max())
    if math.isfinite(scale):  # else it fails unscreened: inf * 0 would warn
        try:
            inv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            pass
        else:
            if _passes(scale, inv):
                return inv
    return _gauss_jordan_inverse(A, SINGULARITY_RTOL * scale)


def _each_row(failed, factor_row):
    """(i, factor_row(i)) for each row i where failed is set, in order; the
    first singular row raises SingularMatrixError with ``row`` set."""
    for i in np.flatnonzero(failed):
        try:
            f = factor_row(i)
        except SingularMatrixError as err:
            raise SingularMatrixError(err.pivot_index, str(err), row=int(i)) from err
        yield i, f


def _factor_rows(scale, inverse, shape, factor_row):
    """The factors of a stack of the given shape: inverse(), the stacked
    inverse, screened per row with max|A| = scale.  A row that fails its
    screen, or every row when inverse raises, is factor_row(i).
    """
    # A row with a non-finite max|A| fails the screen as NaN, which,
    # unlike inf * 0, multiplies without a warning.
    scale[~np.isfinite(scale)] = np.nan
    try:
        inv = inverse()
        passed = _passes(scale, inv)
    except np.linalg.LinAlgError:
        inv, passed = np.empty(shape), np.zeros(len(scale), dtype=bool)
    for i, f in _each_row(~passed, factor_row):
        inv[i] = f
    return inv


def _explicit(f):
    """The explicit inverse f_B - f_rows K f_B[cols] of a lazy factor, one
    matrix or a stack (np.matmul on both, so a row keeps its bits)."""
    f_B, f_rows, K, cols = f
    return f_B - np.matmul(f_rows, np.matmul(K, f_B[..., cols, :]))


def lu_solve(f, b):
    """Solve A x = b with f = lu_factor(A), or each row of a stack (one
    np.matvec call per product).

    A lazy factor (f_B, f_rows, K, cols) gives y - f_rows (K y[cols]),
    y = f_B b, by Woodbury.
    """
    b = np.asarray(b, dtype=float)
    lazy = isinstance(f, tuple)
    f_B = f[0] if lazy else f
    if f_B.ndim > 2:
        if b.shape != f_B.shape[:-1]:
            raise ValueError(f"dimension mismatch: factors {f_B.shape}, b {b.shape}")
        y = np.matvec(f_B, b)
        return y - np.matvec(f[1], np.matvec(f[2], y[..., f[3]])) if lazy else y
    if b.shape[0] != f_B.shape[0]:
        raise ValueError(
            f"dimension mismatch: factor is {f_B.shape[0]}, b is {b.shape[0]}"
        )
    y = f_B.dot(b)
    return y - f[1].dot(f[2].dot(y[f[3]])) if lazy else y


def lu_update(f, u, v):
    """Factor of A + u v^T from f = lu_factor(A), by Sherman-Morrison.

    Returns f - (f u)(v^T f) / (1 + v^T f u) in O(n^2), from the explicit
    inverse of a lazy factor.  By the matrix determinant lemma A + u v^T
    is singular when the denominator is zero; then, or when it is not
    finite, SingularMatrixError is raised with no pivot index.  A stack of
    factors takes (B, n) rows u and v; the first row whose denominator
    fails raises with ``row`` set.
    """
    if isinstance(f, tuple):
        f = _explicit(f)
    if f.ndim > 2:
        fu = np.matvec(f, u)
        denom = 1.0 + np.vecdot(v, fu)
        bad = (denom == 0.0) | ~np.isfinite(denom)
        if bad.any():
            raise SingularMatrixError(
                None, "rank-1 update makes the matrix singular",
                row=int(np.flatnonzero(bad)[0]),
            )
        return f - fu[..., None] * np.vecmat(v, f)[..., None, :] / denom[..., None, None]
    fu = f.dot(u)
    denom = 1.0 + float(v.dot(fu))
    if denom == 0.0 or not math.isfinite(denom):
        raise SingularMatrixError(None, "rank-1 update makes the matrix singular")
    return f - np.outer(fu, v.dot(f)) / denom


def norm2(v):
    """Euclidean norm of a vector, as numpy.linalg.norm computes it.

    That is sqrt(v.dot(v)) on a contiguous copy, bit for bit, without
    norm's argument handling.  Rows of shape (B, n) give the (B,) norms of
    the rows from one np.vecdot call, each with the bits of its own norm2.
    """
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim > 1:
        return np.sqrt(np.vecdot(v, v))
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
