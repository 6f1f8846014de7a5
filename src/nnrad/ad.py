"""Forward-mode automatic differentiation on arrays of seed bundles.

An ADArray carries a value array together with the partial derivatives
("seeds") of every entry with respect to a fixed set of independent
inputs: ``seeds.shape == value.shape + (width,)``, so a scalar has a 0-d
value and a seed vector.  Arithmetic propagates the seeds by the exact
chain rule (vector forward mode), so Jacobians read off the seeds are
accurate to machine precision.  The bundle width is fixed when the
inputs are lifted; mixing bundles of different width is an error.

The same code evaluates on floats and NumPy arrays: every elementary
function here accepts either and returns a plain result for plain input.

Rows: an array whose leading axis indexes independent problems, say the
speeds of a sweep, carries that axis through every operation, and
``matvec``, ``dot`` and ``jacobian`` act row by row.  They form a stacked
product with one NumPy gufunc call, ``np.matvec``, ``np.vecdot`` or
``np.vecmat`` (NumPy >= 2.2), which reproduces the bits of the one-row
product; ``einsum`` or ``X @ A.T`` would not.  A one-row product is
``ndarray.dot``, which has the bits of ``@`` where both reach BLAS (every
layout the models pass) at about half of ``@``'s call cost.  ``dot`` does
not defer to an ADArray operand as ``@`` does, so a product with one goes
through ``matvec`` or ``dot`` here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ADArray",
    "ADDomainError",
    "lift",
    "stack",
    "jacobian",
    "matvec",
    "dot",
    "sin",
    "cos",
    "sqrt",
    "exp",
    "atan",
    "atan2",
    "pow_real",
    "relu_pow",
    "value_of",
]


class ADDomainError(ValueError):
    """An elementary operation was evaluated outside its domain."""


def _any(mask):
    """np.any for a comparison result, without np.any's dispatch cost."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _has_zero(v):
    """True when some entry of v is exactly zero (one pass for arrays)."""
    return not v.all() if isinstance(v, np.ndarray) else v == 0.0


def _col(c):
    """Array c with a trailing axis, so it scales each entry's seed row."""
    return c[..., None] if c.ndim else c


def _new(value, seeds):
    out = object.__new__(ADArray)
    out.value = value
    out.seeds = seeds
    return out


class ADArray:
    """Value array plus seed-derivative bundle. Treat instances as immutable.

    Supports elementwise arithmetic with other ADArrays of the same width
    and with constants (numbers and ndarrays; NumPy broadcasting applies
    to the values), indexing and iteration along the first axis, ``sum``,
    ``A @ x`` for a constant matrix A (``matvec``) and the dot product
    ``x @ y`` (``dot``), on vectors or row by row.  Comparisons act on
    values only.
    """

    __slots__ = ("value", "seeds")
    # NumPy defers every operator with an ADArray operand to its reflected
    # method here, instead of treating it as an object to broadcast.
    __array_ufunc__ = None

    def __init__(self, value, seeds):
        value = np.asarray(value, dtype=float)
        seeds = np.asarray(seeds, dtype=float)
        if seeds.shape[:-1] != value.shape or seeds.ndim == 0:
            raise ValueError(
                f"seeds of shape {seeds.shape} do not fit a value of shape "
                f"{value.shape}"
            )
        self.value = value
        self.seeds = seeds

    @property
    def width(self):
        return self.seeds.shape[-1]

    def __repr__(self):
        return f"ADArray({self.value!r}, seeds={self.seeds!r})"

    def __len__(self):
        return len(self.value)

    def __getitem__(self, index):
        return _new(self.value[index], self.seeds[index])

    def __iter__(self):
        return (self[i] for i in range(len(self.value)))

    def _seeds_of(self, other):
        """other's seeds, after checking that its width matches."""
        seeds = other.seeds
        if seeds.shape[-1] != self.seeds.shape[-1]:
            raise ValueError(
                f"seed width mismatch: {self.width} vs {other.width}"
            )
        return seeds

    def _spread(self, value):
        """Own seeds broadcast to a result value's shape."""
        if value.shape == self.value.shape:
            return self.seeds
        return np.zeros(value.shape + self.seeds.shape[-1:]) + self.seeds

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, ADArray):
            return _new(self.value + other.value, self.seeds + self._seeds_of(other))
        value = self.value + other
        return _new(value, self._spread(value))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ADArray):
            return _new(self.value - other.value, self.seeds - self._seeds_of(other))
        value = self.value - other
        return _new(value, self._spread(value))

    def __rsub__(self, other):
        value = other - self.value
        return _new(value, -self._spread(value))

    def __mul__(self, other):
        a = self.value
        if isinstance(other, ADArray):
            b = other.value
            sb = self._seeds_of(other)
            if a.ndim or b.ndim:  # _col, inlined on this hot path
                return _new(a * b, self.seeds * b[..., None] + sb * a[..., None])
            return _new(a * b, self.seeds * b + sb * a)
        if isinstance(other, np.ndarray) and other.ndim:
            return _new(a * other, self.seeds * other[..., None])
        return _new(a * other, self.seeds * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # The value a / b has the bits of the float quotient; the seeds
        # keep the product a * (1 / b).
        if isinstance(other, ADArray):
            seeds = self._seeds_of(other)
            if _has_zero(other.value):
                raise ADDomainError(f"division by zero (numerator {self.value})")
            inv = 1.0 / other.value
            qs = self.value * inv
            return _new(self.value / other.value,
                        (self.seeds - seeds * _col(qs)) * _col(inv))
        if _has_zero(other):
            raise ADDomainError(f"division by zero (numerator {self.value})")
        return _new(self.value / other, self.seeds * _col(np.asarray(1.0 / other)))

    def __rtruediv__(self, other):
        if _has_zero(self.value):
            raise ADDomainError(f"division by zero (numerator {other})")
        inv = 1.0 / self.value
        q = other / self.value
        qs = other * inv
        return _new(q, self._spread(qs) * _col(-qs * inv))

    def __neg__(self):
        return _new(-self.value, -self.seeds)

    def __pow__(self, p):
        return pow_real(self, p)

    def __matmul__(self, other):
        """x @ y: the dot product of vectors, or of rows (see dot)."""
        return dot(self, other)

    def __rmatmul__(self, A):
        """A @ x for a constant matrix (or vector) A (see matvec)."""
        return matvec(np.asarray(A, dtype=float), self)

    def sum(self, axis=None):
        ndim = self.value.ndim
        axes = tuple(range(ndim)) if axis is None else axis % ndim
        return _new(self.value.sum(axis=axes), self.seeds.sum(axis=axes))

    # Comparisons act on values only; useful for branch selection.

    def __lt__(self, other):
        return self.value < value_of(other)

    def __le__(self, other):
        return self.value <= value_of(other)

    def __gt__(self, other):
        return self.value > value_of(other)

    def __ge__(self, other):
        return self.value >= value_of(other)

    def __float__(self):
        return float(self.value)


def value_of(a):
    """Value part of an ADArray; plain numbers and arrays pass through."""
    return a.value if isinstance(a, ADArray) else a


# -- lifting and stacking -----------------------------------------------


def lift(x):
    """Lift a real vector to an ADArray with identity seeding.

    Entry i receives seed vector e_i, so a single evaluation of a
    function on the lifted inputs yields all columns of its Jacobian.
    Iterating the result gives its 0-d entries: ``x, y = lift([1, 2])``.
    A (B, n) array of rows gives every row the same identity seeding.
    """
    x = np.array(x, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("lift expects a nonempty 1-D vector or (B, n) rows")
    if x.ndim == 2:
        return _new(x, np.repeat(np.eye(x.shape[1])[None], x.shape[0], axis=0))
    return _new(x, np.eye(x.size))


def stack(xs):
    """One 1-D ADArray from a sequence of 0-d ADArrays and numbers.

    ADArrays pass through; an ndarray or a sequence without any ADArray
    entry becomes a float ndarray.  Numbers get all-zero seeds.
    """
    if isinstance(xs, ADArray):
        return xs
    if isinstance(xs, np.ndarray):
        return xs.astype(float, copy=False)
    if len(xs) == 1 and isinstance(xs[0], ADArray):  # the [f] of a 1-DOF model
        return _new(xs[0].value[None], xs[0].seeds[None])
    width = next((x.width for x in xs if isinstance(x, ADArray)), None)
    if width is None:
        return np.asarray(xs, dtype=float)
    zeros = np.zeros(width)
    value = np.array([value_of(x) for x in xs], dtype=float)
    seeds = np.array([x.seeds if isinstance(x, ADArray) else zeros for x in xs])
    if seeds.shape != value.shape + (width,):
        raise ValueError("stack expects 0-d entries of one seed width")
    return _new(value, seeds)


def _seeded(x, seeds):
    """The float array x as an ADArray with the (n, width) seeds on each row.

    No checks: x must be a float ndarray whose last axis has length n.
    """
    if x.shape != seeds.shape[:-1]:
        rows = np.empty(x.shape + seeds.shape[-1:])
        rows[...] = seeds
        seeds = rows
    return _new(x, seeds)


def jacobian(f, x0):
    """Dense Jacobian of a vector function at x0 via one forward pass.

    f maps a lifted 1-D ADArray to an ADArray or to a sequence of 0-d
    ADArrays and numbers (numbers where f is locally constant).
    Returns an (m, n) array with row i = d f_i / d x_j.

    With (B, n) rows x0, f maps the lifted rows to (B, m) rows and the
    result is the (B, m, n) stack of each row's Jacobian.
    """
    x = lift(x0)
    out = stack(f(x))
    rows, n = x.value.shape[:-1], x.value.shape[-1]
    if not isinstance(out, ADArray):
        if rows:
            return np.zeros(np.shape(out) + (n,))
        return np.zeros((np.size(out), n))
    if out.seeds.shape[-1] != n:
        raise ValueError("output seed width does not match input")
    # A copy: f may return seeds that it keeps, such as its input's.
    return out.seeds.reshape(rows + (-1, n)).copy()


def matvec(A, x):
    """A @ x for a constant matrix A and a vector x, or for each row of x.

    x may be an ADArray or an ndarray.  With rows, x of shape (B, n), A
    is an (m, n) matrix or a (B, m, n) stack and the result has shape
    (B, m); the value is one np.matvec call, which gives the bits of
    ``A @ x[i]``, and the seeds one np.matmul.  A is an ndarray; a vector
    x takes ``A.dot``.
    """
    if isinstance(x, ADArray):
        ndim = x.value.ndim
        if ndim == 0:
            raise ValueError("A @ x needs an ADArray x of at least one axis")
        if ndim == 1:
            return _new(A.dot(x.value), A.dot(x.seeds))
        return _new(np.matvec(A, x.value), np.matmul(A, x.seeds))
    return A.dot(x) if x.ndim == 1 else np.matvec(A, x)


def dot(x, y):
    """x @ y of vectors, or of each pair of rows, kept as a column.

    For 1-D x and y this is the 0-d ``x @ y``.  For rows of shape (B, n)
    the result has shape (B, 1), so it broadcasts against the rows it
    came from; the value is one np.vecdot call and each operand's seeds
    one np.vecmat call, which give the bits of ``x[i] @ y[i]``.  x, y
    may be ADArrays or ndarrays.
    """
    x_ad, y_ad = isinstance(x, ADArray), isinstance(y, ADArray)
    a = x.value if x_ad else x
    b = y.value if y_ad else y
    ndim = a.ndim
    if ndim != b.ndim or ndim == 0:
        raise ValueError("x @ y needs x and y both 1-D or both rows")
    if ndim == 1:
        value = a.dot(b)
        if x_ad:
            if y_ad:
                return _new(value, b.dot(x.seeds) + a.dot(x._seeds_of(y)))
            return _new(value, b.dot(x.seeds))
        if y_ad:
            return _new(value, a.dot(y.seeds))
        return value
    value = np.vecdot(a, b)[..., None]
    if x_ad:
        seeds = np.vecmat(b, x.seeds)
        if y_ad:
            seeds = seeds + np.vecmat(a, x._seeds_of(y))
        return _new(value, seeds[..., None, :])
    if y_ad:
        return _new(value, np.vecmat(a, y.seeds)[..., None, :])
    return value


# -- elementary functions -----------------------------------------------


def sin(a):
    if isinstance(a, ADArray):
        return _new(np.sin(a.value), a.seeds * _col(np.cos(a.value)))
    return np.sin(a)


def cos(a):
    if isinstance(a, ADArray):
        return _new(np.cos(a.value), a.seeds * _col(-np.sin(a.value)))
    return np.cos(a)


def exp(a):
    if isinstance(a, ADArray):
        e = np.exp(a.value)
        return _new(e, a.seeds * _col(e))
    return np.exp(a)


def sqrt(a):
    v = value_of(a)
    if _any(v <= 0.0):
        raise ADDomainError(f"sqrt of non-positive value {v}")
    s = np.sqrt(v)
    if isinstance(a, ADArray):
        return _new(s, a.seeds * _col(0.5 / s))
    return s


def atan(a):
    if isinstance(a, ADArray):
        v = a.value
        return _new(np.arctan(v), a.seeds * _col(1.0 / (1.0 + v * v)))
    return np.arctan(a)


def atan2(y, x):
    """Quadrant-correct arctangent; undefined at (0, 0)."""
    yv, xv = value_of(y), value_of(x)
    if _any((yv == 0.0) & (xv == 0.0)):
        raise ADDomainError("atan2 undefined at (0, 0)")
    angle = np.arctan2(yv, xv)
    if not isinstance(y, ADArray) and not isinstance(x, ADArray):
        return angle
    r2 = xv * xv + yv * yv
    seeds = 0.0
    if isinstance(y, ADArray):
        seeds = y.seeds * _col(xv / r2)
    if isinstance(x, ADArray):
        seeds = seeds - x.seeds * _col(yv / r2)
    return _new(angle, seeds)


def pow_real(a, p):
    """a**p for real exponent p; non-integer p needs a >= 0."""
    p = float(p)
    v = value_of(a)
    if p != round(p) and _any(v < 0.0):
        raise ADDomainError(f"pow_real: negative base {v} with exponent {p}")
    if not isinstance(a, ADArray):
        return v**p
    # d/da a^p at a = 0 is 0 for p > 1 and 1 for p == 1 (0**0 == 1).
    if p < 1.0 and _has_zero(v):
        raise ADDomainError(f"pow_real: zero base with exponent {p} < 1")
    return _new(v**p, a.seeds * _col(p * v ** (p - 1.0)))


def relu_pow(a, p):
    """max(a, 0)**p with p > 1: the clipped power of contact models.

    Continuous with continuous value at the onset a = 0; the derivative
    p*max(a,0)**(p-1) is continuous there because p > 1 and is exactly
    0 for every a <= 0.
    """
    p = float(p)
    if p <= 1.0:
        raise ADDomainError(f"relu_pow requires exponent > 1, got {p}")
    pos = np.maximum(value_of(a), 0.0)
    if not isinstance(a, ADArray):
        return pos**p
    return _new(pos**p, a.seeds * _col(p * pos ** (p - 1.0)))
