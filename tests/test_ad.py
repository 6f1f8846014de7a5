import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrad import ad
from nnrad.ad import ADArray, ADDomainError


def const(value, width):
    """An AD value with all-zero seeds."""
    return ADArray(value, np.zeros(width))


def central_fd_jacobian(f, x0, h=1e-6):
    """Finite-difference oracle, independent of the seed-propagation path."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(x0), dtype=float)
    J = np.zeros((f0.size, x0.size))
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = h
        J[:, j] = (np.asarray(f(x0 + e)) - np.asarray(f(x0 - e))) / (2 * h)
    return J


class TestLift:
    def test_single_input_identity_seed(self):
        (x,) = ad.lift([3.0])
        assert x.value == 3.0
        assert np.array_equal(x.seeds, [1.0])

    def test_two_inputs_identity_seeding(self):
        x, y = ad.lift([3.0, 5.0])
        assert np.array_equal(x.seeds, [1.0, 0.0])
        assert np.array_equal(y.seeds, [0.0, 1.0])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            ad.lift([])


class TestElementaryOps:
    def test_square_of_sum(self):
        # f = (x+y)^2 at (3,5): value 64, df/dx = df/dy = 2(x+y) = 16
        x, y = ad.lift([3.0, 5.0])
        f = (x + y) * (x + y)
        assert f.value == 64.0
        assert np.allclose(f.seeds, [16.0, 16.0])

    def test_sin_at_zero(self):
        (x,) = ad.lift([0.0])
        s = ad.sin(x)
        assert s.value == 0.0
        assert np.allclose(s.seeds, [1.0])

    def test_relu_pow_inactive_branch(self):
        (x,) = ad.lift([-0.2])
        r = ad.relu_pow(x, 10.0 / 9.0)
        assert r.value == 0.0
        assert np.array_equal(r.seeds, [0.0])

    def test_relu_pow_active_branch(self):
        (x,) = ad.lift([0.5])
        p = 10.0 / 9.0
        r = ad.relu_pow(x, p)
        assert r.value == pytest.approx(0.5**p)
        assert r.seeds[0] == pytest.approx(p * 0.5 ** (p - 1))

    def test_relu_pow_requires_p_above_one(self):
        with pytest.raises(ADDomainError):
            ad.relu_pow(const(1.0, 1), 1.0)

    def test_division_by_zero(self):
        x, y = ad.lift([1.0, 0.0])
        with pytest.raises(ADDomainError):
            x / y

    def test_sqrt_domain(self):
        with pytest.raises(ADDomainError):
            ad.sqrt(const(-1.0, 1))

    def test_pow_real_negative_base_fractional(self):
        with pytest.raises(ADDomainError):
            ad.pow_real(const(-2.0, 1), 0.5)

    def test_atan2_quadrants(self):
        for yv, xv in [(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)]:
            y, x = ad.lift([yv, xv])
            a = ad.atan2(y, x)
            assert a.value == pytest.approx(math.atan2(yv, xv))
            r2 = xv * xv + yv * yv
            assert np.allclose(a.seeds, [xv / r2, -yv / r2])

    def test_atan2_origin_rejected(self):
        with pytest.raises(ADDomainError):
            ad.atan2(0.0, 0.0)

    def test_width_mismatch_rejected(self):
        a = const(1.0, 2)
        b = const(1.0, 3)
        with pytest.raises(ValueError):
            a + b

    def test_mixed_float_arithmetic(self):
        (x,) = ad.lift([2.0])
        f = 3.0 * x + 1.0 - x / 2.0
        assert f.value == pytest.approx(6.0)
        assert f.seeds[0] == pytest.approx(2.5)


class TestJacobian:
    def test_identity_map(self):
        J = ad.jacobian(lambda xs: xs, [1.0, 2.0, 3.0])
        assert np.array_equal(J, np.eye(3))

    def test_square_of_sum(self):
        J = ad.jacobian(lambda xs: [(xs[0] + xs[1]) * (xs[0] + xs[1])], [3.0, 5.0])
        assert np.allclose(J, [[16.0, 16.0]])

    def test_constant_function_zero_matrix(self):
        J = ad.jacobian(lambda xs: [5.0, -1.0], [1.0, 2.0])
        assert np.array_equal(J, np.zeros((2, 2)))

    def test_duffing_residual_vs_finite_differences(self):
        # Algebraic Duffing-style residual; oracle is central differences.
        rng = np.random.default_rng(7)

        def f_ad(xs):
            return [
                xs[0] + xs[1] * xs[1] * xs[1] * 3.0 - ad.cos(xs[1]),
                ad.sin(xs[0]) * xs[1] + ad.exp(xs[0] * 0.3),
            ]

        def f_np(x):
            return [
                x[0] + 3.0 * x[1] ** 3 - np.cos(x[1]),
                np.sin(x[0]) * x[1] + np.exp(0.3 * x[0]),
            ]

        for _ in range(20):
            x0 = rng.standard_normal(2)
            J_ad = ad.jacobian(f_ad, x0)
            J_fd = central_fd_jacobian(f_np, x0)
            denom = max(np.max(np.abs(J_fd)), 1e-12)
            assert np.max(np.abs(J_ad - J_fd)) / denom < 1e-6

    @given(
        alpha=st.floats(-5, 5, allow_nan=False),
        beta=st.floats(-5, 5, allow_nan=False),
        x0=st.floats(-2, 2),
        x1=st.floats(-2, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, alpha, beta, x0, x1):
        def f(xs):
            return [ad.sin(xs[0]) + xs[1] * xs[1], xs[0] * xs[1]]

        def g(xs):
            return [ad.cos(xs[1]), xs[0] * 3.0 - xs[1]]

        def combo(xs):
            fv, gv = f(xs), g(xs)
            return [alpha * fv[i] + beta * gv[i] for i in range(2)]

        x = np.array([x0, x1])
        J = ad.jacobian(combo, x)
        J_ref = alpha * ad.jacobian(f, x) + beta * ad.jacobian(g, x)
        assert np.allclose(J, J_ref, rtol=0, atol=1e-12 * (1 + np.max(np.abs(J_ref))))

    def test_chain_rule_composition(self):
        rng = np.random.default_rng(11)

        def k(xs):
            return [xs[0] * xs[1], ad.sin(xs[0]) + xs[1]]

        def h(ys):
            return [ad.exp(ys[0] * 0.2) - ys[1], ys[0] + ys[1] * ys[1]]

        for _ in range(20):
            x = rng.standard_normal(2)
            J_comp = ad.jacobian(lambda xs: h(k(xs)), x)
            kx = [v.value if isinstance(v, ADArray) else v for v in k(ad.lift(x))]
            J_ref = ad.jacobian(h, kx) @ ad.jacobian(k, x)
            assert np.allclose(J_comp, J_ref, rtol=1e-14, atol=1e-14)


class TestArrayOps:
    def test_matmul_by_constant_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        out = A @ ad.lift(x)
        assert np.allclose(out.value, A @ x)
        assert np.allclose(out.seeds, A)

    def test_dot_product(self):
        x = ad.lift([1.0, 2.0, 3.0])
        c = np.array([0.5, -1.0, 2.0])
        xx = x @ x
        assert xx.value == 14.0
        assert np.array_equal(xx.seeds, [2.0, 4.0, 6.0])
        xc = x @ c
        assert xc.value == 4.5
        assert np.array_equal(xc.seeds, c)

    def test_elementwise_matches_scalar_loop(self):
        # Every operation on a 1-D ADArray equals the same operation on
        # its 0-d entries one at a time.
        rng = np.random.default_rng(8)
        x = ad.lift(rng.uniform(0.5, 1.5, 4))
        c = rng.standard_normal(4)

        def f(z, c):
            angle = ad.atan2(ad.sqrt(z) * c - 2.0 / z, ad.exp(z) + ad.cos(z))
            return angle + ad.relu_pow(z - 1.0, 1.5) * ad.sin(z) - ad.atan(z) ** 2

        whole = f(x, c)
        for i, xi in enumerate(x):
            one = f(xi, c[i])
            assert one.value == pytest.approx(whole.value[i], rel=1e-14)
            assert np.allclose(one.seeds, whole.seeds[i], rtol=1e-14, atol=1e-14)

    def test_broadcast_scalar_against_array(self):
        (t,) = ad.lift([0.5])
        out = t * np.array([1.0, 2.0, 3.0]) + 1.0
        assert np.allclose(out.value, [1.5, 2.0, 2.5])
        assert np.allclose(out.seeds, [[1.0], [2.0], [3.0]])
        shifted = t + np.zeros(3)
        assert np.allclose(shifted.seeds, [[1.0], [1.0], [1.0]])

    def test_sum(self):
        x = ad.lift([1.0, 2.0, 3.0])
        s = (x * x).sum()
        assert s.value == 14.0
        assert np.array_equal(s.seeds, [2.0, 4.0, 6.0])

    def test_stack_mixes_numbers_and_ad(self):
        x, y = ad.lift([1.0, 2.0])
        out = ad.stack([x * y, 3.0])
        assert np.array_equal(out.value, [2.0, 3.0])
        assert np.array_equal(out.seeds, [[2.0, 1.0], [0.0, 0.0]])
        assert isinstance(ad.stack([1.0, 2.0]), np.ndarray)

    def test_domain_checked_elementwise(self):
        with pytest.raises(ADDomainError):
            ad.sqrt(ad.lift([1.0, -1.0]))
        with pytest.raises(ADDomainError):
            1.0 / ad.lift([1.0, 0.0])


# The product shapes of the models: duffing's 1x1, the SFD journal's 2x2
# and 2x4, the SFD rotor's 4x4, the dual rotor's 10x10 site block, its
# 32x40 gather and its 40x40 matrices.
PRODUCT_SHAPES = [(1, 1), (2, 2), (2, 4), (4, 4), (10, 10), (32, 40), (40, 40)]


def spread(rng, shape):
    """Random entries of either sign whose magnitudes spread over 1e±6."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)


class TestRows:
    """A leading row axis: each row has the bits of its own 1-D call."""

    def rows(self):
        rng = np.random.default_rng(11)
        return rng.standard_normal((5, 4)), rng.standard_normal((5, 4))

    def test_matvec_rows(self):
        X, _ = self.rows()
        A = np.random.default_rng(2).standard_normal((3, 4))
        out = ad.matvec(A, X)
        lifted = A @ ad.lift(X)
        for i in range(len(X)):
            assert np.array_equal(out[i], A @ X[i])
            one = A @ ad.lift(X[i])
            assert np.array_equal(lifted.value[i], one.value)
            assert np.array_equal(lifted.seeds[i], one.seeds)

    def test_matvec_stacked_matrices(self):
        X, _ = self.rows()
        As = np.random.default_rng(4).standard_normal((5, 4, 4))
        out = ad.matvec(As, X)
        for i in range(len(X)):
            assert np.array_equal(out[i], As[i] @ X[i])

    def test_dot_rows_keep_a_column(self):
        X, Y = self.rows()
        d = ad.dot(X, Y)
        assert d.shape == (5, 1)
        x, y = ad.lift(X), ad.lift(Y) * 2.0
        xy = x @ y
        assert xy.value.shape == (5, 1) and xy.seeds.shape == (5, 1, 4)
        xc = x @ Y
        for i in range(len(X)):
            assert d[i, 0] == X[i] @ Y[i]
            one = ad.lift(X[i]) @ (ad.lift(Y[i]) * 2.0)
            assert xy.value[i, 0] == one.value
            assert np.array_equal(xy.seeds[i, 0], one.seeds)
            assert np.array_equal(xc.seeds[i, 0], (ad.lift(X[i]) @ Y[i]).seeds)

    def test_dot_needs_matching_ranks(self):
        X, Y = self.rows()
        with pytest.raises(ValueError):
            ad.dot(X, Y[0])

    @pytest.mark.parametrize("m, n", PRODUCT_SHAPES)
    def test_products_of_row_views_per_row(self, m, n):
        # Entries over 1e-6 to 1e6, and rows that are strided views or
        # gathered copies, as the models and the step loop pass them.
        rng = np.random.default_rng(10 * m + n)
        A, As = spread(rng, (m, n)), spread(rng, (5, m, n))
        xs, ys = spread(rng, (5, 3, n)), spread(rng, (5, 3, n))
        x_seeds, y_seeds = spread(rng, (5, 3, n, 3)), spread(rng, (5, 3, n, 3))
        idx = [4, 1, 3, 0]
        for X, Y, SX, SY in ((xs[:, 1], ys[:, 2], x_seeds[:, 0], y_seeds[:, 2]),
                             (xs[idx, 0], ys[idx, 1], x_seeds[idx, 1], y_seeds[idx, 0])):
            x, y = ADArray(X, SX), ADArray(Y, SY)
            Ax, Asx, Ax_ad = ad.matvec(A, X), ad.matvec(As[:len(X)], X), ad.matvec(A, x)
            d, xy, xY, Xy = ad.dot(X, Y), ad.dot(x, y), ad.dot(x, Y), ad.dot(X, y)
            for i in range(len(X)):
                assert np.array_equal(Ax[i], A @ X[i])
                assert np.array_equal(Asx[i], As[i] @ X[i])
                one = ad.matvec(A, x[i])
                assert np.array_equal(Ax_ad.value[i], one.value)
                assert np.array_equal(Ax_ad.seeds[i], one.seeds)
                assert d[i, 0] == X[i] @ Y[i]
                for rows, one in ((xy, ad.dot(x[i], y[i])), (xY, ad.dot(x[i], Y[i])),
                                  (Xy, ad.dot(X[i], y[i]))):
                    assert rows.value[i, 0] == one.value
                    assert np.array_equal(rows.seeds[i, 0], one.seeds)

    def test_jacobian_rows(self):
        X, Y = self.rows()
        M = np.random.default_rng(6).standard_normal((3, 4))

        def f(x):
            return ad.matvec(M, ad.sin(x) * x) + ad.dot(x, x)

        J = ad.jacobian(f, X)
        assert J.shape == (5, 3, 4)
        for i in range(len(X)):
            assert np.array_equal(J[i], ad.jacobian(f, X[i]))

    def test_jacobian_rows_of_a_constant(self):
        X, _ = self.rows()
        J = ad.jacobian(lambda x: np.ones((5, 2)), X)
        assert J.shape == (5, 2, 4) and not J.any()


class TestValuesEqualFloats:
    """An AD pass gives the bits of the float pass as its value, so one
    forward pass yields a residual as well as its Jacobian."""

    OPS = {
        "add": lambda x, y, c: x + y,
        "sub": lambda x, y, c: x - y,
        "mul": lambda x, y, c: x * y,
        "div": lambda x, y, c: x / y,
        "div_constant": lambda x, y, c: x / c,
        "constant_div": lambda x, y, c: c / x,
        "add_constant": lambda x, y, c: c + x,
        "constant_sub": lambda x, y, c: c - x,
        "mul_constant": lambda x, y, c: x * c,
        "neg": lambda x, y, c: -x,
        "pow_int": lambda x, y, c: x ** 3,
        "pow_real": lambda x, y, c: ad.pow_real(x, 2.5),
        "relu_pow": lambda x, y, c: ad.relu_pow(x - 1.0, 10.0 / 9.0),
        "sin": lambda x, y, c: ad.sin(x),
        "cos": lambda x, y, c: ad.cos(x),
        "exp": lambda x, y, c: ad.exp(x),
        "sqrt": lambda x, y, c: ad.sqrt(x),
        "atan": lambda x, y, c: ad.atan(x),
        "atan2": lambda x, y, c: ad.atan2(y, x),
        "sum": lambda x, y, c: (x * y).sum(),
    }

    @staticmethod
    def seeded(value, rng, width=3):
        """value with random seeds; a 0-d entry of a vector, as models index."""
        if not np.ndim(value):
            return ADArray([value], rng.standard_normal((1, width)))[0]
        return ADArray(value, rng.standard_normal(np.shape(value) + (width,)))

    @staticmethod
    def draw(rng, shape):
        """Positive values of spread-out magnitude; 0-d ones as np.float64."""
        values = np.exp(rng.uniform(-3.0, 3.0, shape or (1,)))
        return values if shape else values[0]

    @staticmethod
    def assert_same_bits(got, want):
        got, want = ad.value_of(got), np.asarray(want, dtype=float)
        assert np.shape(got) == want.shape
        assert np.asarray(got, dtype=float).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(), (7,), (4, 7)], ids=["0-d", "vector", "rows"])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_elementary_op(self, name, shape):
        # Positive operands keep every op in its domain; constants are a
        # number and a value of the operands' shape.
        op = self.OPS[name]
        rng = np.random.default_rng([sorted(self.OPS).index(name), len(shape)])
        for _ in range(20):
            x, y = self.draw(rng, shape), self.draw(rng, shape)
            for c in (float(self.draw(rng, ())), self.draw(rng, shape)):
                want = op(x, y, c)
                self.assert_same_bits(op(self.seeded(x, rng), self.seeded(y, rng), c),
                                      want)
                self.assert_same_bits(op(self.seeded(x, rng), y, c), want)
                self.assert_same_bits(op(x, self.seeded(y, rng), c), want)

    def test_products(self):
        rng = np.random.default_rng(41)
        A = rng.standard_normal((3, 7))
        for shape in ((7,), (4, 7)):
            x, y = rng.standard_normal(shape), rng.standard_normal(shape)
            self.assert_same_bits(ad.matvec(A, self.seeded(x, rng)), ad.matvec(A, x))
            self.assert_same_bits(ad.dot(self.seeded(x, rng), self.seeded(y, rng)),
                                  ad.dot(x, y))
            self.assert_same_bits(ad.stack([self.seeded(x, rng)[0]]), [x[0]])

    def test_model_forces(self):
        from nnrad.models import (default_dual_rotor_layout, duffing, pendulum,
                                  sfd_rotor_system, van_der_pol)
        from nnrad.models.rotor import assemble_dual_rotor

        rng = np.random.default_rng(42)
        for sys_ in (duffing(), van_der_pol(1.5), pendulum()):
            for _ in range(20):
                x, v, a = 2.0 * rng.standard_normal((3, 1))
                want = ad.stack(sys_.F_nl(x, v, a, 0.3))
                got = sys_.F_nl(*(self.seeded(z, rng) for z in (x, v, a)), 0.3)
                self.assert_same_bits(ad.stack(got), want)
        sfd = sfd_rotor_system(900.0)
        for rows in ((), (4,)):
            for _ in range(10):
                ecc = rng.uniform(0.05, 0.6, rows) * 2.5e-4
                ang = rng.uniform(0.0, 2.0 * np.pi, rows)
                x = np.stack([ecc * np.cos(ang), ecc * np.sin(ang),
                              *(1e-6 * rng.standard_normal((2,) + rows))], axis=-1)
                v = 0.01 * rng.standard_normal(rows + (4,))
                a = np.zeros(rows + (4,))
                want = sfd.F_nl(x, v, a, 0.1)
                got = sfd.F_nl(*(self.seeded(z, rng) for z in (x, v, a)), 0.1)
                self.assert_same_bits(got, want)
        dual = assemble_dual_rotor(default_dual_rotor_layout())
        for t in rng.uniform(0.0, 0.5, 10):
            x = 1e-5 * rng.standard_normal(dual.n_dof)
            u = ad.matvec(dual.sites.matrix(t), x)
            assert np.any(dual.sites.law(u, t) > 0.0)
            self.assert_same_bits(dual.sites.law(self.seeded(u, rng, 1), t),
                                  dual.sites.law(u, t))
