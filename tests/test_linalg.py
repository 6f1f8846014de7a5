import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrad import NewmarkConfig, State, linalg
from nnrad.linalg import (
    SINGULARITY_RTOL,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    lu_update,
    norm2,
    rank_k_base,
    scatter_add,
)
from nnrad.models import assemble_dual_rotor, default_dual_rotor_layout
from nnrad.newmark import linearize, solve_terms, step_terms


def spread(rng, shape):
    """Random entries of either sign whose magnitudes spread over 1e±6."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)


class TestLUFactor:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.5])
        assert np.array_equal(lu_solve(lu_factor(np.eye(3)), b), b)

    def test_pivoting_forced(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = lu_factor(A)  # must not raise despite the zero at (0,0)
        assert np.array_equal(lu_solve(f, [2.0, 3.0]), [3.0, 2.0])

    def test_reconstruction_oracle(self):
        # Solves to 1e-13 relative, checked on well-conditioned randoms.
        rng = np.random.default_rng(42)
        for _ in range(10):
            A = rng.standard_normal((10, 10)) + 5.0 * np.eye(10)
            x = rng.standard_normal(10)
            x_back = lu_solve(lu_factor(A), A @ x)
            assert np.linalg.norm(x_back - x) / np.linalg.norm(x) < 1e-13

    def test_singular_matrix_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert exc.value.pivot_index == 1

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.zeros((2, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            lu_factor(np.ones((2, 3)))

    def test_screen_defers_to_exact_pivot_rule(self):
        # Pivots at 1e-10 and 1e-15 of max|A| both trip the inverse screen;
        # elimination accepts the first and reports the second.
        for tiny, singular in ((1e-10, False), (1e-15, True)):
            A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + tiny, 0.0], [0.0, 0.0, 1.0]])
            if singular:
                with pytest.raises(SingularMatrixError) as exc:
                    lu_factor(A)
                assert exc.value.pivot_index == 1
            else:
                x = lu_solve(lu_factor(A), A @ np.array([1.0, 2.0, 3.0]))
                assert np.allclose(x, [1.0, 2.0, 3.0], rtol=1e-5)

    def test_pivot_at_threshold_is_singular(self):
        # Diagonal pivots: the screen must hand the exact boundary case on.
        A = np.diag([1.0, SINGULARITY_RTOL, 1.0])
        with pytest.raises(SingularMatrixError) as exc:
            lu_factor(A)
        assert exc.value.pivot_index == 1
        lu_factor(np.diag([1.0, 2.0 * SINGULARITY_RTOL, 1.0]))

    def test_non_finite_matrix_accepted(self):
        # NaN pivots are not small; the solve carries the NaN to the caller.
        f = lu_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert np.isnan(lu_solve(f, [1.0, 1.0])[0])

    def test_one_by_one_has_the_bits_of_inv(self):
        rng = np.random.default_rng(11)
        mags = 10.0 ** rng.uniform(-300.0, 300.0, 2000)
        for a in np.concatenate([mags, -mags, [1.0, -1.0, 3.0, 1e-300, 1e300]]):
            f = lu_factor(np.array([[a]]))
            assert f.shape == (1, 1)
            assert f.tobytes() == np.linalg.inv(np.array([[a]])).tobytes()

    @pytest.mark.parametrize("a", [0.0, -0.0, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_by_one_singular_reports_pivot_0(self, a):
        with pytest.raises(SingularMatrixError) as exc:
            lu_factor(np.array([[a]]))
        assert exc.value.pivot_index == 0

    def test_one_by_one_nan_carries_through(self):
        f = lu_factor(np.array([[np.nan]]))
        assert f.shape == (1, 1) and np.isnan(f[0, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_entry_fails_the_screen_without_a_warning(self):
        # inv gives 0 for an inf pivot; the screen must not form inf * 0.
        with pytest.raises(SingularMatrixError) as exc:
            lu_factor(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        assert exc.value.pivot_index == 0
        rows = np.array([np.eye(2), [[1.0, 0.0], [0.0, np.inf]]])
        with pytest.raises(SingularMatrixError) as exc:
            lu_factor(rows)
        assert (exc.value.pivot_index, exc.value.row) == (0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_inverse_is_singular(self):
        # Each pivot passes the relative rule, but 1 / 1e-310 overflows.
        for A in ([[1e-310]], np.diag([1e-310, 1e-310])):
            with pytest.raises(SingularMatrixError, match="overflows") as exc:
                lu_factor(np.array(A))
            assert exc.value.pivot_index == 0 and exc.value.row is None
        rows = np.array([np.eye(2), np.diag([1e-310, 1e-310])])
        with pytest.raises(SingularMatrixError, match="overflows") as exc:
            lu_factor(rows)
        assert (exc.value.pivot_index, exc.value.row) == (0, 1)


class TestLUSolve:
    def test_identity(self):
        f = lu_factor(np.eye(3))
        assert np.allclose(lu_solve(f, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        f = lu_factor(np.array([[2.0, 0.0], [0.0, 4.0]]))
        assert np.allclose(lu_solve(f, [2.0, 8.0]), [1.0, 2.0])

    def test_residual_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
            b = rng.standard_normal(8)
            x = lu_solve(lu_factor(A), b)
            assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_dimension_mismatch(self):
        f = lu_factor(np.eye(3))
        with pytest.raises(ValueError):
            lu_solve(f, np.ones(2))

    def test_left_inverse_of_matvec_large(self):
        rng = np.random.default_rng(5)
        n = 300
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        x = rng.standard_normal(n)
        x_back = lu_solve(lu_factor(A), A @ x)
        assert np.linalg.norm(x_back - x) / np.linalg.norm(x) < 1e-10


class TestLUUpdate:
    def test_solves_rank1_modified_system(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
            u, v, b = rng.standard_normal((3, 8))
            x = lu_solve(lu_update(lu_factor(A), u, v), b)
            x_ref = np.linalg.solve(A + np.outer(u, v), b)
            assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-12

    def test_zero_denominator_is_singular(self):
        # 1 + v^T A^-1 u = 1 - 1 = 0: A + u v^T = [[1, 0], [0, 0]].
        f = lu_factor(np.eye(2))
        with pytest.raises(SingularMatrixError) as exc:
            lu_update(f, np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        assert exc.value.pivot_index is None


class TestSmallOps:
    def test_norm2(self):
        assert norm2([3.0, 4.0]) == 5.0


class TestScatterAdd:
    def test_ones_into_zeros(self):
        G = np.zeros((4, 4))
        scatter_add(G, np.ones((2, 2)), [1, 3])
        expected = np.zeros((4, 4))
        for i in (1, 3):
            for j in (1, 3):
                expected[i, j] = 1.0
        assert np.array_equal(G, expected)

    def test_overlapping_elements_accumulate(self):
        G = np.zeros((3, 3))
        scatter_add(G, np.ones((2, 2)), [0, 1])
        scatter_add(G, np.ones((2, 2)), [1, 2])
        assert G[1, 1] == 2.0
        assert G[0, 0] == 1.0 and G[2, 2] == 1.0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            scatter_add(np.zeros((2, 2)), np.ones((2, 2)), [0, 2])

    def test_signs_flip_rows_and_columns(self):
        G = np.zeros((2, 2))
        local = np.array([[1.0, 2.0], [3.0, 4.0]])
        scatter_add(G, local, [0, 1], signs=[1.0, -1.0])
        assert np.array_equal(G, [[1.0, -2.0], [-3.0, 4.0]])

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(9)
        G = np.zeros((6, 6))
        for dof_map in ([0, 2, 4], [1, 2, 5]):
            B = rng.standard_normal((3, 3))
            scatter_add(G, B + B.T, dof_map, signs=[1.0, -1.0, 1.0])
        assert np.allclose(G, G.T)


class TestStacks:
    """A (B, n, n) stack: each row has the bits of its own call."""

    def stack(self):
        rng = np.random.default_rng(9)
        return rng.standard_normal((4, 3, 3)) + 3.0 * np.eye(3), rng.standard_normal((4, 3))

    def test_factor_solve_update_and_norm_per_row(self):
        A, b = self.stack()
        u, v = 0.1 * b[::-1], 0.2 * b
        f = lu_factor(A)
        x = lu_solve(f, b)
        g = lu_update(f, u, v)
        norms = norm2(b)
        for i in range(len(A)):
            fi = lu_factor(A[i])
            assert np.array_equal(f[i], fi)
            assert np.array_equal(x[i], lu_solve(fi, b[i]))
            assert np.array_equal(g[i], lu_update(fi, u[i], v[i]))
            assert norms[i] == norm2(b[i])

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 32, 40])
    def test_solve_update_and_norm_of_row_views_per_row(self, n):
        # Entries over 1e-6 to 1e6; rows that are strided views or gathered
        # copies, as the step loop passes them.
        rng = np.random.default_rng(n)
        f = spread(rng, (5, n, n))
        bs = spread(rng, (5, 3, n))
        idx = [4, 1, 3, 0, 2]
        for b, u, v in ((bs[:, 1], bs[:, 0], bs[:, 2]),
                        (bs[idx, 0], bs[idx, 2], bs[idx, 1])):
            x, g, norms = lu_solve(f, b), lu_update(f, u, v), norm2(b)
            for i in range(len(f)):
                assert np.array_equal(x[i], lu_solve(f[i], b[i]))
                assert np.array_equal(g[i], lu_update(f[i], u[i], v[i]))
                assert norms[i] == norm2(b[i])

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_singular_row(self, exact):
        A, _ = self.stack()
        # Exactly singular rows make numpy.linalg.inv reject the whole
        # stack; nearly singular ones only fail their own screen.
        A[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + (0.0 if exact else 1e-15)],
                [0.0, 1.0, 1.0]]
        with pytest.raises(SingularMatrixError) as one:
            lu_factor(A[2])
        with pytest.raises(SingularMatrixError) as stacked:
            lu_factor(A)
        assert stacked.value.row == 2
        assert stacked.value.pivot_index == one.value.pivot_index

    def test_update_singular_row(self):
        A, b = self.stack()
        A[1] = 2.0 * np.eye(3)
        u, v = b.copy(), np.zeros_like(b)
        # Row 1: f = I/2, f u = e_0 and v = -e_0, so 1 + v^T f u = 0.
        u[1], v[1] = [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]
        with pytest.raises(SingularMatrixError) as exc:
            lu_update(lu_factor(A), u, v)
        assert exc.value.row == 1 and exc.value.pivot_index is None


class TestOneRowProducts:
    """One-row products are ndarray.dot, which has the bits of @ where
    both reach BLAS: every shape and layout the models pass."""

    # (m, n) and seed width w: duffing, the SFD rotor's maps, the dual
    # rotor's sites (10 of 40 DOFs) and its whole matrices.
    SHAPES = [(1, 1, 1), (2, 2, 4), (2, 4, 4), (4, 4, 4), (10, 40, 1), (40, 10, 10),
              (10, 10, 10), (40, 40, 10), (40, 40, 40), (32, 40, 10)]

    @staticmethod
    def layouts(rng, m, n):
        """An (m, n) matrix as C, F, a transposed view and a column gather."""
        A = spread(rng, (m, n))
        wide = spread(rng, (m, n + 3))
        return [A, np.asfortranarray(A), spread(rng, (n, m)).T,
                wide[:, rng.permutation(n + 3)[:n]]]

    @pytest.mark.parametrize("m, n, w", SHAPES)
    def test_dot_has_the_bits_of_matmul(self, m, n, w):
        rng = np.random.default_rng(m * 100 + n)
        for A in self.layouts(rng, m, n):
            for _ in range(5):
                x, y = spread(rng, n), spread(rng, m)
                X = spread(rng, (n, w))
                assert A.dot(x).tobytes() == (A @ x).tobytes()
                for Y in (X, np.asfortranarray(X)):
                    assert A.dot(Y).tobytes() == (A @ Y).tobytes()
                assert y.dot(A).tobytes() == (y @ A).tobytes()
                assert x.dot(x).tobytes() == (x @ x).tobytes()


class TestRankKBase:
    """lu_factor(D, base): the factor of B + P D Q^T, B with a block D
    added on (base.rows, base.cols), as a lazy Woodbury factor on B's."""

    @staticmethod
    def dual_blocks(sites=True):
        """Dual-rotor step Jacobian blocks at random states, and their
        SolveTerms: the sites' (nl_dofs, nl_dofs) blocks, or without sites
        the dense F_nl's blocks on every row."""
        cfg = NewmarkConfig(dt=1e-4)
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        if not sites:
            sys_ = dataclasses.replace(sys_, sites=None)
        terms = solve_terms(sys_, cfg)
        rng = np.random.default_rng(31)
        Ds = []
        for _ in range(4):
            n = sys_.n_dof
            s = State(0.0, 1e-5 * rng.standard_normal(n),
                      1e-3 * rng.standard_normal(n), rng.standard_normal(n))
            p = step_terms(sys_, s, cfg)
            Ds.append(linearize(1e-5 * rng.standard_normal(n), p, sys_, terms)[1])
        return np.array(Ds), terms

    def test_dual_rotor_jacobians_agree_with_the_direct_factor(self):
        # The lazy factor solves as the direct inverse does, to rounding.
        rng = np.random.default_rng(33)
        for sites in (True, False):
            Ds, terms = self.dual_blocks(sites)
            base = terms.base
            assert base.f_B is not None and len(base.cols) == 10
            assert Ds.shape[1:] == (len(base.rows), 10)
            for D in Ds:
                b = rng.standard_normal(len(base.B))
                f = lu_factor(D, base)
                assert isinstance(f, tuple) and f[2].shape == D.shape  # the lazy route
                x, x0 = lu_solve(f, b), lu_solve(lu_factor(base.matrix(D)), b)
                assert np.max(np.abs(x - x0)) <= 1e-12 * np.max(np.abs(x0))

    def test_lazy_solve_matches_numpy_solve(self):
        # One row and stacks, with the sites' k x k blocks and the dense
        # F_nl's blocks on every row.
        rng = np.random.default_rng(34)
        for sites in (True, False):
            Ds, terms = self.dual_blocks(sites)
            one = terms.base
            stacked = rank_k_base(np.array([one.B] * len(Ds)),
                                  np.array([one.f_B] * len(Ds)), one.rows, one.cols)
            b = rng.standard_normal((len(Ds), len(one.B)))
            want = np.array([np.linalg.solve(one.matrix(D), bi) for D, bi in zip(Ds, b)])
            got = [lu_solve(lu_factor(D, one), bi) for D, bi in zip(Ds, b)]
            for x in (np.array(got), lu_solve(lu_factor(Ds, stacked), b)):
                assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_large_system_with_a_narrow_block(self):
        # n = 200, k = 10: the factor holds f_B, f_B[:, rows] and a k x k K,
        # and solves as numpy.linalg.solve does.
        rng = np.random.default_rng(35)
        n = 200
        B = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        cols = np.sort(rng.choice(n, 10, replace=False))
        base = rank_k_base(B, lu_factor(B), cols, cols)
        for _ in range(3):
            D = 10.0 * rng.standard_normal((10, 10))
            b = rng.standard_normal(n)
            f = lu_factor(D, base)
            assert isinstance(f, tuple) and f[2].shape == (10, 10)
            want = np.linalg.solve(base.matrix(D), b)
            assert np.max(np.abs(lu_solve(f, b) - want)) <= 1e-12 * np.max(np.abs(want))

    @given(n=st.integers(2, 8), seed=st.integers(0, 2**31), dense=st.booleans(),
           scale=st.floats(-6.0, 6.0), gap=st.floats(-15.0, 0.0))
    @settings(max_examples=200, deadline=None)
    def test_a_passing_bound_passes_the_screen(self, n, seed, dense, scale, gap):
        # The bound on max|A| ||A^-1||_inf is an upper bound: wherever the
        # lazy factor is returned, the explicit inverse passes the screen
        # and the direct factor finds no small pivot.  On the block's rows
        # A's column cols[0] is B's times 10**gap: with every row in the
        # block A nears singularity as gap falls, so the draws span both
        # sides of the bound.
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n)) + n * np.eye(n)
        cols = np.sort(rng.choice(n, int(rng.integers(1, n // 2 + 1)), replace=False))
        rows = np.arange(n) if dense else cols
        base = rank_k_base(B, lu_factor(B), rows, cols)
        D = 10.0 ** scale * rng.standard_normal((len(rows), len(cols)))
        D[:, 0] = (10.0 ** gap - 1.0) * B[rows, cols[0]]
        A = base.matrix(D)
        try:
            lazy = isinstance(lu_factor(D, base), tuple)
        except SingularMatrixError:  # the bound failed, and so did A's pivots
            lazy = False
        if lazy:
            assert linalg._passes(np.abs(A).max(), base.inverse(D))
            lu_factor(A)

    @pytest.mark.parametrize("case", ["zero column", "dependent column"])
    def test_singular_update_reports_the_direct_pivot(self, case):
        rng = np.random.default_rng(32)
        # Integer entries keep B + D exact, so J's column 4 is exactly
        # column 0 plus column 2.
        A = rng.integers(-3, 4, (6, 6)) + 8.0 * np.eye(6)
        rows, cols = np.arange(6), np.array([1, 4])
        D = np.zeros((6, 2))
        if case == "zero column":
            # With A = 2I the k x k matrix I_k + f_B[cols][:, rows] D is
            # singular too, so inv raises.
            A = 2.0 * np.eye(6)
            D[:, 0] = -A[:, 1]
        else:
            D[:, 0] = 0.5
            D[:, 1] = A[:, 0] + A[:, 2] - A[:, 4]
        base = rank_k_base(A, lu_factor(A), rows, cols)
        with pytest.raises(SingularMatrixError) as direct:
            lu_factor(base.matrix(D))
        with pytest.raises(SingularMatrixError) as updated:
            lu_factor(D, base)
        assert updated.value.pivot_index == direct.value.pivot_index

    def test_stack_matches_one_row_calls(self):
        Ds, terms = self.dual_blocks(sites=False)
        A_eff, f_eff, rows, cols = terms.base[:4]
        F = np.array([f_eff] * len(Ds))
        F[1] = np.nan  # a row without a base is factored directly
        base = rank_k_base(np.array([A_eff] * len(Ds)), F, rows, cols)
        b = np.random.default_rng(36).standard_normal((len(Ds), len(A_eff)))
        x = lu_solve(lu_factor(Ds, base), b)
        for i in range(len(Ds)):
            one = lu_solve(lu_factor(Ds[i], base.row(i)), b[i])
            assert np.array_equal(x[i], one)
        assert np.array_equal(x[1], lu_solve(lu_factor(base.row(1).matrix(Ds[1])), b[1]))
        Ds[2][:, 3] = -A_eff[:, cols[3]]  # J's column cols[3] is zero
        with pytest.raises(SingularMatrixError) as one:
            lu_factor(Ds[2], terms.base)
        with pytest.raises(SingularMatrixError) as stacked:
            lu_factor(Ds, base)
        assert stacked.value.row == 2
        assert stacked.value.pivot_index == one.value.pivot_index

    def test_rows_of_a_stack_reach_blas_as_one_row(self):
        # A row of a stacked base takes np.matvec and np.matmul, one row
        # ndarray.dot; the two agree only if both reach BLAS, so f_rows and
        # f_cross are kept C-contiguous (a gathered f_B[..., :, rows] row
        # would not be).
        rng = np.random.default_rng(37)
        for sites in (True, False):
            Ds, terms = self.dual_blocks(sites)
            one = terms.base
            base = rank_k_base(np.array([one.B] * len(Ds)),
                               np.array([one.f_B] * len(Ds)), one.rows, one.cols)
            b = rng.standard_normal((len(Ds), len(one.B)))
            f = lu_factor(Ds, base)
            x, inv = lu_solve(f, b), linalg._explicit(f)
            for i in range(len(Ds)):
                row = base.row(i)
                assert row.f_rows.flags.c_contiguous and row.f_cross.flags.c_contiguous
                fi = lu_factor(Ds[i], one)
                assert np.array_equal(f[2][i], fi[2])
                assert np.array_equal(x[i], lu_solve(fi, b[i]))
                assert np.array_equal(inv[i], linalg._explicit(fi))

    def test_a_stack_with_a_fallback_row_keeps_every_rows_bits(self):
        # Row 2's block, scaled by 1e6, fails the bound but is regular: it
        # is factored directly, and every other row stays lazy.
        Ds, terms = self.dual_blocks()
        one = terms.base
        Ds[2] *= 1e6
        base = rank_k_base(np.array([one.B] * len(Ds)),
                           np.array([one.f_B] * len(Ds)), one.rows, one.cols)
        b = np.random.default_rng(38).standard_normal((len(Ds), len(one.B)))
        f = lu_factor(Ds, base)
        x = lu_solve(f, b)
        for i in range(len(Ds)):
            fi = lu_factor(Ds[i], one)
            assert isinstance(fi, tuple) == (i != 2)
            assert np.array_equal(x[i], lu_solve(fi, b[i]))
        assert np.array_equal(x[2], lu_solve(lu_factor(one.matrix(Ds[2])), b[2]))

    def test_broyden_update_of_a_lazy_factor(self):
        # lu_update forms the explicit inverse from the lazy factor: the
        # bits of the update of base.inverse(D), one row and per row of a
        # stack, and the inverse of A + u v^T to rounding.
        Ds, terms = self.dual_blocks()
        one = terms.base
        rng = np.random.default_rng(39)
        n = len(one.B)
        u, v = 1e6 * rng.standard_normal((len(Ds), n)), rng.standard_normal((len(Ds), n))
        base = rank_k_base(np.array([one.B] * len(Ds)),
                           np.array([one.f_B] * len(Ds)), one.rows, one.cols)
        g = lu_update(lu_factor(Ds, base), u, v)
        for i, D in enumerate(Ds):
            gi = lu_update(lu_factor(D, one), u[i], v[i])
            assert np.array_equal(gi, lu_update(one.inverse(D), u[i], v[i]))
            assert np.array_equal(g[i], gi)
            want = np.linalg.inv(one.matrix(D) + np.outer(u[i], v[i]))
            assert np.max(np.abs(gi - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("singular", [False, True])
    def test_the_screen_scales_by_the_changed_block(self, singular):
        # B's entries are at most 1 and pass the screen; the block puts
        # J's largest entry, 1e12, at (0, 0), where the screen fails, so J
        # is eliminated exactly as lu_factor(J) eliminates it.  With B's
        # pivot 5e-3 at (1, 1), under 1e-14 * 1e12, J is singular by the
        # rule; scaled by B alone the screen would pass it.
        B = np.eye(4) + 0.25 * np.diag(np.ones(3), 1)
        if singular:
            B[1, 1] = 5e-3
        base = rank_k_base(B, lu_factor(B), np.array([0, 1]), np.array([0, 1]))
        D = np.array([[1e12 - 1.0, 0.0], [0.0, 0.0]])
        J = base.matrix(D)
        assert np.abs(J).max() == 1e12 and np.abs(B).max() == 1.0
        assert not linalg._passes(np.abs(J).max(), base.inverse(D))
        if singular:
            with pytest.raises(SingularMatrixError) as direct:
                lu_factor(J)
            with pytest.raises(SingularMatrixError) as updated:
                lu_factor(D, base)
            assert updated.value.pivot_index == direct.value.pivot_index == 1
        else:
            assert np.array_equal(lu_factor(D, base), lu_factor(J))
