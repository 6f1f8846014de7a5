import numpy as np
import pytest

from nnrad import NewmarkConfig, State
from nnrad.linalg import (
    SINGULARITY_RTOL,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    lu_update,
    norm2,
    scatter_add,
)
from nnrad.models import assemble_dual_rotor, default_dual_rotor_layout
from nnrad.newmark import solve_terms, step_jacobian, step_terms


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


class TestRankKBase:
    """lu_factor(A, base): the inverse of A as a rank-k update of the factor
    of a matrix B that differs from A in k columns only."""

    @staticmethod
    def dual_jacobians():
        """Dual-rotor step Jacobians at random states, and their SolveTerms."""
        cfg = NewmarkConfig(dt=1e-4)
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        terms = solve_terms(sys_, cfg)
        rng = np.random.default_rng(31)
        Js = []
        for _ in range(4):
            n = sys_.n_dof
            s = State(0.0, 1e-5 * rng.standard_normal(n),
                      1e-3 * rng.standard_normal(n), rng.standard_normal(n))
            p = step_terms(sys_, s, cfg)
            Js.append(step_jacobian(1e-5 * rng.standard_normal(n), p, sys_, terms))
        return np.array(Js), terms

    def test_dual_rotor_jacobians_agree_with_the_direct_factor(self):
        Js, terms = self.dual_jacobians()
        assert terms.base is not None and len(terms.base[2]) == 10
        differ = False
        for J in Js:
            f, f0 = lu_factor(J, terms.base), lu_factor(J)
            assert np.max(np.abs(f - f0)) <= 1e-12 * np.max(np.abs(f0))
            differ |= not np.array_equal(f, f0)
        assert differ  # the rank-k path ran

    @pytest.mark.parametrize("case", ["zero column", "dependent column"])
    def test_singular_update_reports_the_direct_pivot(self, case):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        cols = np.array([1, 4])
        if case == "zero column":
            # With A = 2I the k x k matrix I + W[cols] is singular too, so
            # inv raises.
            A = 2.0 * np.eye(6)
            J = A.copy()
            J[:, 1] = 0.0
        else:
            J = A.copy()
            J[:, 1] += 0.5
            J[:, 4] = J[:, 0] + J[:, 2]
        base = (A, lu_factor(A), cols)
        with pytest.raises(SingularMatrixError) as direct:
            lu_factor(J)
        with pytest.raises(SingularMatrixError) as updated:
            lu_factor(J, base)
        assert updated.value.pivot_index == direct.value.pivot_index

    def test_stack_matches_one_row_calls(self):
        Js, terms = self.dual_jacobians()
        A_eff, f_eff, cols = terms.base
        F = np.array([f_eff] * len(Js))
        F[1] = np.nan  # a row without a base is factored directly
        base = (np.array([A_eff] * len(Js)), F, cols)
        f = lu_factor(Js, base)
        for i in range(len(Js)):
            assert np.array_equal(f[i], lu_factor(Js[i], (A_eff, F[i], cols)))
        assert np.array_equal(f[1], lu_factor(Js[1]))
        Js[2][:, cols[3]] = 0.0
        with pytest.raises(SingularMatrixError) as one:
            lu_factor(Js[2], (A_eff, f_eff, cols))
        with pytest.raises(SingularMatrixError) as stacked:
            lu_factor(Js, base)
        assert stacked.value.row == 2
        assert stacked.value.pivot_index == one.value.pivot_index
