import dataclasses
import math

import numpy as np
import pytest

import nnrad.newmark
from nnrad import linalg
from nnrad import (
    BROYDEN_RANK1,
    FULL_NEWTON,
    SIMPLIFIED_NEWTON,
    DynamicSystem,
    NewmarkConfig,
    NonConvergenceError,
    SingularJacobianError,
    State,
    initial_acceleration,
    integrate,
    residual,
    rk4_integrate,
    step,
    to_first_order,
)
from nnrad import ad
from nnrad.models import (
    default_dual_rotor_layout,
    duffing,
    pendulum,
    sfd_rotor_system,
    van_der_pol,
)
from nnrad.models.bearing import ball_angles
from nnrad.models.rotor import assemble_dual_rotor
from nnrad.newmark import (
    SolveTerms,
    _step_terms,
    solve_terms,
    step_jacobian,
    step_terms,
)


def linear_sdof(k=1.0, c=0.0):
    return DynamicSystem(
        n_dof=1, M=np.array([[1.0]]), C=np.array([[c]]), K=np.array([[k]])
    )


def terms(s, cfg):
    """The StepTerms of a step from s on an unloaded system of s's size."""
    n = s.x.size
    return step_terms(DynamicSystem(n, np.eye(n), np.zeros((n, n)), np.zeros((n, n))),
                      s, cfg)


class TestConfig:
    def test_defaults_are_average_acceleration(self):
        cfg = NewmarkConfig(dt=0.1)
        assert cfg.beta == 0.25 and cfg.gamma == 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NewmarkConfig(dt=-1.0)
        with pytest.raises(ValueError):
            NewmarkConfig(dt=0.1, beta=0.0)
        with pytest.raises(ValueError):
            NewmarkConfig(dt=0.1, max_iter=0)
        with pytest.raises(ValueError):
            NewmarkConfig(dt=0.1, strategy="nonsense")

    @pytest.mark.parametrize("field, value", [
        ("dt", math.nan), ("dt", math.inf), ("beta", math.nan), ("beta", math.inf),
        ("gamma", math.nan), ("gamma", -math.inf), ("tol_dx", math.nan),
        ("tol_dx", -1e-10), ("tol_res", math.nan), ("tol_res", -1e-8),
        ("max_iter", 2.5), ("max_iter", True),
    ])
    def test_rejects_a_bad_number_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            NewmarkConfig(**dict({"dt": 0.1}, **{field: value}))

    def test_stability_warning(self):
        with pytest.warns(UserWarning):
            NewmarkConfig(dt=0.1, gamma=0.4)
        with pytest.warns(UserWarning):
            NewmarkConfig(dt=0.1, beta=0.2, gamma=0.6)


class TestPredictors:
    def test_acceleration_direct_substitution(self):
        # (x1 - 0)/(0.25*0.01) = 4.0 for x1 = 0.01
        cfg = NewmarkConfig(dt=0.1)
        s = State(0.0, [0.0], [0.0], [0.0])
        assert np.allclose(terms(s, cfg).acceleration(np.array([0.01])), [4.0])

    def test_acceleration_stationary(self):
        cfg = NewmarkConfig(dt=0.1)
        s = State(0.0, [0.7], [0.0], [0.0])
        assert np.allclose(terms(s, cfg).acceleration(np.array([0.7])), [0.0])

    def test_velocity_direct_substitution(self):
        cfg = NewmarkConfig(dt=0.1)
        s = State(0.0, [0.0], [0.0], [0.0])
        assert np.allclose(terms(s, cfg).velocity(np.array([0.01])), [0.2])

    def test_velocity_reversal(self):
        # x1 = x_n, gamma/beta = 2 -> v1 = (1 - 2) v_n = -v_n
        cfg = NewmarkConfig(dt=0.1)
        s = State(0.0, [0.3], [1.0], [0.0])
        assert np.allclose(terms(s, cfg).velocity(np.array([0.3])), [-1.0])

    def test_formula_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            b, g = rng.uniform(0.2, 0.5), rng.uniform(0.5, 0.8)
            dt = rng.uniform(1e-3, 1e-1)
            with pytest.warns(UserWarning) if b < g / 2 else _no_warning():
                cfg = NewmarkConfig(dt=dt, beta=b, gamma=g)
            s = State(
                0.0,
                rng.standard_normal(3),
                rng.standard_normal(3),
                rng.standard_normal(3),
            )
            x1 = rng.standard_normal(3)
            a_ref = (
                (x1 - s.x) / (b * dt * dt)
                - s.v / (b * dt)
                - (0.5 / b - 1.0) * s.a
            )
            v_ref = (
                g * (x1 - s.x) / (b * dt)
                + (1.0 - g / b) * s.v
                + (1.0 - g / (2.0 * b)) * dt * s.a
            )
            p = terms(s, cfg)
            assert np.allclose(p.acceleration(x1), a_ref, atol=1e-12)
            assert np.allclose(p.velocity(x1), v_ref, atol=1e-12)


def _no_warning():
    import contextlib

    return contextlib.nullcontext()


class TestResidual:
    def test_exact_linear_update_zeroes_residual(self):
        # Solve the (linear) step equation directly; R at that root ~ 0.
        sys_ = linear_sdof()
        cfg = NewmarkConfig(dt=0.05)
        s = State(0.0, [1.0], [0.3], [-1.0])
        c_a = 1.0 / (cfg.beta * cfg.dt**2)
        g_a = -c_a * s.x[0] - s.v[0] / (cfg.beta * cfg.dt) - (
            0.5 / cfg.beta - 1.0
        ) * s.a[0]
        x1 = -g_a / (c_a + 1.0)  # (c_a + k) x1 + g_a = 0 with m = k = 1
        R = residual(np.array([x1]), step_terms(sys_, s, cfg), sys_)
        assert abs(R[0]) < 1e-12

    def test_zero_system(self):
        sys_ = DynamicSystem(n_dof=2, M=np.zeros((2, 2)), C=np.zeros((2, 2)), K=np.zeros((2, 2)))
        cfg = NewmarkConfig(dt=0.1)
        s = State(0.0, [1.0, -2.0], [0.5, 0.5], [0.0, 1.0])
        R = residual(np.array([3.0, -4.0]), step_terms(sys_, s, cfg), sys_)
        assert np.array_equal(np.asarray(R), [0.0, 0.0])

    def test_duffing_hand_assembled_oracle(self):
        delta, alpha, beta_d, gamma_f, omega = 1.0, 1.0, 3.0, 10.0, 1.0
        sys_ = duffing(delta, alpha, beta_d, gamma_f, omega)
        cfg = NewmarkConfig(dt=2e-3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = State(
                float(rng.uniform(0, 5)),
                rng.standard_normal(1),
                rng.standard_normal(1),
                rng.standard_normal(1),
            )
            x1 = float(rng.standard_normal())
            t1 = s.t + cfg.dt
            b, g = cfg.beta, cfg.gamma
            a1 = (
                (x1 - s.x[0]) / (b * cfg.dt**2)
                - s.v[0] / (b * cfg.dt)
                - (0.5 / b - 1.0) * s.a[0]
            )
            v1 = (
                g * (x1 - s.x[0]) / (b * cfg.dt)
                + (1.0 - g / b) * s.v[0]
                + (1.0 - g / (2.0 * b)) * cfg.dt * s.a[0]
            )
            ref = (
                a1
                + delta * v1
                + alpha * x1
                + beta_d * x1**3
                - gamma_f * math.cos(omega * t1)
            )
            R = residual(np.array([x1]), step_terms(sys_, s, cfg), sys_)
            assert abs(R[0] - ref) < 1e-10 * (1.0 + abs(ref))

    def test_float_and_ad_paths_agree(self):
        sys_ = duffing()
        cfg = NewmarkConfig(dt=1e-3)
        s = State(0.2, [1.5], [-0.3], [2.0])
        x1 = np.array([1.7])
        p = step_terms(sys_, s, cfg)
        R_float = residual(x1, p, sys_)
        R_ad = residual(ad.lift(x1), p, sys_)
        assert abs(float(R_float[0]) - R_ad[0].value) < 1e-12 * (
            1.0 + abs(R_ad[0].value)
        )


class TestStepJacobian:
    """The solver's Jacobian (A_eff plus AD of F_nl in sys.nl_dofs) equals
    the dense AD Jacobian of the whole residual; a DOF missing from
    nl_dofs would drop its column."""

    def _gap(self, sys_, s, x1, cfg):
        self._assert_residual_bits(sys_, s, x1, cfg)
        p = step_terms(sys_, s, cfg)
        J = step_jacobian(x1, p, sys_, solve_terms(sys_, cfg))
        J_dense = ad.jacobian(lambda z: residual(z, p, sys_), x1)
        return float(np.max(np.abs(J - J_dense)) / np.max(np.abs(J_dense)))

    @staticmethod
    def _assert_residual_bits(sys_, s, x1, cfg):
        """The residual on StepTerms equals, bit for bit, the one written
        out from the Newmark update, on floats and on AD values and seeds."""
        p = step_terms(sys_, s, cfg)
        b, g, dt = cfg.beta, cfg.gamma, cfg.dt
        c_a, c_v = 1.0 / (b * dt * dt), g / (b * dt)
        t1 = s.t + dt
        for z in (x1, ad.lift(x1)):
            a1 = c_a * z + (c_a * (-s.x) - s.v / (b * dt) - (0.5 / b - 1.0) * s.a)
            v1 = c_v * z + (c_v * (-s.x) + (1.0 - g / b) * s.v
                            + (1.0 - g / (2.0 * b)) * dt * s.a)
            ref = (sys_.M @ a1 + sys_.C @ v1 + sys_.K @ z
                   + ad.stack(sys_.F_nl(z, v1, a1, t1)) - sys_.Q(t1))
            got = residual(z, p, sys_)
            assert np.array_equal(ad.value_of(got), ad.value_of(ref))
            if isinstance(z, ad.ADArray):
                assert np.array_equal(got.seeds, ref.seeds)

    def _state(self, rng, x, scale_v):
        n = x.size
        return State(float(rng.uniform(0.0, 0.5)), x,
                     scale_v * rng.standard_normal(n), scale_v * rng.standard_normal(n))

    def test_oscillators(self):
        rng = np.random.default_rng(21)
        cfg = NewmarkConfig(dt=1e-3)
        for sys_ in (duffing(), van_der_pol(1.0), pendulum()):
            for _ in range(5):
                s = self._state(rng, rng.standard_normal(1), 1.0)
                assert self._gap(sys_, s, rng.standard_normal(1), cfg) < 1e-12

    def test_sfd_rotor(self):
        rng = np.random.default_rng(22)
        cfg = NewmarkConfig(dt=1e-4)
        sys_ = sfd_rotor_system(900.0)
        for _ in range(5):
            def draw():
                ecc = rng.uniform(0.1, 0.6) * 2.5e-4
                ang = rng.uniform(0.0, 2.0 * math.pi)
                tilt = 1e-6 * rng.standard_normal(2)
                return np.array([ecc * math.cos(ang), ecc * math.sin(ang), *tilt])
            s = self._state(rng, draw(), 0.01)
            assert self._gap(sys_, s, draw(), cfg) < 1e-12

    def test_dual_rotor_balls_in_and_out_of_contact(self):
        rng = np.random.default_rng(23)
        cfg = NewmarkConfig(dt=1e-4)
        layout = default_dual_rotor_layout()
        sys_ = assemble_dual_rotor(layout)
        assert sys_.nl_dofs.size == 10
        support = layout.support_bearings[0]
        base = 4 * support.node
        for k in range(6):
            x1 = 1e-5 * rng.standard_normal(sys_.n_dof)
            if k % 2:
                x1[base:base + 2] = 0.0  # that bearing's balls all out of contact
            s = self._state(rng, 1e-5 * rng.standard_normal(sys_.n_dof), 1e-3)
            theta = ball_angles(support.params, s.t + cfg.dt)
            delta = x1[base] * np.cos(theta) + x1[base + 1] * np.sin(theta)
            if k % 2:
                assert np.all(delta <= support.params.clearance)
            else:
                assert np.any(delta > support.params.clearance)
                assert np.any(delta <= support.params.clearance)
            assert self._gap(sys_, s, x1, cfg) < 1e-12

    @staticmethod
    def _maps_on_ad_arrays(x1, p, sys_, A_eff):
        """The Jacobian with x1 seeded on nl_dofs and v1, a1 from the Newmark
        maps run on ADArrays, the seeds a solve now builds once."""
        S = np.eye(sys_.n_dof)[:, sys_.nl_dofs]
        J = A_eff.copy()
        J[..., sys_.nl_dofs] += ad.jacobian(
            lambda x: sys_.F_nl(x, p.velocity(x), p.acceleration(x), p.t1), x1, S)
        return J

    def test_constant_seeds_match_the_newmark_maps(self):
        rng = np.random.default_rng(24)

        def f_nl(x, v, a, t):
            return [0.1 * x[0] * a[0] + v[1] ** 3, a[1] * v[0], 0.0]

        # Reads x, v and a, so every one of the three seeds counts.
        inertial = DynamicSystem(n_dof=3, M=np.eye(3), C=np.zeros((3, 3)),
                                 K=np.eye(3), F_nl=f_nl, accel_dependent=True,
                                 nl_dofs=[0, 1])
        cases = [
            (inertial, NewmarkConfig(dt=1e-3), 1.0),
            (duffing(), NewmarkConfig(dt=1e-3), 1.0),
            (sfd_rotor_system(900.0), NewmarkConfig(dt=1e-4), 1e-5),
            (assemble_dual_rotor(default_dual_rotor_layout()),
             NewmarkConfig(dt=1e-4), 1e-5),
        ]
        for sys_, cfg, scale in cases:
            terms = solve_terms(sys_, cfg)
            for _ in range(3):
                s = self._state(rng, scale * rng.standard_normal(sys_.n_dof),
                                scale)
                x1 = scale * rng.standard_normal(sys_.n_dof)
                p = step_terms(sys_, s, cfg)
                assert np.array_equal(step_jacobian(x1, p, sys_, terms),
                                      self._maps_on_ad_arrays(x1, p, sys_,
                                                              terms.A_eff))

    def test_constant_seeds_match_the_newmark_maps_on_rows(self):
        rng = np.random.default_rng(25)
        cfg = NewmarkConfig(dt=1e-4)
        systems = [sfd_rotor_system(w) for w in (700.0, 900.0, 1300.0)]
        terms = [solve_terms(sys_, cfg) for sys_ in systems]
        X, V, A, X1 = 1e-5 * rng.standard_normal((4, 3, 4))
        t1 = 0.1 + cfg.dt
        p = _step_terms(X, V, A, t1, np.array([sys_.Q(t1) for sys_ in systems]), cfg)
        A_eff = np.array([s.A_eff for s in terms])
        J = step_jacobian(X1, p, systems[0], SolveTerms(A_eff, terms[0].seeds, None))
        assert np.array_equal(J, self._maps_on_ad_arrays(X1, p, systems[0], A_eff))
        for i, sys_ in enumerate(systems):
            p_i = step_terms(sys_, State(0.1, X[i], V[i], A[i]), cfg)
            assert np.array_equal(J[i], step_jacobian(X1[i], p_i, sys_, terms[i]))

    def test_equals_the_column_scatter_form(self):
        # Every DOF declared (duffing, SFD) adds the derivative whole; the
        # dual rotor (10 of 40) scatters its columns.  Both keep the bits
        # of the scatter form, on one row and on a stack of rows.
        rng = np.random.default_rng(26)
        cases = [
            (duffing(), NewmarkConfig(dt=1e-3), 1.0, 1),
            (sfd_rotor_system(900.0), NewmarkConfig(dt=1e-4), 1e-5, 1),
            (sfd_rotor_system(900.0), NewmarkConfig(dt=1e-4), 1e-5, 4),
            (assemble_dual_rotor(default_dual_rotor_layout()),
             NewmarkConfig(dt=1e-4), 1e-5, 1),
        ]
        for sys_, cfg, scale, n_rows in cases:
            terms = solve_terms(sys_, cfg)
            shape = (n_rows, sys_.n_dof) if n_rows > 1 else (sys_.n_dof,)
            X, V, A, X1 = scale * rng.standard_normal((4,) + shape)
            p = _step_terms(X, V, A, 0.1 + cfg.dt,
                            np.broadcast_to(sys_.Q(0.1 + cfg.dt), shape), cfg)
            if n_rows > 1:
                A_eff = np.array([terms.A_eff] * n_rows)
                terms = SolveTerms(A_eff, terms.seeds, None)
            J = step_jacobian(X1, p, sys_, terms)
            ref = terms.A_eff.copy()
            ref[..., sys_.nl_dofs] += ad.jacobian(
                lambda x, v, a: sys_.F_nl(x, v, a, p.t1),
                (X1, p.velocity(X1), p.acceleration(X1)), terms.seeds)
            assert J.tobytes() == ref.tobytes()

    def test_replace_keeps_declared_dofs(self):
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        copy = dataclasses.replace(sys_, F_nl=sys_.F_nl)
        assert np.array_equal(copy.nl_dofs, sys_.nl_dofs)


class TestInitialAcceleration:
    def test_pendulum(self):
        a0 = initial_acceleration(pendulum(), [2.0], [0.0])
        assert np.allclose(a0, [-math.sin(2.0)], atol=1e-12)

    def test_van_der_pol(self):
        a0 = initial_acceleration(van_der_pol(1.0), [2.0], [0.0])
        assert np.allclose(a0, [-2.0], atol=1e-12)

    def test_rotor_consistency_oracle(self):
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        rng = np.random.default_rng(2)
        x0 = 1e-5 * rng.standard_normal(sys_.n_dof)
        v0 = 1e-3 * rng.standard_normal(sys_.n_dof)
        a0 = initial_acceleration(sys_, x0, v0, 0.0)
        f = np.asarray(sys_.F_nl(x0, v0, a0, 0.0), dtype=float)
        res = sys_.M @ a0 + sys_.C @ v0 + sys_.K @ x0 + f - sys_.Q(0.0)
        scale = np.linalg.norm(sys_.Q(0.0)) + np.linalg.norm(sys_.K @ x0)
        assert np.linalg.norm(res) < 1e-9 * (1.0 + scale)

    def test_accel_dependent_branch(self):
        # F_nl = 0.5*a cubes down to the same fixed point the direct solve
        # gives for the equivalent (1 + 0.5) M system.
        def f_nl(x, v, a, t):
            return [0.5 * a[0]]

        sys_ = DynamicSystem(
            n_dof=1,
            M=np.array([[1.0]]),
            C=np.zeros((1, 1)),
            K=np.array([[2.0]]),
            F_nl=f_nl,
            accel_dependent=True,
        )
        a0 = initial_acceleration(sys_, [3.0], [0.0])
        assert np.allclose(a0, [-2.0 * 3.0 / 1.5], atol=1e-8)


class TestStep:
    def test_linear_sdof_single_iteration(self):
        sys_ = linear_sdof()
        cfg = NewmarkConfig(dt=1e-2)
        traj = integrate(sys_, [1.0], [0.0], 0.0, 5e-2, cfg)
        assert np.all(traj.iterations[1:] == 1)

    def test_duffing_strategies_agree_single_step(self):
        x0, v0 = np.array([2.0]), np.array([0.0])
        results = []
        for strat in (FULL_NEWTON, SIMPLIFIED_NEWTON, BROYDEN_RANK1):
            sys_ = duffing()
            cfg = NewmarkConfig(dt=1e-3, strategy=strat)
            s = State(0.0, x0, v0, initial_acceleration(sys_, x0, v0, 0.0))
            results.append(step(sys_, s, cfg).x[0])
        assert abs(results[0] - results[1]) < 1e-9
        assert abs(results[0] - results[2]) < 1e-9

    def test_zero_state_stays_zero(self):
        sys_ = linear_sdof()
        s = State(0.0, [0.0], [0.0], [0.0])
        out = step(sys_, s, NewmarkConfig(dt=0.1))
        assert out.x[0] == 0.0 and out.v[0] == 0.0 and out.a[0] == 0.0

    def test_non_convergence_error(self):
        sys_ = duffing()
        cfg = NewmarkConfig(dt=0.1, tol_dx=0.0, tol_res=0.0, max_iter=3)
        s = State(0.0, [2.0], [0.0], initial_acceleration(sys_, [2.0], [0.0]))
        with pytest.raises(NonConvergenceError) as exc:
            step(sys_, s, cfg)
        assert exc.value.iterations == 3

    def test_non_finite_residual_stops_at_once(self):
        # F_nl turns NaN past x = 1; the first Newton iterate lands there.
        def f_nl(x, v, a, t):
            return [x[0] * (math.nan if ad.value_of(x[0]) > 1.0 else 1.0)]

        sys_ = DynamicSystem(n_dof=1, M=np.eye(1), C=np.zeros((1, 1)), K=np.eye(1),
                             Q=lambda t: np.array([1000.0]), F_nl=f_nl)
        cfg = NewmarkConfig(dt=0.1)
        s = State(0.0, [0.5], [0.0], [0.0])
        with pytest.raises(NonConvergenceError) as exc:
            step(sys_, s, cfg)
        assert exc.value.iterations < cfg.max_iter
        assert exc.value.iterations == 1
        assert math.isnan(exc.value.res_norm)

    def test_singular_jacobian_error(self):
        sys_ = DynamicSystem(
            n_dof=1,
            M=np.zeros((1, 1)),
            C=np.zeros((1, 1)),
            K=np.zeros((1, 1)),
            Q=lambda t: np.array([1.0]),
        )
        s = State(0.0, [0.0], [0.0], [0.0])
        with pytest.raises(SingularJacobianError):
            step(sys_, s, NewmarkConfig(dt=0.1))


class TestNewtonLoop:
    """Calls the step loop makes, counted through newmark's namespace."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # "factor_at" holds the residual count at each lu_factor call.
        calls = {"residual": 0, "factor_at": []}
        res, fac = nnrad.newmark.residual, nnrad.newmark.lu_factor

        def counted_residual(*args):
            calls["residual"] += 1
            return res(*args)

        def counted_factor(*args):
            calls["factor_at"].append(calls["residual"])
            return fac(*args)

        monkeypatch.setattr(nnrad.newmark, "residual", counted_residual)
        monkeypatch.setattr(nnrad.newmark, "lu_factor", counted_factor)
        return calls

    def test_broyden_one_residual_per_iteration_one_factor_per_step(self, calls):
        cfg = NewmarkConfig(dt=1e-3, strategy=BROYDEN_RANK1)
        traj = integrate(sfd_rotor_system(900.0), np.zeros(4), np.zeros(4),
                         0.0, 0.2, cfg)
        steps = traj.n_samples - 1
        assert calls["residual"] == traj.iterations.sum() + steps
        # One more factor for the mass matrix in initial_acceleration.
        assert len(calls["factor_at"]) == np.count_nonzero(traj.iterations) + 1

    def test_broyden_refreshes_once_past_half_of_max_iter(self, calls):
        sys_ = duffing()
        s = State(0.0, [2.0], [0.0], [-16.0])  # a(0) = 10 - 2 - 3 * 2^3
        cfg = NewmarkConfig(dt=0.1, tol_dx=0.0, tol_res=0.0, max_iter=4,
                            strategy=BROYDEN_RANK1)
        with pytest.raises(NonConvergenceError) as exc:
            step(sys_, s, cfg)
        assert exc.value.iterations == 4
        # Residuals before iterations 0 and 3: the factor is built there.
        assert calls["factor_at"] == [1, 4]

    def test_singular_secant_update(self):
        # R(x) = x^2 - 2x + 4 from x = 0: dx = -2 lands on R(2) = R(0), so
        # the secant slope, and with it the updated Jacobian, is exactly 0.
        zero = np.zeros((1, 1))
        sys_ = DynamicSystem(n_dof=1, M=zero, C=zero, K=zero,
                             Q=lambda t: np.array([-4.0]),
                             F_nl=lambda x, v, a, t: [x[0] * x[0] - 2.0 * x[0]])
        s = State(0.0, [0.0], [0.0], [0.0])
        with pytest.raises(SingularJacobianError):
            step(sys_, s, NewmarkConfig(dt=0.1, strategy=BROYDEN_RANK1))


class TestRankKFactor:
    """Step Jacobians of models whose F_nl reads at most half of the DOFs
    are factored as rank-k updates of A_eff's factor."""

    @staticmethod
    def direct(monkeypatch):
        """Make newmark factor every Jacobian directly, as it did before."""
        calls = []

        def lu_factor(A, base=None):
            calls.append(base)
            return linalg.lu_factor(A)

        monkeypatch.setattr(nnrad.newmark, "lu_factor", lu_factor)
        return calls

    def test_singular_jacobian_is_located_as_by_the_direct_path(self, monkeypatch):
        cfg = NewmarkConfig(dt=1e-3)
        c_a = 1.0 / (cfg.beta * cfg.dt * cfg.dt)
        K = np.diag([1.0, 2.0, 3.0, 4.0])

        def f_nl(x, v, a, t):
            # From t = 3.5 ms on, dF_0/dx_0 cancels A_eff[0, 0] exactly.
            coef = c_a + K[0, 0] if t > 3.5e-3 else 0.0
            return [-coef * x[0], 0.0, 0.0, 0.0]

        sys_ = DynamicSystem(n_dof=4, M=np.eye(4), C=np.zeros((4, 4)), K=K,
                             Q=lambda t: np.ones(4), F_nl=f_nl, nl_dofs=[0])
        assert solve_terms(sys_, cfg).base is not None
        x0 = np.full(4, 0.1)
        errors = []
        for patch in (False, True):
            if patch:
                self.direct(monkeypatch)
            with pytest.raises(SingularJacobianError) as exc:
                integrate(sys_, x0, np.zeros(4), 0.0, 0.01, cfg)
            errors.append(exc.value)
        assert errors[0].step_index == errors[1].step_index == 4
        assert errors[0].pivot_index == errors[1].pivot_index
        assert errors[0].t == errors[1].t

    def test_singular_A_eff_integrates_as_the_direct_path(self, monkeypatch):
        cfg = NewmarkConfig(dt=1e-3)
        c_a = 1.0 / (cfg.beta * cfg.dt * cfg.dt)

        def f_nl(x, v, a, t):
            return [0.0, (c_a + 10.0) * x[1] + x[1] ** 3]

        # A_eff = diag(c_a, 0): the negative stiffness on DOF 1 cancels c_a M.
        sys_ = DynamicSystem(n_dof=2, M=np.eye(2), C=np.zeros((2, 2)),
                             K=np.diag([1.0, -c_a]),
                             Q=lambda t: np.array([math.cos(t), math.sin(5 * t)]),
                             F_nl=f_nl, nl_dofs=[1])
        with pytest.raises(linalg.SingularMatrixError):
            linalg.lu_factor(solve_terms(sys_, cfg).A_eff)
        assert solve_terms(sys_, cfg).base is None
        got = integrate(sys_, [0.1, 0.2], [0.0, 0.0], 0.0, 0.5, cfg)
        calls = self.direct(monkeypatch)
        want = integrate(sys_, [0.1, 0.2], [0.0, 0.0], 0.0, 0.5, cfg)
        assert calls and all(base is None for base in calls)
        for name in ("x", "v", "a", "iterations", "residual_norms"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_dual_rotor_stays_within_rounding_of_the_direct_path(self, monkeypatch):
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        cfg = NewmarkConfig(dt=1e-4)
        x0 = np.zeros(sys_.n_dof)
        got = integrate(sys_, x0, x0, 0.0, 0.005, cfg)
        self.direct(monkeypatch)
        want = integrate(sys_, x0, x0, 0.0, 0.005, cfg)
        assert np.array_equal(got.iterations, want.iterations)
        for name in ("x", "v", "a"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))


class TestIntegrate:
    def test_load_is_evaluated_once_per_step(self):
        sys_ = duffing()
        for t0 in (0.0, 0.2):
            times = []

            def q(t):
                times.append(t)
                return sys_.Q(t)

            traj = integrate(dataclasses.replace(sys_, Q=q), [2.0], [0.0], t0,
                             t0 + 1.0, NewmarkConfig(dt=1e-3))
            steps = traj.n_samples - 1
            assert steps == 1000 and traj.iterations.sum() > steps
            # Once per step, plus once for initial_acceleration.
            assert len(times) == steps + 1
            # Each step evaluates Q at the grid time it reports.
            assert times[1:] == traj.t[1:].tolist()

    def _located(self, exc_info, sys_, x0, cfg):
        """Check the step, time and state a model error carries."""
        err = exc_info.value
        i = err.step_index
        assert i > 1
        assert err.t == 0.0 + i * cfg.dt
        assert err.state.t == 0.0 + (i - 1) * cfg.dt
        if hasattr(err, "add_note"):  # Python >= 3.11
            note = err.__notes__[-1]
            assert f"step {i}" in note and repr(err.t) in note
        # state is the last accepted one: where the first i - 1 steps lead.
        before = integrate(sys_, x0, np.zeros_like(x0), 0.0, (i - 1) * cfg.dt, cfg)
        assert np.array_equal(err.state.x, before.x[-1])
        assert np.array_equal(err.state.v, before.v[-1])
        assert np.array_equal(err.state.a, before.a[-1])

    def test_film_rupture_names_step_time_and_state(self):
        from nnrad.models.sfd import FilmRuptureError

        sys_ = sfd_rotor_system(1000.0, unbalance=5e-2)
        cfg = NewmarkConfig(dt=1e-4, strategy=SIMPLIFIED_NEWTON)
        with pytest.raises(FilmRuptureError) as exc:
            integrate(sys_, np.zeros(4), np.zeros(4), 0.0, 0.2, cfg)
        self._located(exc, sys_, np.zeros(4), cfg)

    def test_ad_domain_error_names_step_time_and_state(self):
        # sqrt(1 + x) with a load pulling x below -1 within a few steps.
        sys_ = DynamicSystem(n_dof=1, M=np.eye(1), C=np.zeros((1, 1)),
                             K=np.zeros((1, 1)), Q=lambda t: np.array([-1000.0]),
                             F_nl=lambda x, v, a, t: [ad.sqrt(1.0 + x[0])])
        cfg = NewmarkConfig(dt=1e-2)
        with pytest.raises(ad.ADDomainError) as exc:
            integrate(sys_, [0.0], [0.0], 0.0, 1.0, cfg)
        self._located(exc, sys_, np.zeros(1), cfg)
        assert exc.value.state.x[0] > -1.0

    def test_error_without_add_note_is_located(self):
        # Before Python 3.11 exceptions have no add_note: integrate still
        # re-raises the same object with its step, time and state set.
        class NoNoteError(RuntimeError):
            @property
            def add_note(self):
                raise AttributeError("add_note")

        def f_nl(x, v, a, t):
            if t > 0.055:
                raise NoNoteError("model failed")
            return 0.0 * x

        sys_ = dataclasses.replace(linear_sdof(), F_nl=f_nl)
        cfg = NewmarkConfig(dt=1e-2)
        with pytest.raises(NoNoteError) as exc:
            integrate(sys_, [1.0], [0.0], 0.0, 1.0, cfg)
        err = exc.value
        assert not hasattr(err, "__notes__")
        assert err.step_index == 6
        assert err.t == 0.0 + 6 * cfg.dt and err.state.t == 0.0 + 5 * cfg.dt

    def test_constant_velocity_exact(self):
        sys_ = DynamicSystem(
            n_dof=1, M=np.array([[1.0]]), C=np.zeros((1, 1)), K=np.zeros((1, 1))
        )
        traj = integrate(sys_, [0.0], [1.0], 0.0, 1.0, NewmarkConfig(dt=0.1))
        assert np.allclose(traj.x[:, 0], traj.t, atol=1e-12)

    def test_sdof_cosine(self):
        traj = integrate(linear_sdof(), [1.0], [0.0], 0.0, 1.0, NewmarkConfig(dt=1e-3))
        assert abs(traj.x[-1, 0] - math.cos(1.0)) < 1e-5

    def test_bad_time_span(self):
        with pytest.raises(ValueError):
            integrate(linear_sdof(), [1.0], [0.0], 1.0, 1.0, NewmarkConfig(dt=1e-3))

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_t_end_not_finite(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            integrate(linear_sdof(), [1.0], [0.0], 0.0, t_end, NewmarkConfig(dt=1e-3))

    def test_van_der_pol_vs_rk4_short(self):
        sys_ = van_der_pol(1.0)
        cfg = NewmarkConfig(dt=1e-3)
        traj = integrate(sys_, [2.0], [0.0], 0.0, 5.0, cfg)
        ref = rk4_integrate(to_first_order(sys_), np.array([2.0, 0.0]), 0.0, 5.0, 1e-3)
        assert np.max(np.abs(traj.x[:, 0] - ref.x[:, 0])) < 1e-3

    def test_trajectory_grid(self):
        traj = integrate(linear_sdof(), [1.0], [0.0], 0.5, 0.6, NewmarkConfig(dt=1e-2))
        assert traj.n_samples == 11
        assert np.allclose(np.diff(traj.t), 1e-2)
        assert traj.t[0] == 0.5

    def test_consistency_of_accepted_states(self):
        # Every accepted state satisfies the equation of motion residual.
        sys_ = duffing()
        cfg = NewmarkConfig(dt=1e-3)
        traj = integrate(sys_, [2.0], [0.0], 0.0, 0.2, cfg)
        for i in range(traj.n_samples):
            s = traj.state(i)
            f = np.asarray(sys_.F_nl(s.x, s.v, s.a, s.t), dtype=float)
            r = sys_.M @ s.a + sys_.C @ s.v + sys_.K @ s.x + f - sys_.Q(s.t)
            assert np.linalg.norm(r) < 10.0 * cfg.tol_res


class TestOrder:
    def test_newmark_second_order(self):
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            traj = integrate(
                linear_sdof(), [1.0], [0.0], 0.0, 1.0, NewmarkConfig(dt=dt)
            )
            errs.append(abs(traj.x[-1, 0] - math.cos(1.0)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert 1.8 <= p <= 2.2
