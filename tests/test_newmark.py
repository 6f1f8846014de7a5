import dataclasses
import json
import math
from pathlib import Path

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
from nnrad.lockstep import _stack, integrate_rows
from nnrad.system import Sites
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
    STRATEGIES,
    _offset_terms,
    _step_terms,
    linearize,
    solve_terms,
    step_jacobian,
    step_terms,
)


REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def linear_sdof(k=1.0, c=0.0):
    return DynamicSystem(
        n_dof=1, M=np.array([[1.0]]), C=np.array([[c]]), K=np.array([[k]])
    )


def dense_dual_rotor():
    """The dual rotor without its sites: step_jacobian differentiates F_nl."""
    return dataclasses.replace(assemble_dual_rotor(default_dual_rotor_layout()),
                               sites=None)


def stored_start():
    """The sfd_sweep start: a state on the steady orbit at 1000 rad/s."""
    start = json.loads(REFERENCE.read_text())["sfd_sweep"]["start"]
    return np.array(start["x"]), np.array(start["v"])


def dense_sfd_rotor(omega):
    """The SFD rotor without its site: step_jacobian seeds F_nl on x, v, a."""
    return dataclasses.replace(sfd_rotor_system(omega), sites=None)


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
        x = ad._seeded(x1, np.eye(sys_.n_dof)[:, sys_.nl_dofs])
        J = A_eff.copy()
        J[..., sys_.nl_dofs] += ad.stack(
            sys_.F_nl(x, p.velocity(x), p.acceleration(x), p.t1)).seeds
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
            (dense_sfd_rotor(900.0), NewmarkConfig(dt=1e-4), 1e-5),
            (dense_dual_rotor(), NewmarkConfig(dt=1e-4), 1e-5),
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
                                                              terms.base.B))

    def test_constant_seeds_match_the_newmark_maps_on_rows(self):
        rng = np.random.default_rng(25)
        cfg = NewmarkConfig(dt=1e-4)
        systems = [dense_sfd_rotor(w) for w in (700.0, 900.0, 1300.0)]
        terms = [solve_terms(sys_, cfg) for sys_ in systems]
        rows, row_terms = _stack(systems, terms, [0, 1, 2])
        X, V, A, X1 = 1e-5 * rng.standard_normal((4, 3, 4))
        t1 = 0.1 + cfg.dt
        p = _step_terms(X, V, A, t1, rows.Q(t1), row_terms.k)
        J = step_jacobian(X1, p, systems[0], row_terms)
        assert np.array_equal(J, self._maps_on_ad_arrays(X1, p, systems[0],
                                                         row_terms.base.B))
        for i, sys_ in enumerate(systems):
            p_i = step_terms(sys_, State(0.1, X[i], V[i], A[i]), cfg)
            assert np.array_equal(J[i], step_jacobian(X1[i], p_i, sys_, terms[i]))

    def test_equals_the_column_scatter_form(self):
        # Every DOF declared (duffing, the SFD rotor's F_nl without its
        # site) adds the derivative whole; the dual rotor's F_nl without its
        # sites (10 of 40) scatters its columns.  Both keep the bits of the
        # scatter form, on one row and on a stack of rows.
        rng = np.random.default_rng(26)
        cases = [
            (duffing(), NewmarkConfig(dt=1e-3), 1.0, 1),
            (dense_sfd_rotor(900.0), NewmarkConfig(dt=1e-4), 1e-5, 1),
            (dense_sfd_rotor(900.0), NewmarkConfig(dt=1e-4), 1e-5, 4),
            (dense_dual_rotor(), NewmarkConfig(dt=1e-4), 1e-5, 1),
        ]
        for sys_, cfg, scale, n_rows in cases:
            terms = solve_terms(sys_, cfg)
            shape = (n_rows, sys_.n_dof) if n_rows > 1 else (sys_.n_dof,)
            X, V, A, X1 = scale * rng.standard_normal((4,) + shape)
            p = _step_terms(X, V, A, 0.1 + cfg.dt,
                            np.broadcast_to(sys_.Q(0.1 + cfg.dt), shape), terms.k)
            if n_rows > 1:
                one = terms.base
                terms = terms._replace(base=linalg.rank_k_base(
                    np.array([one.B] * n_rows), None, one.rows, one.cols))
            J = step_jacobian(X1, p, sys_, terms)
            ref = terms.base.B.copy()
            x, v, a = (ad._seeded(z, S) for z, S in zip(
                (X1, p.velocity(X1), p.acceleration(X1)), terms.seeds))
            ref[..., sys_.nl_dofs] += ad.stack(sys_.F_nl(x, v, a, p.t1)).seeds
            assert J.tobytes() == ref.tobytes()

    def test_replace_keeps_declared_dofs(self):
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        copy = dataclasses.replace(sys_, F_nl=sys_.F_nl)
        assert np.array_equal(copy.nl_dofs, sys_.nl_dofs)


class TestSites:
    """The dual rotor declares its bearing balls as scalar sites, the SFD
    rotor its film as one 2-vector site that reads the rate: their step
    Jacobians differentiate the law alone, never F_nl."""

    FIELDS = ("x", "v", "a", "iterations", "residual_norms")

    @staticmethod
    def site_models():
        """(system, scale of x, scale of v) of each model declared by sites."""
        return [(assemble_dual_rotor(default_dual_rotor_layout()), 1e-5, 1e-3),
                (sfd_rotor_system(900.0), 1e-5, 1e-3)]

    @staticmethod
    def sfd_states(rng, n_rows):
        """(x, v, a) near the sfd_sweep stored start, one row or (n_rows, 4)."""
        x0, v0 = stored_start()
        shape = (n_rows, 4) if n_rows > 1 else (4,)
        return (x0 * (1.0 + 0.05 * rng.standard_normal(shape)),
                v0 * (1.0 + 0.05 * rng.standard_normal(shape)),
                1e2 * rng.standard_normal(shape))

    def test_nl_dofs_must_list_every_dof_the_sites_read(self):
        G = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, -0.5]])

        def build(nl_dofs):
            return DynamicSystem(n_dof=4, M=np.eye(4), C=np.zeros((4, 4)), K=np.eye(4),
                                 nl_dofs=nl_dofs,
                                 sites=Sites(lambda t: G, lambda u, t: u ** 3))

        assert np.array_equal(build([0, 2, 3]).nl_dofs, [0, 2, 3])
        assert np.array_equal(build(None).nl_dofs, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="DOF 2, not in nl_dofs"):
            build([0, 3])
        with pytest.raises(ValueError, match="DOF 3, not in nl_dofs"):
            build([0, 1, 2])
        for sys_, _, _ in self.site_models():
            assert sys_.sites is not None

    @staticmethod
    def width_3_system(damping=1.0):
        """Two width-3 sites that read 4 of 10 DOFs through a moving G(t) and
        not the rate; each site's forces couple its own three entries."""
        rng = np.random.default_rng(34)
        G0 = np.zeros((6, 10))
        G0[:, [1, 3, 4, 7]] = rng.standard_normal((6, 4))
        roll = np.kron(np.eye(2), np.roll(np.eye(3), 1, axis=1))  # u_j <- u_j+1 of its site

        def law(u, t):
            return u ** 3 + 0.5 * u * ad.matvec(roll, u)

        return DynamicSystem(n_dof=10, M=1e-8 * np.eye(10), C=damping * 1e-4 * np.eye(10),
                             K=np.eye(10), nl_dofs=[1, 3, 4, 7], batch_key="width 3",
                             sites=Sites(lambda t: (1.0 + 0.1 * math.sin(t)) * G0, law,
                                         width=3))

    @staticmethod
    def width_3_states(rng, n_rows):
        shape = (n_rows, 10) if n_rows > 1 else (10,)
        return tuple(0.5 * rng.standard_normal(shape) for _ in range(3))

    def site_cases(self):
        """(lock-step systems, their states) of a rate site and a width-3 site."""
        return [([sfd_rotor_system(w) for w in (700.0, 900.0, 1100.0, 1300.0)],
                 self.sfd_states),
                ([self.width_3_system(f) for f in (0.5, 1.0, 2.0, 4.0)],
                 self.width_3_states)]

    def test_sfd_site_jacobian_equals_the_dense_one(self):
        # step_jacobian is A_eff plus the AD Jacobian of the whole force
        # along the Newmark map v = c_v x + g_v, one row and lock-step rows:
        # the SFD film, which reads the rate, and the width-3 sites.
        rng = np.random.default_rng(33)
        cfg = NewmarkConfig(dt=1e-4)
        for models, states in self.site_cases():
            for n_rows in (1, 4):
                systems = models[:n_rows]
                terms = [solve_terms(sys_, cfg) for sys_ in systems]
                if n_rows > 1:
                    sys_, row_terms = _stack(systems, terms, list(range(n_rows)))
                else:
                    sys_, row_terms = systems[0], terms[0]
                for _ in range(4):
                    X, V, A = states(rng, n_rows)
                    t1 = 0.01 + cfg.dt
                    p = _offset_terms(_step_terms(X, V, A, t1, sys_.Q(t1), row_terms.k),
                                      sys_, row_terms.base.B)
                    X1 = X + 1e-7 * rng.standard_normal(X.shape)
                    J = step_jacobian(X1, p, sys_, row_terms)
                    dF = ad.jacobian(lambda x: sys_.F_nl(x, p.velocity(x), None, t1), X1)
                    want = row_terms.base.B + dF
                    assert np.abs(J - want).max() <= 1e-12 * np.abs(want).max()
                    # Every entry of dF on the DOFs the sites read counts.
                    cols = sys_.nl_dofs
                    assert np.abs(dF[..., cols[:, None], cols]).min() > 0.0

    def test_block_product_equals_the_explicit_form(self):
        # D = G_n^T blockdiag(law') G_n, law' = dlaw/du + c_v dlaw/ddu from
        # ad.jacobian of the law: the block product forms it, on one row and
        # on three lock-step rows, which share the first system's sites.
        rng = np.random.default_rng(35)
        for models, states in self.site_cases():
            sys_ = models[0]
            terms = solve_terms(sys_, NewmarkConfig(dt=1e-4))
            sites, cols, m = sys_.sites, sys_.nl_dofs, sys_.sites.width
            for n_rows, t in ((1, 0.01), (3, 0.37)):
                X, V, _ = states(rng, n_rows)
                G = sites.matrix(t)
                u, du = ad.matvec(G, X), ad.matvec(G, V)
                if sites.rate:
                    L = (ad.jacobian(lambda w: sites.law(w, du, t), u)
                         + terms.k.c_v * ad.jacobian(lambda w: sites.law(u, w, t), du))
                else:
                    L = ad.jacobian(lambda w: sites.law(w, t), u)
                blocks = np.kron(np.eye(len(G) // m), np.ones((m, m)))
                assert not (L * (1.0 - blocks)).any()  # the sites are independent
                G_n = G[:, cols]
                want = G_n.T @ (L * blocks) @ G_n
                F, D = sites.evaluate(X, V, t, cols, terms.seeds)
                assert D.shape == want.shape
                assert np.abs(D - want).max() <= 1e-12 * np.abs(want).max()
                assert F.tobytes() == ad.stack(sites.force(X, V, None, t)).tobytes()

    def test_a_matrix_gather_forms_G_once(self):
        # The SFD rotor's constant journal map is a matrix: G and G_n are the
        # same arrays at every step time.  The same map as a gather function
        # is called once per new t, and integrates bit for bit alike.
        fixed = sfd_rotor_system(900.0)
        T, calls = fixed.sites.gather, []
        assert isinstance(T, np.ndarray)

        def gather(t):
            calls.append(t)
            return T

        moving = dataclasses.replace(fixed, sites=Sites(gather, fixed.sites.law,
                                                        width=2, rate=True))
        first = fixed.sites.terms(0.0, fixed.nl_dofs)
        x0, v0 = stored_start()
        cfg = NewmarkConfig(dt=1e-4)
        got = integrate(fixed, x0, v0, 0.0, 0.002, cfg)
        want = integrate(moving, x0, v0, 0.0, 0.002, cfg)
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert len(calls) == len(set(calls)) == len(got.t)
        for t in got.t:
            st = fixed.sites.terms(t, fixed.nl_dofs)
            assert st.G is first.G and st.G_n is first.G_n

    def test_a_rate_law_gets_the_velocity(self):
        # The SFD film reads the rate: past initial_acceleration, the Newton
        # loop's F_nl calls get v1 and a = None.
        sys_ = sfd_rotor_system(900.0)
        f_nl, calls = sys_.F_nl, []

        def force(x, v, a, t):
            calls.append((v is None, a is None))
            return f_nl(x, v, a, t)

        x0, v0 = stored_start()
        integrate(dataclasses.replace(sys_, F_nl=force), x0, v0, 0.0, 0.001,
                  NewmarkConfig(dt=1e-4))
        assert calls[0] == (False, False) and len(calls) > 1
        assert all(c == (False, True) for c in calls[1:])

    @staticmethod
    def start(sys_):
        rng = np.random.default_rng(27)
        n = sys_.n_dof
        return 1e-5 * rng.standard_normal(n), 1e-3 * rng.standard_normal(n)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_law_jacobian_per_refresh_and_no_ad_force(self, strategy,
                                                           monkeypatch):
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        f_nl, law = sys_.F_nl, sys_.sites.law
        ad_inputs, refreshes, jacobians = [], [], []

        def force(x, v, a, t):
            ad_inputs.append(any(isinstance(z, ad.ADArray) for z in (x, v, a)))
            return f_nl(x, v, a, t)

        def ad_law(u, t):
            if isinstance(u, ad.ADArray):
                jacobians.append(1)
            return law(u, t)

        def counted(calls, fn):
            def call(*args):
                calls.append(1)
                return fn(*args)
            return call

        monkeypatch.setattr(sys_.sites, "law", ad_law)
        monkeypatch.setattr(nnrad.newmark, "linearize",
                            counted(refreshes, nnrad.newmark.linearize))
        x0, v0 = self.start(sys_)
        integrate(dataclasses.replace(sys_, F_nl=force), x0, v0, 0.0, 0.002,
                  NewmarkConfig(dt=1e-4, strategy=strategy))
        assert len(jacobians) == len(refreshes) >= 20
        assert ad_inputs and not any(ad_inputs)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_wrapped_force_integrates_bit_for_bit(self, strategy):
        # As the benchmark's tracer wraps F_nl: the sites stay declared.
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        wrapped = dataclasses.replace(sys_, F_nl=lambda *args: sys_.F_nl(*args))
        assert wrapped.sites is sys_.sites and wrapped.F_nl is not sys_.F_nl
        x0, v0 = self.start(sys_)
        cfg = NewmarkConfig(dt=1e-4, strategy=strategy)
        got = integrate(wrapped, x0, v0, 0.0, 0.003, cfg)
        want = integrate(sys_, x0, v0, 0.0, 0.003, cfg)
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_offset_form_of_the_residual(self):
        # In a step the linear part is A_eff x1 + h, h = M g_a + C g_v - q1:
        # within rounding of the plain form, with linearize's R keeping its
        # bits and a lifted x1 its value's bits (ndarray.dot would not take it).
        cfg = NewmarkConfig(dt=1e-4)
        rng = np.random.default_rng(28)
        for sys_, x_scale, v_scale in self.site_models():
            terms = solve_terms(sys_, cfg)
            n = sys_.n_dof
            for _ in range(8):
                s = State(0.2, x_scale * rng.standard_normal(n),
                          v_scale * rng.standard_normal(n), rng.standard_normal(n))
                x1 = s.x + 0.1 * x_scale * rng.standard_normal(n)
                plain = step_terms(sys_, s, cfg)
                p = _offset_terms(plain, sys_, terms.base.B)
                R = residual(x1, p, sys_)
                a1, v1 = plain.acceleration(x1), plain.velocity(x1)
                parts = [sys_.M @ a1, sys_.C @ v1, sys_.K @ x1,
                         sys_.F_nl(x1, v1, a1, p.t1), p.q1]
                want = parts[0] + parts[1] + parts[2] + parts[3] - parts[4]
                scale = max(np.abs(part).max() for part in parts)
                assert np.abs(R - want).max() <= 1e-13 * scale
                assert linearize(x1, p, sys_, terms)[0].tobytes() == R.tobytes()
                lifted = residual(ad.lift(x1), p, sys_)
                assert lifted.value.tobytes() == R.tobytes()
                assert np.allclose(lifted.seeds, step_jacobian(x1, p, sys_, terms),
                                   rtol=1e-12, atol=0.0)

    def test_offset_form_on_lock_step_rows(self):
        # Each row of a stacked offset form has the bits of its own.
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        systems = [dataclasses.replace(sys_, C=f * sys_.C, batch_key="dual")
                   for f in (0.5, 1.0, 2.0)]
        cfg = NewmarkConfig(dt=1e-4)
        terms = [solve_terms(s, cfg) for s in systems]
        rows, row_terms = _stack(systems, terms, [0, 1, 2])
        rng = np.random.default_rng(29)
        X, V, A, X1 = 1e-5 * rng.standard_normal((4, 3, sys_.n_dof))
        t1 = 0.2 + cfg.dt
        p = _offset_terms(_step_terms(X, V, A, t1, rows.Q(t1), row_terms.k), rows,
                          row_terms.base.B)
        R, J = linearize(X1, p, rows, row_terms)
        assert R.tobytes() == residual(X1, p, rows).tobytes()
        for i, row in enumerate(systems):
            p_i = _offset_terms(step_terms(row, State(0.2, X[i], V[i], A[i]), cfg), row,
                                terms[i].base.B)
            R_i, J_i = linearize(X1[i], p_i, row, terms[i])
            assert R[i].tobytes() == R_i.tobytes()
            assert J[i].tobytes() == J_i.tobytes()

    def test_the_newton_loop_passes_sites_no_velocity(self):
        # Site forces read x alone: past initial_acceleration, the Newton
        # loop's F_nl calls get v = a = None.
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        f_nl, calls = sys_.F_nl, []

        def force(x, v, a, t):
            calls.append((v is None, a is None))
            return f_nl(x, v, a, t)

        x0, v0 = self.start(sys_)
        integrate(dataclasses.replace(sys_, F_nl=force), x0, v0, 0.0, 0.001,
                  NewmarkConfig(dt=1e-4))
        assert calls[0] == (False, False) and len(calls) > 1
        assert all(c == (True, True) for c in calls[1:])

    def test_rows_in_lock_step_equal_integrate(self, monkeypatch):
        # One set of sites shared by rows whose damping differs.
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        systems = [dataclasses.replace(sys_, C=f * sys_.C, batch_key="dual")
                   for f in (0.5, 1.0, 2.0)]
        x0, v0 = self.start(sys_)
        cfg = NewmarkConfig(dt=1e-4)
        ndims, step_core = [], nnrad.newmark._step_core

        def recorded(sys_, x, *args, **kwargs):
            ndims.append(np.ndim(x))
            return step_core(sys_, x, *args, **kwargs)

        monkeypatch.setattr(nnrad.newmark, "_step_core", recorded)
        got = integrate_rows(systems, [x0] * 3, [v0] * 3, 0.0, 0.002, cfg)
        assert ndims == [2] * 20
        for row, traj in zip(systems, got):
            want = integrate(row, x0, v0, 0.0, 0.002, cfg)
            for name in self.FIELDS:
                assert np.array_equal(getattr(traj, name), getattr(want, name)), name


class TestLinearize:
    """linearize gives R, with the bits of residual, and J from one pass."""

    @staticmethod
    def inertial():
        def f_nl(x, v, a, t):
            return [0.1 * x[0] * a[0] + v[1] ** 3, a[1] * v[0] / (2.0 + x[0]), 0.0]

        return DynamicSystem(n_dof=3, M=np.eye(3), C=np.zeros((3, 3)), K=np.eye(3),
                             F_nl=f_nl, accel_dependent=True, nl_dofs=[0, 1])

    @staticmethod
    def bearing_free():
        """The dual rotor without bearings: no site, and nl_dofs is empty."""
        layout = dataclasses.replace(default_dual_rotor_layout(), support_bearings=[],
                                     intershaft_bearings=[])
        return assemble_dual_rotor(layout)

    def cases(self):
        """(system, cfg, scale of x) for every model and declaration."""
        return [
            (duffing(), NewmarkConfig(dt=1e-3), 1.0),
            (van_der_pol(1.0), NewmarkConfig(dt=1e-3), 1.0),
            (pendulum(), NewmarkConfig(dt=1e-3), 1.0),
            (self.inertial(), NewmarkConfig(dt=1e-3), 1.0),
            (linear_sdof(), NewmarkConfig(dt=1e-3), 1.0),
            (sfd_rotor_system(900.0), NewmarkConfig(dt=1e-4), 1e-5),
            (assemble_dual_rotor(default_dual_rotor_layout()), NewmarkConfig(dt=1e-4), 1e-5),
            (dense_dual_rotor(), NewmarkConfig(dt=1e-4), 1e-5),
            (self.bearing_free(), NewmarkConfig(dt=1e-4), 1e-5),
        ]

    def test_residual_bits_on_one_row(self):
        rng = np.random.default_rng(31)
        for sys_, cfg, scale in self.cases():
            terms = solve_terms(sys_, cfg)
            for _ in range(4):
                n = sys_.n_dof
                s = State(0.2, scale * rng.standard_normal(n),
                          scale * rng.standard_normal(n), scale * rng.standard_normal(n))
                x1 = scale * rng.standard_normal(n)
                p = step_terms(sys_, s, cfg)
                R, D = linearize(x1, p, sys_, terms)
                assert R.tobytes() == residual(x1, p, sys_).tobytes(), sys_.name
                J = terms.base.matrix(D)
                assert J.tobytes() == step_jacobian(x1, p, sys_, terms).tobytes()
                if sys_.sites is not None:
                    # The offset form that _step_core gives a site system
                    # (the dual rotor, its bearing-free form, the SFD rotor).
                    p = _offset_terms(p, sys_, terms.base.B)
                    R, D_h = linearize(x1, p, sys_, terms)
                    assert R.tobytes() == residual(x1, p, sys_).tobytes(), sys_.name
                    assert D_h.tobytes() == D.tobytes()
            if not len(sys_.nl_dofs):
                # J is A_eff, whose factor is the solve's own.
                assert J.tobytes() == terms.base.B.tobytes()
                assert linalg.lu_factor(D, terms.base) is terms.base.f_B

    def test_residual_bits_on_lock_step_rows(self):
        # Rows of a stacked view (lockstep), as _step_core runs them: the
        # SFD rotor at four speeds, and the dual rotor's shared sites.
        rng = np.random.default_rng(32)
        dual = assemble_dual_rotor(default_dual_rotor_layout())
        batches = [
            [sfd_rotor_system(w) for w in (700.0, 900.0, 1100.0, 1300.0)],
            [dataclasses.replace(dual, C=f * dual.C, batch_key="dual")
             for f in (0.5, 1.0, 2.0)],
            [dataclasses.replace(self.bearing_free(), batch_key="bare")] * 2,
        ]
        cfg = NewmarkConfig(dt=1e-4)
        for systems in batches:
            terms = [solve_terms(sys_, cfg) for sys_ in systems]
            rows, row_terms = _stack(systems, terms, list(range(len(systems))))
            X, V, A, X1 = 1e-5 * rng.standard_normal((4, len(systems), systems[0].n_dof))
            t1 = 0.2 + cfg.dt
            plain = _step_terms(X, V, A, t1, rows.Q(t1), row_terms.k)
            # Every batch here is of site systems: check the offset form
            # that _step_core gives them too.
            for offset in (False, True):
                p = _offset_terms(plain, rows, row_terms.base.B) if offset else plain
                R, J = linearize(X1, p, rows, row_terms)
                assert R.tobytes() == residual(X1, p, rows).tobytes()
                for i, sys_ in enumerate(systems):
                    p_i = step_terms(sys_, State(0.2, X[i], V[i], A[i]), cfg)
                    if offset:
                        p_i = _offset_terms(p_i, sys_, terms[i].base.B)
                    R_i, J_i = linearize(X1[i], p_i, sys_, terms[i])
                    assert R[i].tobytes() == R_i.tobytes()
                    assert J[i].tobytes() == J_i.tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_force_call_per_iterate(self, strategy):
        # Each iterate evaluates F_nl once: on ADArrays when it is
        # linearized, else on floats.  Full Newton linearizes every iterate
        # but the accepted one, so it makes at most one float call a step.
        sys_ = duffing()
        f_nl, calls = sys_.F_nl, {"float": 0, "ad": 0}

        def force(x, v, a, t):
            calls["ad" if isinstance(x, ad.ADArray) else "float"] += 1
            return f_nl(x, v, a, t)

        cfg = NewmarkConfig(dt=1e-3, strategy=strategy)
        traj = integrate(dataclasses.replace(sys_, F_nl=force), [2.0], [0.0], 0.0,
                         1.0, cfg)
        steps = traj.n_samples - 1
        calls["float"] -= 1  # initial_acceleration's
        assert calls["float"] + calls["ad"] == traj.iterations.sum() + steps
        if strategy == FULL_NEWTON:
            assert calls["float"] <= steps
        if strategy == SIMPLIFIED_NEWTON:
            assert calls["ad"] == steps

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_force_that_reads_no_dof_is_solved_on_A_eff(self, strategy):
        # J is A_eff, factored by the solve itself, so every step converges
        # in one iteration, and keyed rows keep the bits of their one-row
        # solves.
        cfg = NewmarkConfig(dt=1e-3, strategy=strategy)
        sys_ = TestForceThatReadsNoDof.linear()
        assert sys_.nl_dofs.size == 0
        st = solve_terms(sys_, cfg)
        p = step_terms(sys_, State(0.0, np.array([0.1, 0.0]), np.zeros(2),
                                   np.zeros(2)), cfg)
        D = linearize(np.array([0.1, 0.0]), p, sys_, st)[1]
        assert linalg.lu_factor(D, st.base) is st.base.f_B
        traj = integrate(sys_, [0.1, 0.0], [0.0, 0.0], 0.0, 0.05, cfg)
        assert np.all(traj.iterations[1:] == 1)
        keyed = [dataclasses.replace(sys_, K=f * sys_.K, batch_key="linear")
                 for f in (1.0, 2.0)]
        rows = integrate_rows(keyed, [[0.1, 0.0]] * 2, [[0.0, 0.0]] * 2, 0.0,
                              0.05, cfg)
        for got, s in zip(rows, keyed):
            want = integrate(s, [0.1, 0.0], [0.0, 0.0], 0.0, 0.05, cfg)
            for field in ("x", "v", "a", "iterations", "residual_norms"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_nl_dofs_default_to_none_without_a_force(self):
        assert linear_sdof().nl_dofs.size == 0
        assert np.array_equal(duffing().nl_dofs, [0])
        assert np.array_equal(self.inertial().nl_dofs, [0, 1])
        with_force = DynamicSystem(2, np.eye(2), np.eye(2), np.eye(2),
                                   F_nl=lambda x, v, a, t: x)
        assert np.array_equal(with_force.nl_dofs, [0, 1])


class TestForceThatReadsNoDof:
    """With no nl_dofs (k = 0) the step Jacobian is A_eff: every refresh
    returns the factor that the solve built once, and inverts nothing."""

    @staticmethod
    def linear(K=((2.0, -1.0), (-1.0, 2.0))):
        """A 2-DOF linear system, whose nl_dofs default to none."""
        return DynamicSystem(n_dof=2, M=np.eye(2), C=0.1 * np.eye(2), K=np.array(K),
                             Q=lambda t: np.array([math.cos(t), 0.0]))

    def cases(self):
        """(system, x0, v0, dt): the 2-DOF system and the bearing-free rotor."""
        rng = np.random.default_rng(36)
        bare = TestLinearize.bearing_free()
        return [(self.linear(), np.array([0.1, 0.0]), np.zeros(2), 1e-3),
                (bare, 1e-5 * rng.standard_normal(bare.n_dof),
                 1e-3 * rng.standard_normal(bare.n_dof), 1e-4)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_refresh_returns_the_solves_factor(self, strategy, monkeypatch):
        inv, fac = np.linalg.inv, nnrad.newmark.lu_factor
        for sys_, x0, v0, dt in self.cases():
            assert sys_.nl_dofs.size == 0
            inverted, factors = [], []

            def counted(A):
                inverted.append(np.shape(A))
                return inv(A)

            def spied(A, base=None):
                factors.append((fac(A, base), base))
                return factors[-1][0]

            monkeypatch.setattr(np.linalg, "inv", counted)
            monkeypatch.setattr(nnrad.newmark, "lu_factor", spied)
            integrate(sys_, x0, v0, 0.0, 40 * dt, NewmarkConfig(dt=dt, strategy=strategy))
            monkeypatch.undo()
            # initial_acceleration inverts M and solve_terms A_eff, once each,
            # with no base; the step loop inverts nothing.
            (_, first), (f_B, second), *refreshes = factors
            assert first is second is None
            assert inverted == [(sys_.n_dof, sys_.n_dof)] * 2
            assert len(refreshes) >= 40
            assert all(f is base.f_B is f_B for f, base in refreshes)

    def test_the_solves_factor_is_read_only(self):
        for sys_, _, _, dt in self.cases():
            f_B = solve_terms(sys_, NewmarkConfig(dt=dt)).base.f_B
            with pytest.raises(ValueError, match="read-only"):
                f_B[0, 0] = 0.0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_keyed_rows_equal_their_one_row_solves(self, strategy):
        for sys_, x0, v0, dt in self.cases():
            cfg = NewmarkConfig(dt=dt, strategy=strategy)
            keyed = [dataclasses.replace(sys_, K=f * sys_.K, batch_key="no dof")
                     for f in (1.0, 2.0, 3.0)]
            got = integrate_rows(keyed, [x0] * 3, [v0] * 3, 0.0, 30 * dt, cfg)
            for row, traj in zip(keyed, got):
                want = integrate(row, x0, v0, 0.0, 30 * dt, cfg)
                for name in TestSites.FIELDS:
                    assert np.array_equal(getattr(traj, name), getattr(want, name))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_singular_row_leaves_at_its_one_row_step(self, strategy):
        # Row 1's K cancels A_eff's first row and column exactly, so its
        # solve has no factor; in lock-step it still leaves with the
        # SingularJacobianError of its own solve, and the other rows go on.
        cfg = NewmarkConfig(dt=1e-3, strategy=strategy)
        c_a = 1.0 / (cfg.beta * cfg.dt * cfg.dt)
        c_v = cfg.gamma / (cfg.beta * cfg.dt)
        systems = [dataclasses.replace(s, batch_key="no dof") for s in (
            self.linear(), self.linear(((-c_a - 0.1 * c_v, 0.0), (0.0, 2.0))),
            self.linear(((4.0, -1.0), (-1.0, 4.0))))]
        assert [solve_terms(s, cfg).base.f_B is None for s in systems] == [
            False, True, False]
        x0, v0 = np.array([0.1, 0.0]), np.zeros(2)
        got = integrate_rows(systems, [x0] * 3, [v0] * 3, 0.0, 0.03, cfg)
        with pytest.raises(SingularJacobianError) as alone:
            integrate(systems[1], x0, v0, 0.0, 0.03, cfg)
        assert type(got[1]) is SingularJacobianError and str(got[1]) == str(alone.value)
        assert (got[1].step_index, got[1].pivot_index) == (1, 0)
        for row, traj in zip(systems[::2], got[::2]):
            want = integrate(row, x0, v0, 0.0, 0.03, cfg)
            for name in TestSites.FIELDS:
                assert np.array_equal(getattr(traj, name), getattr(want, name))


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
        # "residual" counts residual and linearize calls, each one residual;
        # "factor_at" holds that count at each lu_factor call.
        calls = {"residual": 0, "factor_at": []}
        res, lin = nnrad.newmark.residual, nnrad.newmark.linearize
        fac = nnrad.newmark.lu_factor

        def counted(fn):
            def call(*args):
                calls["residual"] += 1
                return fn(*args)
            return call

        def counted_factor(*args):
            calls["factor_at"].append(calls["residual"])
            return fac(*args)

        monkeypatch.setattr(nnrad.newmark, "residual", counted(res))
        monkeypatch.setattr(nnrad.newmark, "linearize", counted(lin))
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

    def test_zero_broyden_step_raises_at_once(self):
        # At rest with no load R = 0, so the first step is zero.  With both
        # tolerances 0 the step cannot converge, and a zero step cannot
        # update the factor: it fails at once instead of at max_iter.
        s = State(0.0, [0.0], [0.0], [0.0])
        cfg = NewmarkConfig(dt=1e-3, tol_dx=0.0, tol_res=0.0, max_iter=20,
                            strategy=BROYDEN_RANK1)
        with pytest.raises(NonConvergenceError) as exc:
            step(duffing(gamma_f=0.0), s, cfg)
        assert exc.value.iterations == 1
        assert exc.value.res_norm == 0.0 and exc.value.dx_norm == 0.0

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
        """Make newmark factor every Jacobian directly: its solves' bases
        keep no f_B.  Returns the f_B each base was built with."""
        built = []

        def rank_k_base(B, f_B, rows, cols):
            built.append(f_B)
            return linalg.rank_k_base(B, None, rows, cols)

        monkeypatch.setattr(nnrad.newmark, "rank_k_base", rank_k_base)
        return built

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
        assert solve_terms(sys_, cfg).base.f_B is not None
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

    def test_singular_site_block_is_located_as_by_the_direct_path(self, monkeypatch):
        cfg = NewmarkConfig(dt=1e-3)
        c_a = 1.0 / (cfg.beta * cfg.dt * cfg.dt)
        K = np.diag([1.0, 2.0, 3.0, 4.0])
        G = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])

        def law(u, t):
            # From t = 3.5 ms on, site 0's stiffness cancels A_eff[0, 0].
            coef = c_a + K[0, 0] if t > 3.5e-3 else 0.0
            return ad.stack([-coef * u[0], 0.5 * u[1] * u[1]])

        sys_ = DynamicSystem(n_dof=4, M=np.eye(4), C=np.zeros((4, 4)), K=K,
                             Q=lambda t: np.ones(4), nl_dofs=[0, 2],
                             sites=Sites(lambda t: G, law))
        base = solve_terms(sys_, cfg).base
        assert base.f_B is not None and np.array_equal(base.rows, [0, 2])
        x0 = np.full(4, 0.1)
        errors = []
        for patch in (False, True):
            if patch:
                self.direct(monkeypatch)
            with pytest.raises(SingularJacobianError) as exc:
                integrate(sys_, x0, np.zeros(4), 0.0, 0.01, cfg)
            errors.append(exc.value)
        assert errors[0].step_index == errors[1].step_index == 4
        assert errors[0].pivot_index == errors[1].pivot_index == 0
        assert errors[0].t == errors[1].t

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_dual_rotor_never_forms_its_jacobian(self, strategy, monkeypatch):
        # Every refresh hands lu_factor the sites' 10 x 10 block; no n x n
        # step Jacobian is formed, by linearize or by the factor.
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        factored, formed = [], []
        fac, matrix = nnrad.newmark.lu_factor, linalg.RankKBase.matrix

        def lu_factor(A, base=None):
            factored.append((A, base))
            return fac(A, base)

        def spied(self, D):
            formed.append(np.shape(D))
            return matrix(self, D)

        monkeypatch.setattr(nnrad.newmark, "lu_factor", lu_factor)
        monkeypatch.setattr(linalg.RankKBase, "matrix", spied)
        x0 = 1e-5 * np.random.default_rng(28).standard_normal(sys_.n_dof)
        cfg = NewmarkConfig(dt=1e-4, strategy=strategy)
        traj = integrate(sys_, x0, np.zeros(sys_.n_dof), 0.0, 0.002, cfg)
        # initial_acceleration factors M and solve_terms A_eff, once each,
        # with no base.
        (M, first), (A_eff, second), *refreshes = factored
        assert M is sys_.M and first is second is None
        assert np.array_equal(A_eff, solve_terms(sys_, cfg).base.B)
        assert len(refreshes) >= traj.n_samples - 1
        assert all(np.shape(D) == (10, 10) and base.f_B is not None
                   for D, base in refreshes)
        assert not formed

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
            linalg.lu_factor(solve_terms(sys_, cfg).base.B)
        assert solve_terms(sys_, cfg).base.f_B is None
        got = integrate(sys_, [0.1, 0.2], [0.0, 0.0], 0.0, 0.5, cfg)
        built = self.direct(monkeypatch)
        want = integrate(sys_, [0.1, 0.2], [0.0, 0.0], 0.0, 0.5, cfg)
        assert built == [None]  # the patch took no f_B away
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
