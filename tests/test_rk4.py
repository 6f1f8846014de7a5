import math

import numpy as np
import pytest

from nnrad import DynamicSystem, rk4_integrate, to_first_order
from nnrad.rk4 import DivergenceError
from nnrad.models import duffing, pendulum


class TestToFirstOrder:
    def test_pendulum_field(self):
        field = to_first_order(pendulum())
        dy = field(0.0, np.array([2.0, 0.0]))
        assert np.allclose(dy, [0.0, -math.sin(2.0)], atol=1e-12)

    def test_duffing_field(self):
        field = to_first_order(duffing())
        dy = field(0.0, np.array([2.0, 0.0]))
        # 10*cos(0) - 1*2 - 3*8 = -16
        assert np.allclose(dy, [0.0, -16.0], atol=1e-12)

    def test_rejects_accel_dependent(self):
        sys_ = DynamicSystem(
            n_dof=1,
            M=np.eye(1),
            C=np.zeros((1, 1)),
            K=np.zeros((1, 1)),
            F_nl=lambda x, v, a, t: [a[0]],
            accel_dependent=True,
        )
        with pytest.raises(ValueError):
            to_first_order(sys_)

    def test_rotor_field_residual_oracle(self):
        from nnrad.models import default_dual_rotor_layout
        from nnrad.models.rotor import assemble_dual_rotor

        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        field = to_first_order(sys_)
        rng = np.random.default_rng(8)
        n = sys_.n_dof
        x = 1e-5 * rng.standard_normal(n)
        v = 1e-3 * rng.standard_normal(n)
        dy = field(0.3, np.concatenate([x, v]))
        assert np.allclose(dy[:n], v)
        a = dy[n:]
        f = np.asarray(sys_.F_nl(x, v, np.zeros(n), 0.3), dtype=float)
        res = sys_.M @ a + sys_.C @ v + sys_.K @ x + f - sys_.Q(0.3)
        assert np.linalg.norm(res) < 1e-8 * (1.0 + np.linalg.norm(sys_.Q(0.3)))


class TestRK4:
    def test_exponential_growth(self):
        # y' = y through the second-order embedding M=1, K=-0... use a
        # raw field instead: the integrator accepts any callable.
        field = lambda t, y: y
        traj = rk4_integrate(field, np.array([1.0, 1.0]), 0.0, 1.0, 1e-3)
        assert abs(traj.x[-1, 0] - math.e) < 1e-11

    def test_constant_field(self):
        field = lambda t, y: np.zeros_like(y)
        traj = rk4_integrate(field, np.array([2.0, 3.0]), 0.0, 1.0, 0.1)
        assert np.all(traj.x == 2.0)
        assert np.all(traj.v == 3.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            rk4_integrate(lambda t, y: y, np.zeros(2), 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("t_end", [-0.5, math.nan, math.inf])
    def test_span_must_run_forward_and_be_finite(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            rk4_integrate(lambda t, y: y, np.zeros(2), 0.0, t_end, 0.1)

    @pytest.mark.parametrize("t_end, dt", [(1e300, 1e-2), (0.05, 1e-320), (1e18, 1.0)],
                             ids=["count past an array length", "count infinite",
                                  "count past the arrays of two values a sample"])
    def test_step_count_out_of_range(self, t_end, dt):
        with pytest.raises(ValueError) as exc:
            rk4_integrate(lambda t, y: y, np.zeros(2), 0.0, t_end, dt)
        assert f"t_end={t_end!r}" in str(exc.value) and f"dt={dt!r}" in str(exc.value)

    def test_divergence_error(self):
        field = lambda t, y: y * y * 1e3  # finite-time blowup
        # The blowup overflows on purpose.
        with pytest.raises(DivergenceError) as exc, np.errstate(over="ignore"):
            rk4_integrate(field, np.array([1.0, 1.0]), 0.0, 10.0, 0.1)
        assert exc.value.step_index >= 1

    def test_fourth_order_convergence(self):
        field = to_first_order(
            DynamicSystem(n_dof=1, M=np.eye(1), C=np.zeros((1, 1)), K=np.eye(1))
        )
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj = rk4_integrate(field, np.array([1.0, 0.0]), 0.0, 1.0, dt)
            errs.append(abs(traj.x[-1, 0] - math.cos(1.0)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert 3.8 <= p <= 4.2

    def test_trajectory_schema_matches_newmark(self):
        from nnrad import NewmarkConfig, integrate

        sys_ = pendulum()
        nm = integrate(sys_, [1.0], [0.0], 0.0, 0.1, NewmarkConfig(dt=1e-2))
        rk = rk4_integrate(to_first_order(sys_), np.array([1.0, 0.0]), 0.0, 0.1, 1e-2)
        assert nm.t.shape == rk.t.shape
        assert nm.x.shape == rk.x.shape
        assert nm.v.shape == rk.v.shape
        assert nm.a.shape == rk.a.shape
        assert np.allclose(nm.t, rk.t)

    @staticmethod
    def five_call_rk4(field, y0, t0, n_steps, dt):
        """RK4 that evaluates every step's first stage anew: 5 calls a step."""
        n = y0.size // 2
        t = t0 + dt * np.arange(n_steps + 1)
        ys, accs, y = [y0], [field(t0, y0)[n:]], y0
        for i in range(1, n_steps + 1):
            k1 = field(t[i - 1], y)
            k2 = field(t[i - 1] + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = field(t[i - 1] + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = field(t[i - 1] + dt, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ys.append(y)
            accs.append(field(t[i], y)[n:])
        ys = np.array(ys)
        return t, ys[:, :n], ys[:, n:], np.array(accs)

    @pytest.mark.parametrize("sys_", [duffing(), pendulum()], ids=["duffing", "pendulum"])
    def test_four_field_calls_a_step(self, sys_):
        # The call that gives a at a grid point is the next step's first
        # stage: 4 calls a step plus one at t0, with the five-call bits.
        field, calls = to_first_order(sys_), []

        def counted(t, y):
            calls.append(t)
            return field(t, y)

        y0, dt, n_steps = np.array([2.0, 0.0]), 1e-2, 300
        traj = rk4_integrate(counted, y0, 0.0, n_steps * dt, dt)
        assert len(calls) == 4 * n_steps + 1
        want = self.five_call_rk4(field, y0, 0.0, n_steps, dt)
        for got, ref in zip((traj.t, traj.x, traj.v, traj.a), want):
            assert got.tobytes() == ref.tobytes()

    def test_pendulum_energy_conservation(self):
        field = to_first_order(pendulum())
        traj = rk4_integrate(field, np.array([2.0, 0.0]), 0.0, 100.0, 1e-3)
        E = 0.5 * traj.v[:, 0] ** 2 - np.cos(traj.x[:, 0])
        assert np.max(np.abs(E - E[0])) < 1e-6
