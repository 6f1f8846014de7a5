import math

import numpy as np

from nnrad import NewmarkConfig, integrate, rk4_integrate, to_first_order
from nnrad.models import duffing, pendulum, van_der_pol


class TestVanDerPol:
    def test_nonlinear_force_substitution(self):
        sys_ = van_der_pol(1.0)
        # eps*(x^2-1)*v at (2, 1) = 3
        assert sys_.F_nl([2.0], [1.0], [0.0], 0.0)[0] == 3.0

    def test_nullcline(self):
        sys_ = van_der_pol(2.5)
        for v in (-3.0, 0.5, 7.0):
            assert sys_.F_nl([1.0], [v], [0.0], 0.0)[0] == 0.0
            assert sys_.F_nl([-1.0], [v], [0.0], 0.0)[0] == 0.0

    def test_limit_cycle_amplitude(self):
        # Classical vdP settles to peak amplitude ~2 per side.
        traj = rk4_integrate(
            to_first_order(van_der_pol(1.0)), np.array([2.0, 0.0]), 0.0, 40.0, 1e-3
        )
        late = traj.x[traj.t > 20.0, 0]
        peak_to_peak = late.max() - late.min()
        assert 3.9 <= peak_to_peak <= 4.1

    def test_matrices(self):
        sys_ = van_der_pol()
        assert sys_.M[0, 0] == 1.0 and sys_.C[0, 0] == 0.0 and sys_.K[0, 0] == 1.0


class TestDuffing:
    def test_cubic_force(self):
        assert duffing().F_nl([2.0], [0.0], [0.0], 0.0)[0] == 24.0

    def test_forcing_at_zero(self):
        assert duffing().Q(0.0)[0] == 10.0

    def test_steady_state_periodicity(self):
        # Paper parameter set; the forced response locks to period 2*pi.
        sys_ = duffing()
        traj = rk4_integrate(
            to_first_order(sys_), np.array([2.0, 0.0]), 0.0, 40.0 * math.pi, 2e-3 * math.pi
        )
        period_samples = 1000  # 2*pi / (2e-3*pi)
        x = traj.x[:, 0]
        late = x[-3 * period_samples :]
        diff = np.abs(late[period_samples:] - late[:-period_samples])
        assert np.max(diff) < 1e-4


class TestPendulum:
    def test_force_at_pi(self):
        assert abs(pendulum().F_nl([math.pi], [0.0], [0.0], 0.0)[0]) < 1e-15

    def test_small_angle_limit(self):
        traj = integrate(pendulum(), [1e-3], [0.0], 0.0, 2.0, NewmarkConfig(dt=1e-4))
        ref = 1e-3 * np.cos(traj.t)
        assert np.max(np.abs(traj.x[:, 0] - ref)) < 1e-9
