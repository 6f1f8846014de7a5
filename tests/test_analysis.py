import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrad import NewmarkConfig
from nnrad.analysis import SweepRow, amplitude, spectrum, steady_window, sweep
from nnrad.models import sfd_rotor_system
from nnrad.system import Trajectory


class TestAmplitude:
    def test_circle_recovers_radius(self):
        k = np.arange(1000)
        ang = 2 * math.pi * 3 * k / 1000  # 3 whole periods
        assert amplitude(5.0 * np.cos(ang), 5.0 * np.sin(ang)) == pytest.approx(
            5.0, abs=1e-9
        )

    def test_constant_signals(self):
        assert amplitude(np.full(10, 3.0), np.full(10, -2.0)) == 0.0

    def test_formula_oracle(self):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(257), rng.standard_normal(257)
        ref = math.sqrt(
            np.sum((x - x.mean()) ** 2 + (y - y.mean()) ** 2) / x.size
        )
        assert amplitude(x, y) == pytest.approx(ref, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            amplitude([], [])
        with pytest.raises(ValueError):
            amplitude([1.0], [1.0, 2.0])

    @given(
        c1=st.floats(-1e6, 1e6),
        c2=st.floats(-1e6, 1e6),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, c1, c2, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        a0 = amplitude(x, y)
        a1 = amplitude(x + c1, y + c2)
        assert a1 == pytest.approx(a0, rel=1e-7, abs=1e-9)

    @given(s=st.floats(-100, 100), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_linear_scaling(self, s, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        assert amplitude(s * x, s * y) == pytest.approx(
            abs(s) * amplitude(x, y), rel=1e-12, abs=1e-12
        )


class TestSpectrum:
    def test_pure_tone_peak(self):
        dt = 1e-3
        n = 4000
        w0 = 2 * math.pi * 5.0  # 20 whole periods in the window
        t = dt * np.arange(n)
        freqs, mags = spectrum(np.sin(w0 * t), dt)
        assert freqs[np.argmax(mags)] == pytest.approx(w0, rel=1e-12)

    def test_dc_signal(self):
        freqs, mags = spectrum(np.full(256, 4.2), 0.01)
        assert np.max(mags) < 1e-10

    def test_two_tone_vs_direct_dft(self):
        dt = 2e-3
        n = 500
        t = dt * np.arange(n)
        x = 1.3 * np.sin(2 * math.pi * 4 * t) + 0.6 * np.cos(2 * math.pi * 11 * t)
        freqs, mags = spectrum(x, dt)
        xc = x - x.mean()
        for bin_idx in (4, 11, 50):
            ref = abs(sum(xc[j] * np.exp(-2j * math.pi * bin_idx * j / n)
                          for j in range(n)))
            assert mags[bin_idx] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(512)
        _, mags = spectrum(x, 0.01)
        xc = x - x.mean()
        # One-sided rfft: interior bins count twice in the energy sum.
        energy_f = mags[0] ** 2 + mags[-1] ** 2 + 2 * np.sum(mags[1:-1] ** 2)
        energy_t = x.size * np.sum(xc**2)
        assert energy_f == pytest.approx(energy_t, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError):
            spectrum([1.0], 0.1)


def make_traj(n=1000, n_dof=2):
    t = 1e-3 * np.arange(n)
    x = np.outer(t, np.ones(n_dof))
    return Trajectory(t=t, x=x, v=np.zeros_like(x), a=np.zeros_like(x))


class TestSteadyWindow:
    def test_half(self):
        w = steady_window(make_traj(1000), 0.5)
        assert w.n_samples == 500
        assert w.t[0] == pytest.approx(0.5)

    def test_minimal_slice_nonempty(self):
        w = steady_window(make_traj(10), 0.001)
        assert w.n_samples >= 1

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                steady_window(make_traj(10), bad)


class TestSweep:
    def test_single_speed_is_integrate_plus_amplitude(self):
        from nnrad.newmark import integrate

        cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
        rows = sweep(
            lambda s: sfd_rotor_system(s), [900.0], cfg, [0], t_end=0.05
        )
        assert len(rows) == 1
        assert rows[0].error is None
        sys_ = sfd_rotor_system(900.0)
        traj = integrate(sys_, np.zeros(4), np.zeros(4), 0.0, 0.05, cfg)
        w = steady_window(traj, 0.3)
        ref = amplitude(w.x[:, 0], w.x[:, 1])
        assert rows[0].amplitudes[0] == pytest.approx(ref, rel=1e-12)

    def test_order_independence(self):
        cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
        speeds = [700.0, 1100.0]
        fwd = sweep(lambda s: sfd_rotor_system(s), speeds, cfg, [0], t_end=0.03)
        rev = sweep(lambda s: sfd_rotor_system(s), speeds[::-1], cfg, [0],
                    t_end=0.03)
        assert fwd[0].speed == rev[1].speed
        assert fwd[0].amplitudes[0] == pytest.approx(
            rev[1].amplitudes[0], rel=1e-12
        )

    def test_failure_recorded_per_row(self):
        def factory(s):
            if s > 1000.0:
                raise RuntimeError("synthetic model failure")
            return sfd_rotor_system(s)

        cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
        rows = sweep(factory, [900.0, 1200.0], cfg, [0], t_end=0.02)
        assert rows[0].error is None
        assert rows[1].amplitudes is None
        assert "synthetic model failure" in rows[1].error

    def test_failure_row_names_the_error_type(self):
        cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
        rows = sweep(lambda s: sfd_rotor_system(s, unbalance=5e-2), [1000.0], cfg,
                     [0], t_end=0.2)
        assert rows[0].amplitudes is None
        assert rows[0].error.startswith("FilmRuptureError: oil film ruptured")

    def test_empty_speed_list(self):
        with pytest.raises(ValueError):
            sweep(lambda s: sfd_rotor_system(s), [], NewmarkConfig(dt=1e-4),
                  [0], t_end=0.01)

    def test_negative_probe_node_rejected_before_any_system(self):
        built = []
        with pytest.raises(ValueError, match=r"probe_nodes\[1\]"):
            sweep(built.append, [900.0], NewmarkConfig(dt=1e-4), [0, -1], t_end=0.01)
        assert built == []

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, float("nan")])
    def test_steady_fraction_outside_0_1_rejected_before_any_system(self, fraction):
        built = []
        with pytest.raises(ValueError, match="steady_fraction"):
            sweep(built.append, [900.0], NewmarkConfig(dt=1e-4), [0], t_end=0.01,
                  steady_fraction=fraction)
        assert built == []
