import math

import numpy as np
import pytest

from nnrad import ad
from nnrad.models.bearing import (
    HERTZ_EXPONENT,
    BearingParams,
    bearing_force,
    cage_speed,
)


def params(**over):
    base = dict(
        n_balls=8,
        k_hertz=1e8,
        clearance=5e-6,
        r_inner=0.02,
        r_outer=0.04,
        omega_inner=800.0,
        omega_outer=0.0,
    )
    base.update(over)
    return BearingParams(**base)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(n_balls=0)
        with pytest.raises(ValueError):
            params(k_hertz=0.0)
        with pytest.raises(ValueError):
            params(clearance=-1e-6)

    def test_cage_speed_formula(self):
        # (r_i*omega_outer + r_o*omega_inner) / (r_i + r_o)
        p = params(omega_inner=900.0, omega_outer=150.0)
        expected = (0.02 * 150.0 + 0.04 * 900.0) / 0.06
        assert cage_speed(p) == pytest.approx(expected, rel=1e-15)

    def test_cage_speed_stationary(self):
        assert cage_speed(params(omega_inner=0.0, omega_outer=0.0)) == 0.0


class TestBearingForce:
    def test_no_contact_at_center(self):
        fx, fy = bearing_force(0.0, 0.0, 0.0, 0.0, 0.37, params())
        assert fx == 0.0 and fy == 0.0

    def test_single_ball_substitution(self):
        # One ball at theta=0; interference d beyond the clearance.
        p = params(n_balls=1, omega_inner=0.0)
        d = 3e-6
        fx, fy = bearing_force(p.clearance + d, 0.0, 0.0, 0.0, 0.0, p)
        assert fx == pytest.approx(p.k_hertz * d**HERTZ_EXPONENT, rel=1e-12)
        assert fy == 0.0

    def test_brute_force_summation_oracle(self):
        rng = np.random.default_rng(12)
        p = params()
        for _ in range(30):
            xi, yi, xo, yo = 2e-5 * rng.standard_normal(4)
            t = float(rng.uniform(0.0, 0.1))
            fx, fy = bearing_force(xi, yi, xo, yo, t, p)
            wc = cage_speed(p)
            ref_x = ref_y = 0.0
            for k in range(p.n_balls):
                th = 2.0 * math.pi * k / p.n_balls + wc * t
                delta = (xi - xo) * math.cos(th) + (yi - yo) * math.sin(th) - p.clearance
                if delta > 0.0:
                    load = p.k_hertz * delta**HERTZ_EXPONENT
                    ref_x += load * math.cos(th)
                    ref_y += load * math.sin(th)
            assert fx == pytest.approx(ref_x, rel=1e-12, abs=1e-12)
            assert fy == pytest.approx(ref_y, rel=1e-12, abs=1e-12)

    def test_ad_inputs_produce_seeds(self):
        p = params()
        xi, yi, xo, yo = ad.lift([2e-5, -1e-5, 0.0, 3e-6])
        fx, fy = bearing_force(xi, yi, xo, yo, 0.01, p)
        assert isinstance(fx, ad.ADArray) and isinstance(fy, ad.ADArray)
        # Race-relative symmetry: d(fx)/d(x_o) = -d(fx)/d(x_i).
        assert fx.seeds[2] == pytest.approx(-fx.seeds[0], rel=1e-12)
        assert fy.seeds[3] == pytest.approx(-fy.seeds[1], rel=1e-12)

    def test_force_continuity_across_onset(self):
        # Sweep one ball's interference through zero: the 10/9-power law
        # keeps the force and its derivative continuous at onset.
        p = BearingParams(
            n_balls=1, k_hertz=1.0, clearance=0.0, r_inner=0.02, r_outer=0.04
        )
        h = 1e-9
        deltas = np.arange(-50, 51) * h
        forces = []
        derivs = []
        for d in deltas:
            (x,) = ad.lift([float(d)])
            fx, _ = bearing_force(x, 0.0, 0.0, 0.0, 0.0, p)
            forces.append(ad.value_of(fx))
            derivs.append(fx.seeds[0] if isinstance(fx, ad.ADArray) else 0.0)
        forces = np.array(forces)
        derivs = np.array(derivs)
        p_exp = HERTZ_EXPONENT
        assert np.max(np.abs(np.diff(forces))) < 1e-6
        # Derivative steps stay below the analytic kink bound p*(2h)^(p-1):
        # g' = p*max(d,0)^(p-1) is monotone, worst step straddles onset.
        assert np.max(np.abs(np.diff(derivs))) <= p_exp * (2 * h) ** (p_exp - 1.0)
        assert np.all(np.isfinite(derivs))
