import dataclasses
import json

import numpy as np
import pytest

from nnrad import NewmarkConfig, integrate
from nnrad.lockstep import integrate_rows
from nnrad.models.bearing import BearingParams
from nnrad.models.disk import DiskProps
from nnrad.models.rotor import (
    DiskPlacement,
    InterShaftBearing,
    RotorLayout,
    ShaftElement,
    assemble_dual_rotor,
    default_dual_rotor_layout,
    load_rotor_layout,
)
from nnrad.models.shaft import ShaftElementProps, shaft_element_matrices


def bare_two_node_layout(omega=0.0):
    props = ShaftElementProps(
        density=7850.0, length=0.2, area=7e-4, young=2.1e11, i_z=4e-8,
        shear_factor=0.35,
    )
    return RotorLayout(
        node_z=np.array([0.0, 0.2]),
        elements=[ShaftElement(node_i=0, node_j=1, props=props, rotor="lp")],
        disks=[],
        support_bearings=[],
        intershaft_bearings=[],
        omega_lp=omega,
        omega_hp=0.0,
    )


class TestAssembly:
    def test_single_element_stiffness_identity(self):
        layout = bare_two_node_layout()
        sys_ = assemble_dual_rotor(layout)
        _, _, K_s = shaft_element_matrices(layout.elements[0].props)
        # Plane 1 holds (x, -theta_y) at DOFs (0, 3, 4, 7) with sign flips
        # on the rotations; plane 2 holds (y, theta_x) at (1, 2, 5, 6).
        map1, s1 = [0, 3, 4, 7], np.array([1.0, -1.0, 1.0, -1.0])
        map2 = [1, 2, 5, 6]
        K1 = sys_.K[np.ix_(map1, map1)]
        K2 = sys_.K[np.ix_(map2, map2)]
        assert np.allclose(K1, K_s * np.outer(s1, s1))
        assert np.allclose(K2, K_s)
        # Nothing couples the two planes at zero speed.
        assert np.allclose(sys_.K[np.ix_(map1, map2)], 0.0)
        assert np.allclose(sys_.C, 0.0)

    def test_disk_blocks(self):
        # A disk on a node that no element touches, so its blocks stand alone.
        omega = 300.0
        layout = bare_two_node_layout(omega)
        layout.node_z = np.array([0.0, 0.2, 0.4])
        disk = DiskPlacement(node=2, props=DiskProps(mass=2.0, j_d=0.01, j_p=0.03),
                             rotor="lp")
        layout.disks.append(disk)
        sys_ = assemble_dual_rotor(layout)
        bare = assemble_dual_rotor(bare_two_node_layout(omega))
        # DOFs 8..11 are (x, y, theta_x, theta_y) of node 2.  The mass
        # diag(m, J_d) enters plane 1 (x, -theta_y) and plane 2 (y,
        # theta_x); plane 1's sign flip leaves a diagonal block as it is.
        assert np.array_equal(sys_.M[8:, 8:], np.diag([2.0, 2.0, 0.01, 0.01]))
        # The gyroscopic pair couples the rotations only, antisymmetrically:
        # omega J_p at (theta_y, theta_x), its negative at (theta_x, theta_y).
        G = np.zeros((4, 4))
        G[3, 2], G[2, 3] = omega * 0.03, -omega * 0.03
        assert np.array_equal(sys_.C[8:, 8:], G)
        assert np.array_equal(sys_.K[8:, 8:], np.zeros((4, 4)))
        for mat, ref in ((sys_.M, bare.M), (sys_.C, bare.C), (sys_.K, bare.K)):
            assert np.array_equal(mat[:8, :8], ref)
            assert not mat[:8, 8:].any() and not mat[8:, :8].any()

    def test_default_layout_is_40_dof(self):
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        assert sys_.n_dof == 40
        assert sys_.M.shape == (40, 40)

    def test_mass_and_stiffness_symmetric(self):
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        assert np.allclose(sys_.M, sys_.M.T)
        assert np.allclose(sys_.K, sys_.K.T)

    def test_gyroscopic_part_antisymmetric(self):
        layout = default_dual_rotor_layout()
        sys_ = assemble_dual_rotor(layout)
        G = sys_.C - layout.rayleigh_alpha * sys_.M - layout.rayleigh_beta * sys_.K
        assert np.allclose(G, -G.T, atol=1e-10 * np.max(np.abs(sys_.C)))

    def test_gyroscopic_scales_with_speed(self):
        lo = assemble_dual_rotor(default_dual_rotor_layout(omega_lp=500.0, omega_hp=600.0))
        hi = assemble_dual_rotor(default_dual_rotor_layout(omega_lp=1000.0, omega_hp=1200.0))
        layout = default_dual_rotor_layout()
        G_lo = lo.C - layout.rayleigh_alpha * lo.M - layout.rayleigh_beta * lo.K
        G_hi = hi.C - layout.rayleigh_alpha * hi.M - layout.rayleigh_beta * hi.K
        assert np.allclose(G_hi, 2.0 * G_lo, atol=1e-9 * np.max(np.abs(G_hi)))

    def test_intershaft_equal_and_opposite(self):
        layout = default_dual_rotor_layout()
        sys_ = assemble_dual_rotor(layout)
        isb = layout.intershaft_bearings[0]
        bi, bo = 4 * isb.inner_node, 4 * isb.outer_node
        rng = np.random.default_rng(21)
        x = 1e-5 * rng.standard_normal(sys_.n_dof)
        # Zero the support-bearing nodes so only the inter-shaft pair loads.
        for b in layout.support_bearings:
            x[4 * b.node : 4 * b.node + 2] = 0.0
        f = np.asarray(sys_.F_nl(x, np.zeros_like(x), np.zeros_like(x), 0.02),
                       dtype=float)
        assert f[bi] == pytest.approx(-f[bo], rel=1e-12)
        assert f[bi + 1] == pytest.approx(-f[bo + 1], rel=1e-12)
        mask = np.ones(sys_.n_dof, dtype=bool)
        mask[[bi, bi + 1, bo, bo + 1]] = False
        assert np.allclose(f[mask], 0.0)

    def test_unbalance_forcing_magnitude(self):
        layout = default_dual_rotor_layout()
        sys_ = assemble_dual_rotor(layout)
        d = layout.disks[0]
        amp = d.props.mass * layout.speed_of(d.rotor) ** 2 * d.props.eccentricity
        base = 4 * d.node
        q = sys_.Q(0.0137)
        got = np.hypot(q[base], q[base + 1])
        # Other disks may share the node in principle; here they do not.
        assert got == pytest.approx(amp, rel=1e-12)

    def test_gravity_flag(self):
        layout = default_dual_rotor_layout()
        layout.gravity = True
        layout.disks = []  # isolate the weight term
        sys_ = assemble_dual_rotor(layout)
        q = sys_.Q(0.0)
        d_y = np.zeros(sys_.n_dof)
        d_y[1::4] = 1.0
        assert np.allclose(q, -9.81 * sys_.M @ d_y)


class TestBearingFree:
    """A layout without bearings has no site and F_nl reads no DOF, so each
    step is one linear solve with A_eff."""

    @staticmethod
    def linear_step(sys_, x, v, a, t1, cfg):
        """x1 of the direct linear Newmark step: solve A_eff x1 = rhs."""
        b, g, dt = cfg.beta, cfg.gamma, cfg.dt
        M, C, K = sys_.M, sys_.C, sys_.K
        A_eff = M / (b * dt * dt) + g / (b * dt) * C + K
        rhs = (sys_.Q(t1)
               + M @ (x / (b * dt * dt) + v / (b * dt) + (0.5 / b - 1.0) * a)
               + C @ (g / (b * dt) * x + (g / b - 1.0) * v
                      + (0.5 * g / b - 1.0) * dt * a))
        return np.linalg.solve(A_eff, rhs)

    def test_each_step_is_one_linear_solve(self):
        # Step by step: cond(A_eff) is about 1.7e4 here, so two exact
        # recursions drift apart by ~1e-12 of max|x| within 10 steps.
        cfg = NewmarkConfig(dt=1e-3)
        x0, v0 = 1e-5 * np.arange(8.0), np.ones(8)
        systems = [assemble_dual_rotor(bare_two_node_layout(w)) for w in (100.0, 300.0)]
        assert systems[0].nl_dofs.size == 0
        keyed = [dataclasses.replace(s, batch_key="bare") for s in systems]
        rows = integrate_rows(keyed, [x0] * 2, [v0] * 2, 0.0, 0.01, cfg)
        for sys_, row in zip(systems, rows):
            traj = integrate(sys_, x0, v0, 0.0, 0.01, cfg)
            assert np.all(traj.iterations[1:] == 1)
            for got in (traj, row):
                for i in range(10):
                    want = self.linear_step(sys_, got.x[i], got.v[i], got.a[i],
                                            got.t[i + 1], cfg)
                    gap = np.max(np.abs(got.x[i + 1] - want))
                    assert gap <= 1e-12 * np.max(np.abs(got.x))


class TestValidation:
    def test_element_node_out_of_range(self):
        layout = bare_two_node_layout()
        layout.elements.append(
            ShaftElement(node_i=1, node_j=5, props=layout.elements[0].props,
                         rotor="lp")
        )
        with pytest.raises(ValueError):
            assemble_dual_rotor(layout)

    def test_intershaft_missing_node(self):
        layout = bare_two_node_layout()
        layout.intershaft_bearings.append(
            InterShaftBearing(
                inner_node=0,
                outer_node=9,
                params=BearingParams(n_balls=8, k_hertz=1e8, clearance=0.0,
                                     r_inner=0.02, r_outer=0.04),
            )
        )
        with pytest.raises(ValueError):
            assemble_dual_rotor(layout)

    def test_missing_node_names_kind_and_node(self):
        layout = bare_two_node_layout()
        layout.disks.append(DiskPlacement(
            node=-1, props=DiskProps(mass=1.0, j_d=0.01, j_p=0.02), rotor="lp"))
        with pytest.raises(ValueError, match="disk references missing node -1"):
            assemble_dual_rotor(layout)

    def test_unknown_rotor_tag(self):
        layout = bare_two_node_layout()
        with pytest.raises(ValueError):
            layout.speed_of("mid")


class TestLayoutIO:
    def test_default_layout_contents(self):
        layout = default_dual_rotor_layout()
        assert layout.n_nodes == 10
        assert sum(1 for e in layout.elements if e.rotor == "lp") == 6
        assert sum(1 for e in layout.elements if e.rotor == "hp") == 2
        assert len(layout.disks) == 3
        assert len(layout.support_bearings) == 3
        assert len(layout.intershaft_bearings) == 1

    def test_speed_override(self):
        layout = default_dual_rotor_layout(omega_lp=700.0)
        assert layout.omega_lp == 700.0
        assert layout.omega_hp == pytest.approx(840.0)
        layout2 = default_dual_rotor_layout(omega_lp=700.0, omega_hp=900.0)
        assert layout2.omega_hp == 900.0

    def test_json_round_trip(self, tmp_path):
        from importlib import resources

        ref = resources.files("nnrad.models") / "data" / "dual_rotor.json"
        doc = json.loads(ref.read_text())
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(doc))
        layout = load_rotor_layout(str(path))
        ref_layout = default_dual_rotor_layout()
        assert layout.n_nodes == ref_layout.n_nodes
        assert layout.omega_lp == ref_layout.omega_lp
        sys_a = assemble_dual_rotor(layout)
        sys_b = assemble_dual_rotor(ref_layout)
        assert np.array_equal(sys_a.M, sys_b.M)
        assert np.array_equal(sys_a.K, sys_b.K)
        assert np.array_equal(sys_a.C, sys_b.C)

    def test_schema_version_required(self):
        with pytest.raises(ValueError):
            load_rotor_layout({"nodes": [], "elements": [], "disks": []})
