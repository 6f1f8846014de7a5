"""Dual-rotor finite-element model: assembly, response, and cross-checks.

A two-spool rotor (low-pressure shaft on three support bearings, a
stiffer high-pressure shaft riding on it through an inter-shaft ball
bearing) is assembled from Timoshenko beam elements, rigid disks with
gyroscopic coupling, and Hertz-contact ball bearings.  The script
inspects the assembled operators, integrates the unbalance response
with both solvers, and compares their steady orbits node by node.
"""

import numpy as np

from nnrad import NewmarkConfig, integrate, rk4_integrate, to_first_order
from nnrad.analysis import amplitude, steady_window
from nnrad.models import assemble_dual_rotor, default_dual_rotor_layout

# --- 1. Assembly -----------------------------------------------------------
layout = default_dual_rotor_layout()   # LP at 800 rad/s, HP at 960 rad/s
sys_ = assemble_dual_rotor(layout)
print("Nodes: %d  (DOFs: %d; x, y, theta_x, theta_y per node)"
      % (layout.n_nodes, sys_.n_dof))
print("LP speed %.0f rad/s, HP speed %.0f rad/s"
      % (layout.omega_lp, layout.omega_hp))
print("M symmetric: %s,  K symmetric: %s"
      % (np.allclose(sys_.M, sys_.M.T), np.allclose(sys_.K, sys_.K.T)))
G = sys_.C - layout.rayleigh_alpha * sys_.M - layout.rayleigh_beta * sys_.K
print("Gyroscopic part of C antisymmetric: %s" % np.allclose(G, -G.T))

# All bearing restoring forces live in the nonlinear term (Hertz
# contact), so the linear K alone is free-free: eight near-zero
# rigid-body modes, two per shaft per plane.
# Generalised eigenvalues of (K, M) from the symmetric standard problem
# L^-1 K L^-T, with M = L L^T its Cholesky factorisation.
L_inv = np.linalg.inv(np.linalg.cholesky(sys_.M))
w2 = np.linalg.eigvalsh(L_inv @ sys_.K @ L_inv.T)
print("Near-zero (rigid-body) eigenvalues of (K, M): %d"
      % int(np.sum(np.abs(w2) < 1e-6)))

# --- 2. Unbalance response -------------------------------------------------
cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
t_end = 1.0
x0 = np.zeros(sys_.n_dof)
v0 = np.zeros(sys_.n_dof)
traj = integrate(sys_, x0, v0, 0.0, t_end, cfg)
print("\nNewmark: %d steps, %d Newton iterations total"
      % (traj.t.size - 1, int(np.sum(traj.iterations))))

field = to_first_order(sys_)
rk = rk4_integrate(field, np.concatenate([x0, v0]), 0.0, t_end, cfg.dt)

# --- 3. Node-by-node comparison --------------------------------------------
w_nm = steady_window(traj, 0.4)
w_rk = steady_window(rk, 0.4)
print("\n  node   A_Newmark     A_RK4        rel gap")
worst = 0.0
for node in range(layout.n_nodes):
    a_nm = amplitude(w_nm.x[:, 4 * node], w_nm.x[:, 4 * node + 1])
    a_rk = amplitude(w_rk.x[:, 4 * node], w_rk.x[:, 4 * node + 1])
    rel = abs(a_nm - a_rk) / max(a_rk, 1e-30)
    worst = max(worst, rel)
    print("  %4d   %.4e   %.4e   %.2e" % (node, a_nm, a_rk, rel))
print("Worst relative amplitude gap: %.2e" % worst)

# --- 4. Which nodes move most? ---------------------------------------------
amps = [amplitude(w_nm.x[:, 4 * n], w_nm.x[:, 4 * n + 1])
        for n in range(layout.n_nodes)]
order = np.argsort(amps)[::-1]
disk_nodes = {d.node for d in layout.disks}
print("\nLargest orbits at nodes %s (disk nodes are %s)"
      % ([int(n) for n in order[:3]], sorted(disk_nodes)))
