"""Forward-mode AD in nnrad: values, seeds, and exact Jacobians.

The solver differentiates nonlinear force laws with a forward-mode AD
array type rather than finite differences.  This script walks through
the building blocks: lifting inputs, propagating derivatives through
arithmetic, the smoothed-contact primitive `relu_pow`, and the
`jacobian` convenience wrapper, then compares an AD Jacobian against a
central finite difference to show the accuracy gap.
"""

import numpy as np

from nnrad import ad

# --- 1. Lifting inputs -----------------------------------------------------
# `lift` turns an n-vector of floats into one ADArray carrying identity
# seed rows: entry i has seeds e_i, so every downstream value's `seeds`
# attribute is its gradient with respect to the inputs.  Unpacking the
# lifted vector gives its 0-d entries.
x, y = ad.lift([3.0, 5.0])
print("x          =", x.value, "seeds", x.seeds)
print("y          =", y.value, "seeds", y.seeds)

f = (x + y) * (x + y)
print("(x+y)^2    =", f.value, "gradient", f.seeds, " (expect 64, [16, 16])")

# --- 2. Nonsmooth contact made differentiable ------------------------------
# Hertz-type contact forces involve max(d, 0)^p with fractional p.  The
# `relu_pow` primitive handles the two branches and keeps the derivative
# p*d^(p-1) on the positive side; the kink at d=0 is harmless because
# p > 1 makes the derivative continuous there.
d, = ad.lift([0.2])
g = ad.relu_pow(d, 10.0 / 9.0)
print("\nrelu_pow(0.2, 10/9)  value %.6f  d/dd %.6f" % (g.value, g.seeds[0]))
g0 = ad.relu_pow(ad.lift([-0.2])[0], 10.0 / 9.0)
print("relu_pow(-0.2, 10/9) value %.6f  d/dd %.6f  (clamped branch)"
      % (g0.value, g0.seeds[0]))

# --- 3. Whole Jacobians ----------------------------------------------------
# `jacobian(f, x0)` lifts x0, runs f once, and stacks the seed rows.
def force(z):
    u, v = z
    return [u * u * v + ad.sin(v), ad.relu_pow(u - v, 2.5)]

z0 = np.array([1.2, 0.4])
J_ad = ad.jacobian(force, z0)
print("\nAD Jacobian:\n", J_ad)

# Central differences for comparison: the step h trades truncation
# against roundoff and the best achievable error is ~1e-10 relative.
h = 1e-6
J_fd = np.zeros((2, 2))
for j in range(2):
    zp, zm = z0.copy(), z0.copy()
    zp[j] += h
    zm[j] -= h
    fp = [float(v) for v in force(ad.lift(zp))]
    fm = [float(v) for v in force(ad.lift(zm))]
    J_fd[:, j] = (np.array(fp) - np.array(fm)) / (2 * h)
print("FD Jacobian:\n", J_fd)
print("max |AD - FD| = %.3e  (pure FD truncation error; AD is exact)"
      % np.max(np.abs(J_ad - J_fd)))

# --- 4. Whole arrays at once ----------------------------------------------
# An ADArray holds a value array and one seed row per entry, so linear
# terms and elementwise force laws propagate all derivatives in a few
# NumPy calls: `A @ x` multiplies values and seeds by a constant matrix.
A = np.array([[2.0, 1.0], [0.0, 3.0]])
w = A @ ad.lift([1.0, 2.0])
print("\nA @ x values ", w.value)
print("A @ x seeds\n", w.seeds, " (rows of A)")
p = ad.relu_pow(ad.lift([0.3, -0.1, 0.2]), 10.0 / 9.0)
print("relu_pow over three entries: values", p.value, "sum of seeds", p.sum().seeds)
