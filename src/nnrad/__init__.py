"""nnrad: implicit Newmark/Newton-Raphson integration with AD Jacobians.

Solves M xdd + C xd + K x + F(xdd, xd, x) = Q(t) for arbitrary nonlinear
forces written over the forward-mode AD array type, with a fixed-step
RK4 reference integrator, a library of benchmark rotor/oscillator
models, and amplitude/spectrum post-processing.
"""

from . import ad, analysis, linalg, models
from .newmark import (
    BROYDEN_RANK1,
    FULL_NEWTON,
    SIMPLIFIED_NEWTON,
    NewmarkConfig,
    NonConvergenceError,
    SingularJacobianError,
    initial_acceleration,
    integrate,
    residual,
    step,
    step_terms,
)
from .rk4 import rk4_integrate, to_first_order
from .system import DynamicSystem, State, Trajectory

__version__ = "0.1.0"

__all__ = [
    "ad",
    "analysis",
    "linalg",
    "models",
    "DynamicSystem",
    "State",
    "Trajectory",
    "NewmarkConfig",
    "NonConvergenceError",
    "SingularJacobianError",
    "FULL_NEWTON",
    "SIMPLIFIED_NEWTON",
    "BROYDEN_RANK1",
    "initial_acceleration",
    "integrate",
    "residual",
    "step",
    "step_terms",
    "rk4_integrate",
    "to_first_order",
]
