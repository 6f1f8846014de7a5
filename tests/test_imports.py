import os
import subprocess
import sys
from pathlib import Path

import nnrad

# A fresh interpreter: other test modules import scipy.integrate as an oracle.
SCRIPT = """
import sys
import numpy as np
from nnrad import NewmarkConfig, integrate
from nnrad.models import (
    assemble_dual_rotor, default_dual_rotor_layout, sfd_rotor_system,
)

cfg = NewmarkConfig(dt=1e-4)
for sys_ in (sfd_rotor_system(900.0), assemble_dual_rotor(default_dual_rotor_layout())):
    x0 = np.full(sys_.n_dof, 1e-5)
    integrate(sys_, x0, np.zeros(sys_.n_dof), 0.0, 2e-3, cfg)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_solver_does_not_import_scipy():
    src = str(Path(nnrad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"
