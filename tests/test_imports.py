import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nnrad

# A fresh interpreter: other test modules import scipy.integrate as an oracle.
SCRIPT = """
import sys
import numpy as np
from nnrad import NewmarkConfig, integrate
from nnrad.analysis import sweep
from nnrad.models import (
    assemble_dual_rotor, default_dual_rotor_layout, sfd_rotor_system,
)

cfg = NewmarkConfig(dt=1e-4)
for sys_ in (sfd_rotor_system(900.0), assemble_dual_rotor(default_dual_rotor_layout())):
    x0 = np.full(sys_.n_dof, 1e-5)
    integrate(sys_, x0, np.zeros(sys_.n_dof), 0.0, 2e-3, cfg)
rows = sweep(sfd_rotor_system, [900.0, 1000.0, 1100.0], cfg, [0], 2e-3)
assert all(row.error is None for row in rows), rows
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def run_fresh(*args):
    """Run python with args in a fresh interpreter that imports this nnrad."""
    src = str(Path(nnrad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def test_solver_does_not_import_scipy():
    out = run_fresh("-c", SCRIPT)
    # numpy.ma (np.unique imports it) costs about 0.5 MB of peak RSS.
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_tracer_patch_points_resolve():
    # bench/tracing.py wraps these module attributes; its own tests lie
    # outside the tier-1 test paths.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, attr, _ in tracing.PATCHES:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


@pytest.mark.parametrize("run", ["duffing", "sfd_rotor", "sfd_sweep", "dual_rotor"])
def test_the_solver_calls_the_tracers_patch_points(run, monkeypatch):
    # bench/tracing.py times these layers by wrapping newmark's module
    # attributes, so the step loop must look each one up there at call
    # time, one row and in lock-step.  ad.jacobian, also in PATCHES, is
    # not called by the step loop: linearize seeds F_nl or the sites' law
    # itself.
    import nnrad.newmark as newmark
    from nnrad import NewmarkConfig, integrate
    from nnrad.analysis import sweep
    from nnrad.models import (
        assemble_dual_rotor, default_dual_rotor_layout, duffing, sfd_rotor_system,
    )

    calls, stepping = {}, []
    for name in ("residual", "lu_factor", "lu_solve"):
        def counted(*args, _fn=getattr(newmark, name), _name=name, **kwargs):
            if stepping:  # initial_acceleration and solve_terms factor too
                calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(newmark, name, counted)

    def step_core(*args, _fn=newmark._step_core, **kwargs):
        stepping.append(1)
        try:
            return _fn(*args, **kwargs)
        finally:
            stepping.pop()

    monkeypatch.setattr(newmark, "_step_core", step_core)
    cfg = NewmarkConfig(dt=1e-4)
    if run == "duffing":
        integrate(duffing(), [2.0], [0.0], 0.0, 0.02, NewmarkConfig(dt=1e-3))
    elif run == "sfd_rotor":
        integrate(sfd_rotor_system(900.0), np.full(4, 1e-5), np.zeros(4), 0.0, 2e-3, cfg)
    elif run == "sfd_sweep":
        rows = sweep(sfd_rotor_system, [900.0, 1100.0], cfg, [0], 2e-3)
        assert all(row.error is None for row in rows)
    else:
        sys_ = assemble_dual_rotor(default_dual_rotor_layout())
        integrate(sys_, np.full(sys_.n_dof, 1e-5), np.zeros(sys_.n_dof), 0.0, 2e-3, cfg)
    assert sorted(calls) == ["lu_factor", "lu_solve", "residual"], calls


# The demos that exercise nnrad.ad and the dual rotor's sites; 02 (about
# 25 s) and 03 (about 9 s) are left to be run by hand.
@pytest.mark.parametrize("demo", ["01_ad_basics.py", "04_dual_rotor.py"])
def test_demo_runs(demo):
    run_fresh(str(Path(__file__).resolve().parents[1] / "demos" / demo))


def _private(name):
    """A dotted name with a segment that is private (_x), not a dunder."""
    return any(part.startswith("_") and not part.endswith("__")
               for part in name.split("."))


def private_numpy_names(source):
    """The private NumPy modules and attributes a source names: an import
    of a private numpy module or name, or an attribute chain on numpy (or
    an alias of it) with a private segment, such as
    np.linalg._umath_linalg."""
    tree = ast.parse(source)
    aliases, found = {"numpy"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "numpy":
                    aliases.add((a.asname or a.name).split(".")[0])
                    found.add(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.update(f"{node.module}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            found.add(".".join([node.id] + chain[::-1]))
    return sorted(name for name in found if _private(name))


def test_the_guard_finds_private_numpy_names():
    assert private_numpy_names(
        "import numpy as np\nnp.linalg._umath_linalg.inv(a)\nnp.__version__"
    ) == ["np.linalg._umath_linalg", "np.linalg._umath_linalg.inv"]
    assert private_numpy_names("from numpy.linalg import _umath_linalg") == [
        "numpy.linalg._umath_linalg"]
    assert private_numpy_names("import numpy._core.multiarray as m") == [
        "numpy._core.multiarray"]
    assert private_numpy_names("import numpy as np\nx = np.linalg.inv(a)") == []


def test_src_names_no_private_numpy_api():
    # Private NumPy API (the 10 x 10 inv gufunc in numpy.linalg, say) is
    # left out: it may change or vanish in any NumPy release.
    src = Path(nnrad.__file__).resolve().parent
    found = {str(path.relative_to(src)): names for path in sorted(src.rglob("*.py"))
             if (names := private_numpy_names(path.read_text()))}
    assert not found, found
