"""Import layout of the package: every module-level import is used, scipy
is imported only inside the functions that call it, and the integrator an
outside tracer rebinds (`noise.solve_ivp`) is looked up at call time.  Only
the oracles and the dense channels read a dense state's matrix, and only
`protocol.band` takes a vector's band.  The lints are stdlib-only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from telefock import fock, noise

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "telefock"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports and never read in the module.

    A name counts as read when it appears as a load anywhere in the module
    (annotations included) or as a string in `__all__`.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_catches_an_unused_import():
    source = "import json\nimport math\nfrom os import path as p, sep\n__all__ = ['sep']\nmath.pi\n"
    assert unused_imports(source) == ["json (line 1)", "p (line 3)"]


def module_level_scipy_imports(source: str) -> list[str]:
    """Imports of scipy that run when the module is imported, i.e. outside
    any function body."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        found += [f"{name} (line {node.lineno})" for name in names
                  if name == "scipy" or name.startswith("scipy.")]
        pending += ast.iter_child_nodes(node)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_imports(path):
    assert module_level_scipy_imports(path.read_text()) == []


def test_scipy_checker_catches_module_level_imports():
    source = (
        "import scipy.linalg\n"
        "try:\n    from scipy import integrate\nexcept ImportError:\n    pass\n"
        "class C:\n    from scipy.special import gammaln\n"
        "def f():\n    from scipy.optimize import brentq\n"
        "import scipyx\n"
    )
    assert module_level_scipy_imports(source) == [
        "scipy (line 3)", "scipy.linalg (line 1)", "scipy.special (line 7)"]


# Modules only the tests may import: the package computes in float64, and
# `tests/reference.py`'s mpmath values stay an independent check of it.
TEST_ONLY = ("mpmath", "reference")


def imports_of_test_only_modules(source: str) -> list[str]:
    """Imports anywhere in `source`, function bodies included, of a module
    in TEST_ONLY, absolute or relative (`from . import reference` too)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + ([alias.name for alias in node.names]
                                            if node.module is None else [])
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] in TEST_ONLY]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_test_only_module(path):
    assert imports_of_test_only_modules(path.read_text()) == []


def test_test_only_checker_catches_each_form():
    source = (
        "import mpmath\n"
        "from mpmath import mp\n"
        "def f():\n    import mpmath.libmp\n"
        "from . import reference\n"
        "from .reference import band_integral\n"
        "import referenced\n"
        "from .fock import _reader\n"
    )
    assert imports_of_test_only_modules(source) == [
        "mpmath (line 1)", "mpmath (line 2)", "reference (line 5)", "reference (line 6)",
        "mpmath.libmp (line 4)"]


# Where a layer module may read a dense state's `.matrix`: the four-mode
# oracle's factors, the conditional states `average_teleported` sums, and the
# dense noise channels.  Every other reader goes through `fock._reader`.
DENSE_READERS = {
    "protocol.py": {"_four_mode_factors", "average_teleported"},
    "noise.py": {"mix", "dephase", "particle_loss_analytic", "particle_loss_lindblad"},
    "resources.py": set(),
    "continuum.py": set(),
    "cli.py": set(),
}


def matrix_loads(source: str, allowed: set) -> list[str]:
    """Loads of an attribute `matrix` outside the functions named in `allowed`
    (a load inside a function nested in an allowed one is allowed)."""
    found = []

    def visit(node, inside: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in allowed
        if (isinstance(node, ast.Attribute) and node.attr == "matrix"
                and isinstance(node.ctx, ast.Load) and not inside):
            found.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("name", sorted(DENSE_READERS))
def test_only_the_oracles_read_a_dense_matrix(name):
    assert matrix_loads((PACKAGE / name).read_text(), DENSE_READERS[name]) == []


def test_matrix_checker_catches_a_load_outside_the_allowlist():
    source = (
        "def oracle(rho):\n    return [s.matrix for s in rho]\n"
        "def closed(rho):\n    m = rho.matrix\n    rho.matrix = m\n"
        "x = rho.matrix\n"
        "class C:\n    def oracle(self):\n        return self.matrix\n"
    )
    assert matrix_loads(source, {"oracle"}) == ["line 4", "line 6"]


# Where the package may call a vector reader: `protocol.band` alone takes a
# vector's shifted dot products, `_shifted_dots` alone picks their Gram-block
# path, and the norm check runs where a vector enters, in `band`,
# `fock._reader` and `PureTwoModeState`.
VECTOR_READERS = {
    "_shifted_dots": {"protocol.band"},
    "_gram_lags": {"protocol._shifted_dots"},
    "_check_normalized": {"protocol.band", "fock._reader", "fock.PureTwoModeState.__post_init__"},
}


def callers(source: str, module: str, name: str) -> list[str]:
    """Qualified names (module.Class.function) of the functions that call
    `name`, by a bare name or as an attribute; calls in a nested function
    count for the outermost one, calls outside any function for the module."""
    found = []

    def visit(node, scope: list[str], in_function: bool):
        named = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if isinstance(node, named) and not in_function:
            scope = [*scope, node.name]
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


@pytest.mark.parametrize("name", sorted(VECTOR_READERS))
def test_only_the_entry_points_read_a_vector(name):
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= set(callers(path.read_text(), path.stem, name))
    assert found <= VECTOR_READERS[name], sorted(found - VECTOR_READERS[name])
    assert found, f"no call of {name} found: the lint reads nothing"


def test_caller_checker_names_the_outermost_function():
    source = (
        "_check(x)\n"
        "def band(rho):\n    return fock._check(rho)\n"
        "def outer(rho):\n    def inner():\n        return _check(rho)\n"
        "    return (lambda: _check(rho))()\n"
        "class State:\n    def __post_init__(self):\n        _check(self)\n"
        "    def other(self):\n        return _checked(self)\n"
    )
    assert callers(source, "m", "_check") == [
        "m", "m.band", "m.outer", "m.outer", "m.State.__post_init__"]


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_and_a_pure_sweep_load_no_scipy():
    code = (
        "import contextlib, io, sys\n"
        "import telefock, telefock.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = telefock.cli.main(['sweep', '--config', 'configs/sweep_maxent.json'])\n"
        "assert rc == 0, rc\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'sweep'\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


SU2 = {"name": "su2_coherent", "theta": 1.1, "phi": 0.4}


@pytest.mark.parametrize("config", [
    {"schema_version": 1, "kind": "noise", "N": 4, "nu": 1024, "resource": SU2,
     "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
     "times": {"start": 0.0, "stop": 0.3, "num": 13}},
    {"schema_version": 1, "kind": "sweep", "N": 4, "nu_grid": [1000, 4096], "resource": SU2},
], ids=["noise-dephasing", "sweep"])
def test_su2_commands_load_no_scipy(config, tmp_path):
    # SU(2) moduli are ratio products in numpy, with no log-gamma
    path = tmp_path / "su2.json"
    path.write_text(json.dumps(config))
    code = (
        "import contextlib, io, sys\n"
        "from telefock.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(sys.argv[1:])\n"
        "assert rc == 0, rc\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy'\n"
    )
    proc = run_python(code, config["kind"], "--config", str(path))
    assert proc.returncode == 0, proc.stderr


def test_continuum_functionals_on_stock_profiles_load_no_scipy():
    # the band integrals are closed forms plus a fixed rule on the edge strips
    code = (
        "import sys\n"
        "from telefock import continuum\n"
        "for prof in (continuum.flat_family(), continuum.gaussian_beta_family(0.8),\n"
        "             continuum.double_well_family(10.0), continuum.double_well_family(-2.0),\n"
        "             continuum.spike_profile(width=1e-4)):\n"
        "    for nu in (100, 10000):\n"
        "        continuum.fidelity_continuum(prof, 2, nu)\n"
        "        continuum.entanglement_continuum(prof, 2, nu)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'continuum'\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_noise_solve_ivp_is_the_port_and_noise_loads_no_scipy():
    # the RK45 port; tests/test_rk45.py pins it to scipy's bit for bit
    code = (
        "import sys\n"
        "from telefock import noise\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'import'\n"
        "assert vars(noise)['solve_ivp'].__module__ == 'telefock.noise'\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        noise.no_such_name


@pytest.mark.parametrize("argv", [["teleport", "--config", "configs/teleport_maxent.json"],
                                  ["selftest"]], ids=["teleport", "selftest"])
def test_teleport_and_selftest_load_no_scipy(argv):
    # the PSD certificate is numpy's Cholesky and the loss generator a numpy
    # CSR matrix: only the double well's eigensolver loads scipy
    code = (
        "import contextlib, io, sys\n"
        "from telefock.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(sys.argv[1:])\n"
        "assert rc == 0, rc\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python(code, *argv)
    assert proc.returncode == 0, proc.stderr


def test_selftest_and_the_lindblad_oracle_load_no_scipy_integrate():
    # the integrator is the port and the loss generator a numpy CSR matrix
    code = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "from telefock import fock, noise\n"
        "from telefock.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['selftest'])\n"
        "assert rc == 0, rc\n"
        "rho = fock.ResourceState.from_amplitudes(np.full(5, 5 ** -0.5))\n"
        "noise.particle_loss_lindblad(rho, noise.two_particle_loss_spec(0.3, 0.2, 0.1, 0.1, 0.05, 0.4), 0.4)\n"
        "loaded = [m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


def counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return counted


def test_rebound_solve_ivp_is_what_the_integrator_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(noise, "solve_ivp", counting(noise.solve_ivp, calls))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rho = fock.ResourceState.from_amplitudes(x / np.linalg.norm(x))
    spec = noise.LossSpec((noise.LossChannel(0.5, 1, 0),), t=0.2)
    noise.particle_loss_lindblad(rho, spec, 0.2)
    assert calls == [1]


# A finder that refuses every scipy module, as on an install without scipy.
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
from telefock.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_commands_without_scipy_run_or_exit_3_cleanly():
    for config in ("configs/sweep_maxent.json", "configs/teleport_maxent.json"):
        kind = json.loads((ROOT / config).read_text())["kind"]
        proc = run_python(WITHOUT_SCIPY, kind, "--config", config, "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == (ROOT / "tests" / "golden" / Path(config).name).read_text()
    # the double well's eigensolver is the one use of scipy left
    ground = run_python(WITHOUT_SCIPY, "ground-state", "--config",
                        "configs/ground_state_repulsive.json")
    assert ground.returncode == 3
    assert ground.stdout == ""
    assert ground.stderr.startswith("environment error: No module named 'scipy")
    assert "Traceback" not in ground.stderr
    assert len(ground.stderr.strip().splitlines()) == 1


NOISY_CONVERGE = {
    "schema_version": 1, "kind": "converge", "N": 2, "nu_grid": [100, 200, 400, 800],
    "family": {"name": "gaussian", "beta": 0.75},
    "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
    "time_rule": {"exponent": -2.5},
}


@pytest.mark.parametrize("command, config", [
    ("noise", "configs/noise_dephasing_threshold.json"),
    ("noise", "configs/noise_loss_bounds.json"),
    ("converge", None),
], ids=["noise-threshold", "noise-loss", "converge-noisy"])
def test_noise_commands_load_no_scipy_optimize(command, config, tmp_path):
    # the dephasing threshold is found by the Brent port `noise._brentq`
    if config is None:
        config = tmp_path / "noisy_converge.json"
        config.write_text(json.dumps(NOISY_CONVERGE))
    code = (
        "import contextlib, io, sys\n"
        "from telefock.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = main(sys.argv[1:])\n"
        "assert rc == 0, rc\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'\n"
    )
    proc = run_python(code, command, "--config", str(config))
    assert proc.returncode == 0, proc.stderr


def test_threshold_sample_without_scipy_writes_its_golden_output():
    proc = run_python(WITHOUT_SCIPY, "noise", "--config", "configs/noise_dephasing_threshold.json",
                      "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (ROOT / "tests" / "golden" / "noise_dephasing_threshold.json").read_text()
