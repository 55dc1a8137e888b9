"""The package's import surface: classify and boundary run without numpy
(and extended precision without decimal), and every public name resolves,
the numpy-backed ones on first use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC

import ptfloquet
from ptfloquet import cli, oracle, pauli, sweep

NUMPY_FREE_CALLS = [
    ["classify", "--gamma0", "0.3", "--mu", "0.5", "--omega", "5.0"],
    ["classify", "--gamma0", "0.5", "--mu", "-1", "--omega", "2", "--passive"],
    # a half trace of exactly 1, settled in extended precision
    ["classify", "--gamma0", "0", "--mu", "0", "--omega", "0.5"],
    ["boundary", "--kind", "unbroken-ellipse", "--n", "1", "--samples", "5"],
    ["boundary", "--kind", "broken-ellipse", "--n", "2", "--samples", "5"],
    ["boundary", "--kind", "asymptotic", "--samples", "5"],
    ["boundary", "--kind", "mu0-sliver", "--n", "3", "--samples", "5"],
]

# runs each call of argv[1] through cli.main with numpy made unimportable
_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import ptfloquet
from ptfloquet import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
loaded = [m for m, v in sys.modules.items() if m.split(".")[0] == "numpy" and v]
# a sliver centre, whose verdict the extended-precision half trace settles
from ptfloquet import DrivingSpec, classify, mu0_sliver, precise
calls, half_trace = [], precise.half_trace
precise.half_trace = lambda *args: calls.append(args) or half_trace(*args)
classify(DrivingSpec(5.0, 0.0, mu0_sliver(5, 5.0)))
print(json.dumps([results, loaded, len(calls), "decimal" in sys.modules]))
"""


def test_classify_and_boundary_run_without_numpy(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(NUMPY_FREE_CALLS)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results, loaded, precise_calls, decimal_loaded = json.loads(proc.stdout)
    assert loaded == []
    assert precise_calls == 1 and not decimal_loaded
    for argv, (code, out) in zip(NUMPY_FREE_CALLS, results):
        assert code == 0, argv
        assert cli.main(argv) == 0
        assert out == capsys.readouterr().out, argv


def test_every_public_name_resolves():
    for name in ptfloquet.__all__:
        getattr(ptfloquet, name)
    namespace = {}
    exec("from ptfloquet import *", namespace)
    assert set(ptfloquet.__all__) <= set(namespace)
    for name in ("PhaseGrid", "grid_axis", "sweep_grid", "threshold_scan"):
        assert namespace[name] is getattr(sweep, name)
    for name in ("stepped_constant", "stepped_propagator"):
        assert namespace[name] is getattr(oracle, name)
    assert cli.sweep_grid is sweep.sweep_grid


def _package_imports(module):
    """The package modules that module's source imports, by its AST; the
    package namespace, which resolves names from every module, is
    '__init__'."""
    package = Path(ptfloquet.__file__).parent
    found = set()
    for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ptfloquet" if node.level else "", node.module]))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (path.split(".") for path in paths):
            if parts[0] == "ptfloquet":
                name = parts[1] if len(parts) > 1 else "__init__"
                found.add(name if (package / f"{name}.py").exists() else "__init__")
    return found


@pytest.mark.parametrize("module", ["analytic", "oracle"])
def test_cross_checks_stay_independent_of_the_kernel(module):
    # analytic and oracle are why the kernel's output can be trusted, so
    # neither may reach floquet, sweep or precise, directly, through the
    # package modules it imports, or through the package namespace
    reached, todo = set(), [module]
    while todo:
        name = todo.pop()
        reached.add(name)
        imported = _package_imports(name)
        assert not imported & {"floquet", "sweep", "precise", "__init__"}, name
        todo += imported - reached
    assert {"model", "pauli"} <= reached  # the walk follows the imports


@pytest.mark.parametrize("module", [ptfloquet, pauli, cli])
def test_unknown_names_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_pauli_matrices_keep_their_values():
    from ptfloquet.pauli import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z

    expected = (
        (SIGMA_X, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
        (SIGMA_Y, np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)),
        (SIGMA_Z, np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)),
        (IDENTITY, np.eye(2, dtype=complex)),
    )
    for got, want in expected:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
