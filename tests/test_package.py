"""The package surface: the pinned public API, and no unused imports in
any module of the package."""
import ast
from dataclasses import fields
from pathlib import Path

import clfcbf

PUBLIC_API = {
    "__version__",
    # systems
    "DynamicsModel", "NominalController",
    # certificates
    "MAX_BARRIERS", "ClassKappa", "QuadraticCertificate", "CertificateSet",
    # tolerances
    "Tolerances",
    # qp
    "MODES", "ControllerParams", "ControlProblem", "QpSolution",
    "FeasibilityReport", "solve_pointwise", "oracle_solve",
    "check_feasibility_condition", "closed_loop_field",
    # equilibria
    "SearchConfig", "EquilibriumReport", "equilibrium_field",
    "find_boundary_equilibria", "find_interior_equilibria",
    "validate_equilibrium",
    # stability
    "JacobianBundle", "StabilityVerdict", "SpectrumCheck",
    "equilibrium_field_jacobian", "closed_loop_jacobian", "classify",
    "spectrum_cross_check",
    # simulate
    "Termination", "Trajectory", "integrate", "safety_margin",
    "write_trajectory_csv", "read_trajectory_csv",
    # scenario
    "Scenario", "AnalysisReport", "load_scenario", "loads_scenario",
    "serialize_scenario", "save_scenario", "bundled_scenario_names",
    "bundled_scenario_path", "load_bundled_scenario",
    # errors
    "ToolkitError", "DimensionMismatchError", "InvalidParameterError",
    "NumericalError", "PreconditionError", "InfeasibleQPError",
    "OracleFailureError", "IntegrationError", "ScenarioError",
}


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 54
    assert len(clfcbf.__all__) == len(set(clfcbf.__all__))
    assert set(clfcbf.__all__) == PUBLIC_API
    for name in clfcbf.__all__:
        assert getattr(clfcbf, name) is not None, name


def test_jacobian_bundle_fields_are_pinned():
    assert tuple(f.name for f in fields(clfcbf.JacobianBundle)) == (
        "J_A", "J_fA", "J_fcl")


def _unused_imports(source):
    """Names a module imports but never reads (``__all__`` counts as a read)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector_flags_only_unread_names():
    source = ("import os\nimport numpy as np\nfrom typing import Optional, Tuple\n"
              "from .x import a, b\n__all__ = ['a']\n"
              "def f(t: Tuple):\n    return np.zeros(1)\n")
    assert _unused_imports(source) == [(1, "os"), (3, "Optional"), (4, "b")]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(clfcbf.__file__).parent
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: unused for name, unused in found.items() if unused} == {}


def _unread_private_helpers(sources):
    """Private module-level functions and classes that no module reads.

    ``sources`` maps module names to their source.  A name is read when it
    appears as a loaded name or as an attribute anywhere in ``sources``;
    its own definition does not count.
    """
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for name, module in defined.items()
                  if name not in read)


def test_unread_helper_detector_flags_only_dead_helpers():
    sources = {
        "a": "def _used():\n    pass\ndef _dead():\n    pass\nclass _Gone:\n    pass\n"
             "def public():\n    return _used()\n",
        "b": "from . import a\ndef _via_attr():\n    pass\nx = a._via_attr\n"
             "class C:\n    def _method(self):\n        pass\n",
    }
    assert _unread_private_helpers(sources) == [("a", "_Gone"), ("a", "_dead")]


def test_every_private_helper_is_read_in_the_package():
    package = Path(clfcbf.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unread_private_helpers(sources) == []
