"""Shared fixtures: the worked 2-D deadlock problem, the bundled scenarios,
the adversarial duplicated-barrier scenario, and small synthetic problems
used across the suite."""
import sys
from pathlib import Path

import numpy as np
import pytest

from clfcbf import (
    CertificateSet,
    ClassKappa,
    ControlProblem,
    ControllerParams,
    DynamicsModel,
    NominalController,
    QuadraticCertificate,
    Tolerances,
    load_bundled_scenario,
    load_scenario,
)

DATA_DIR = Path(__file__).parent / "data"


def make_deadlock2d():
    """Single integrator in the plane, V = 0.5*||x||^2, one circular obstacle
    of radius 1 at (2, 0), unit gains, p = 1.  All frozen numbers in the
    suite's hand derivations refer to this problem."""
    model = DynamicsModel.driftless(input_matrix=np.eye(2))
    certificates = CertificateSet(
        cbfs=(
            QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([2.0, 0.0]), offset=-1.0
            ),
        ),
        alphas=(ClassKappa(1.0),),
        clf=QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2)),
        gamma=ClassKappa(1.0),
    )
    params = ControllerParams(
        mode="clf_cbf", p=1.0, cost_metric=np.eye(2), nominal=NominalController.zero(2)
    )
    return ControlProblem(
        model=model, certificates=certificates, params=params, tolerances=Tolerances()
    )


def make_onedim_filter():
    """Scalar safety filter: f = 0, g = 1, u_nom = -x, quadratic barrier
    h(x) = 0.5*(x - 0.5)^2 whose value (0.5) and gradient (1.0) at the probe
    state x = 1.5 match the affine constraint the example was derived from."""
    model = DynamicsModel.driftless(input_matrix=np.eye(1))
    certificates = CertificateSet(
        cbfs=(
            QuadraticCertificate.barrier(
                shape=np.array([[0.5]]), center=np.array([0.5]), offset=0.0
            ),
        ),
        alphas=(ClassKappa(1.0),),
    )
    params = ControllerParams(
        mode="safety_filter",
        p=1.0,
        cost_metric=np.eye(1),
        nominal=NominalController.linear_feedback(-np.eye(1)),
    )
    return ControlProblem(
        model=model, certificates=certificates, params=params, tolerances=Tolerances()
    )


def make_twocircles2d():
    """Two radius-sqrt(2) circles centered (+-1, 0) meeting transversally at
    (0, +-1): at either crossing both gradients are independent, so an
    equilibrium there has r = n = 2 active constraints."""
    model = DynamicsModel.driftless(input_matrix=np.eye(2))
    certificates = CertificateSet(
        cbfs=(
            QuadraticCertificate.barrier(
                shape=0.5 * np.eye(2), center=np.array([-1.0, 0.0]), offset=-1.0
            ),
            QuadraticCertificate.barrier(
                shape=0.5 * np.eye(2), center=np.array([1.0, 0.0]), offset=-1.0
            ),
        ),
        alphas=(ClassKappa(1.0), ClassKappa(2.0)),
        clf=QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2)),
        gamma=ClassKappa(1.0),
    )
    params = ControllerParams(
        mode="clf_cbf", p=1.0, cost_metric=np.eye(2), nominal=NominalController.zero(2)
    )
    return ControlProblem(
        model=model, certificates=certificates, params=params, tolerances=Tolerances()
    )


@pytest.fixture(scope="session")
def deadlock2d():
    return make_deadlock2d()


@pytest.fixture(scope="session")
def onedim_filter():
    return make_onedim_filter()


@pytest.fixture(scope="session")
def twocircles2d():
    return make_twocircles2d()


@pytest.fixture(scope="session")
def fig1_scenario():
    return load_bundled_scenario("fig1")


@pytest.fixture(scope="session")
def fig1(fig1_scenario):
    return fig1_scenario.problem()


@pytest.fixture(scope="session")
def deadlock2d_scenario():
    return load_bundled_scenario("deadlock2d")


@pytest.fixture(scope="session")
def filter2d_scenario():
    return load_bundled_scenario("filter2d")


@pytest.fixture(scope="session")
def filter2d(filter2d_scenario):
    return filter2d_scenario.problem()


@pytest.fixture(scope="session")
def dupcbf_scenario():
    # Adversarial duplicated-barrier scenario: ships with the tests, not
    # with the package, because its boundary equilibrium sits on an
    # active-set kink where the closed loop is not differentiable.
    return load_scenario(DATA_DIR / "dupcbf.scenario")


@pytest.fixture(scope="session")
def dupcbf(dupcbf_scenario):
    return dupcbf_scenario.problem()


@pytest.fixture
def assemblies(monkeypatch):
    """Record every state evaluation, one entry per build: "point" for the
    QP layer ``qp._PointData`` and "batch" for each stack of points
    evaluated by ``stability._EquilibriumSystem``.

    Counting subclasses replace the classes at every binding in the package
    (``qp``, ``equilibria``, ``stability``), so builds made anywhere inside
    the library are seen.
    """
    import clfcbf.qp as qp
    import clfcbf.stability as stability

    built = []

    class CountingPointData(qp._PointData):
        __slots__ = ()

        def __init__(self, problem, x):
            built.append("point")
            super().__init__(problem, x)

    class CountingSystem(stability._EquilibriumSystem):
        def __call__(self, Z):
            built.append("batch")
            return super().__call__(Z)

    swaps = {qp._PointData: CountingPointData,
             stability._EquilibriumSystem: CountingSystem}
    for modname, module in list(sys.modules.items()):
        if modname != "clfcbf" and not modname.startswith("clfcbf."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, type) and value in swaps:
                monkeypatch.setattr(module, attr, swaps[value])
    return built


@pytest.fixture
def table_evaluations(monkeypatch):
    """Record every evaluation of the certificate table: one entry per
    ``certificates._quadrics`` call, the number of states it evaluated.

    The counting wrapper replaces the function at every binding in the
    package, like ``assemblies``."""
    import clfcbf.certificates as certificates

    calls = []
    quadrics = certificates._quadrics

    def counting_quadrics(shapes, centers, offsets, X):
        calls.append(X.shape[0])
        return quadrics(shapes, centers, offsets, X)

    for modname, module in list(sys.modules.items()):
        if modname != "clfcbf" and not modname.startswith("clfcbf."):
            continue
        if vars(module).get("_quadrics") is quadrics:
            monkeypatch.setattr(module, "_quadrics", counting_quadrics)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "SUMMARY", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
