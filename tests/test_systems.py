"""Declarative plants and nominal controllers, evaluated through the
ControlProblem that binds them, plus the finite-difference Jacobian helper
the Jacobian tests use as their independent reference."""
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
)
from clfcbf.errors import DimensionMismatchError, InvalidParameterError, NumericalError
from clfcbf.systems import _finite_difference_jacobian
from oracles import nominal_field

G0 = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, 0.0], [-2.0, 0.0, 1.0]])


def _problem(model, nominal=None, cost_metric=None):
    """A one-barrier safety filter around ``model``: enough to evaluate it."""
    n, m = model.n, model.m
    return ControlProblem(
        model=model,
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.eye(n), center=np.zeros(n), offset=-1.0),),
            alphas=(ClassKappa(1.0),)),
        params=ControllerParams(
            mode="safety_filter", p=1.0,
            cost_metric=np.eye(m) if cost_metric is None else cost_metric,
            nominal=NominalController.zero(m) if nominal is None else nominal))


def test_driftless_model_drift_is_zero():
    model = DynamicsModel.driftless(input_matrix=G0)
    x = np.array([1.0, 0.0, 3.0])
    assert model.drift_kind == "zero"
    assert np.array_equal(model.input_matrix, G0)
    assert np.array_equal(nominal_field(_problem(model), x), np.zeros(3))


def test_linear_model_drift():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    model = DynamicsModel.linear(drift_matrix=A, input_matrix=np.eye(2))
    x = np.array([2.0, -3.0])
    assert np.allclose(nominal_field(_problem(model), x), A @ x)
    assert np.array_equal(_problem(model).f_nom_jacobian(), A)


def test_input_matrix_is_required():
    with pytest.raises(InvalidParameterError):
        DynamicsModel(n=2, m=2)


def test_gram_matrix_constant_input_map():
    # g0 g0^T for the non-diagonal 3-D input map, element-wise oracle.
    model = DynamicsModel.driftless(input_matrix=G0)
    G = _problem(model).gram()
    expected = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            expected[i, j] = sum(G0[i, k] * G0[j, k] for k in range(3))
    assert np.allclose(G, expected, atol=1e-14)
    assert np.allclose(G, [[5.0, 0.0, -4.0], [0.0, 1.0, 0.0], [-4.0, 0.0, 5.0]])


def test_gram_matrix_respects_cost_metric():
    # G = g H^{-1} g^T: with H = 4 I the Gram matrix scales by 1/4.
    model = DynamicsModel.driftless(input_matrix=G0)
    G_unit = _problem(model).gram()
    G_scaled = _problem(model, cost_metric=4.0 * np.eye(3)).gram()
    assert np.allclose(G_scaled, G_unit / 4.0, atol=1e-14)


def test_gram_matrix_is_symmetric_psd_random_maps():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        g = rng.standard_normal((n, m))
        B = rng.standard_normal((m, m))
        H = B @ B.T + m * np.eye(m)
        model = DynamicsModel.driftless(input_matrix=g)
        G = _problem(model, cost_metric=H).gram()
        assert np.allclose(G, G.T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() >= -1e-12


def test_nominal_zero_and_linear_feedback():
    zero = NominalController.zero(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(zero(x), np.zeros(3))
    K = np.array([[-1.0, 0.0], [0.0, -2.0]])
    fb = NominalController.linear_feedback(K)
    y = np.array([3.0, -1.0])
    assert np.allclose(fb(y), K @ y)
    problem = _problem(DynamicsModel.driftless(input_matrix=np.eye(2)), fb)
    assert np.allclose(problem.f_nom_jacobian(), K)


def test_f_nom_and_jacobian_linear_case():
    # f_nom = f + g u_nom; for the scalar filter with u_nom = -x this is -x,
    # and the analytic Jacobian matches finite differences.
    model = DynamicsModel.driftless(input_matrix=np.eye(2))
    problem = _problem(model, NominalController.linear_feedback(-np.eye(2)))
    x = np.array([4.0, 0.5])
    f = nominal_field(problem, x)
    assert np.allclose(f, -x)
    J = problem.f_nom_jacobian()
    J_fd = _finite_difference_jacobian(lambda z: nominal_field(problem, z), x)
    assert np.allclose(J, -np.eye(2), atol=1e-12)
    assert np.allclose(J, J_fd, atol=1e-6)


def test_finite_difference_jacobian_polynomial_exactish():
    # Central differences are exact for quadratics up to roundoff-scale error.
    def fn(x):
        return np.array([x[0] ** 2 + 2.0 * x[1], 3.0 * x[0] * x[1]])

    x = np.array([1.5, -2.0])
    J = _finite_difference_jacobian(fn, x)
    expected = np.array([[3.0, 2.0], [-6.0, 4.5]])
    assert np.allclose(J, expected, atol=1e-8)


def test_finite_difference_jacobian_random_linear_maps():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        x = rng.standard_normal(n)
        J = _finite_difference_jacobian(lambda z: A @ z, x)
        assert np.allclose(J, A, atol=1e-7)


def test_finite_difference_jacobian_calls_fn_at_the_probes_only():
    # Central differences read fn at x +- h e_j only: 2n calls, none at x.
    A = np.arange(12.0).reshape(4, 3)
    x = np.array([0.5, -1.0, 2.0])
    probes = []

    def fn(z):
        probes.append(z.copy())
        return A @ z

    J = _finite_difference_jacobian(fn, x)
    assert J.shape == (4, 3)
    assert np.allclose(J, A, atol=1e-7)
    assert len(probes) == 2 * x.size
    assert not any(np.array_equal(z, x) for z in probes)


def test_finite_difference_jacobian_rejects_nonfinite():
    def fn(x):
        return np.array([np.inf if x[0] > 1.0 else x[0]])

    with pytest.raises(NumericalError):
        _finite_difference_jacobian(fn, np.array([1.0]))


def test_dimension_mismatch_rejected():
    problem = _problem(DynamicsModel.driftless(input_matrix=G0))
    with pytest.raises(DimensionMismatchError):
        nominal_field(problem, np.zeros(2))
