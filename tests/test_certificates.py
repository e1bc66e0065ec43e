"""Quadratic certificate evaluation: values, gradients, Hessians, class-K
gains, and the (N+1)-row certificate table with its stacked accessors."""
import numpy as np
import pytest

from clfcbf import (
    CertificateSet,
    ClassKappa,
    ControllerParams,
    ControlProblem,
    DynamicsModel,
    NominalController,
    QuadraticCertificate,
    equilibrium_field_jacobian,
)
from clfcbf.certificates import MAX_BARRIERS, _quadrics
from clfcbf.errors import DimensionMismatchError, InvalidParameterError


def fd_gradient(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def test_barrier_value_gradient_hessian_hand_case():
    # h(x) = ||x - (2,0)||^2 - 1: h(3,0) = 0, grad = 2(x - c), hess = 2I.
    cbf = QuadraticCertificate.barrier(
        shape=np.eye(2), center=np.array([2.0, 0.0]), offset=-1.0
    )
    x = np.array([3.0, 0.0])
    assert cbf.value(x) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(cbf.gradient(x), [2.0, 0.0])
    assert np.allclose(cbf.hessian(x), 2.0 * np.eye(2))


def test_clf_value_gradient_hessian_hand_case():
    # V(x) = 0.5 ||x||^2 via shape 0.5 I: V(3,0) = 4.5, grad = x, hess = I.
    clf = QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2))
    x = np.array([3.0, 0.0])
    assert clf.value(x) == pytest.approx(4.5)
    assert np.allclose(clf.gradient(x), x)
    assert np.allclose(clf.hessian(x), np.eye(2))


def test_gradient_matches_finite_differences_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        B = rng.standard_normal((n, n))
        shape = 0.5 * (B + B.T)
        center = rng.standard_normal(n)
        cert = QuadraticCertificate.barrier(shape=shape, center=center, offset=-1.0)
        x = rng.standard_normal(n)
        g = cert.gradient(x)
        g_fd = fd_gradient(cert.value, x)
        assert np.allclose(g, g_fd, atol=1e-6)
        assert np.allclose(cert.hessian(x), shape + shape.T, atol=1e-12)


def test_clf_requires_positive_definite_shape():
    with pytest.raises(InvalidParameterError):
        QuadraticCertificate.clf(shape=np.diag([1.0, -1.0]), center=np.zeros(2))


def test_shape_must_be_finite_and_symmetric_to_1e_12():
    # A non-finite entry is rejected before the symmetry test, which it
    # would pass (inf - inf is NaN, and NaN > 1e-12 is false); asymmetry is
    # measured entrywise.
    with pytest.raises(InvalidParameterError, match="finite"):
        QuadraticCertificate.barrier(np.diag([np.inf, np.inf]), np.zeros(2))
    with pytest.raises(InvalidParameterError, match="finite"):
        QuadraticCertificate.clf(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(2))
    skewed = np.array([[1.0, 0.5 + 2e-12], [0.5, 1.0]])
    with pytest.raises(InvalidParameterError, match="symmetric"):
        QuadraticCertificate.barrier(skewed, np.zeros(2))
    nearly = np.array([[1.0, 0.5 + 5e-13], [0.5, 1.0]])
    assert QuadraticCertificate.barrier(nearly, np.zeros(2)).shape[0, 1] == 0.5 + 5e-13


def test_clf_vanishes_only_at_center():
    clf = QuadraticCertificate.clf(
        shape=np.diag([1.0, 3.0, 1.0]), center=np.array([0.5, 0.0, -1.0])
    )
    assert clf.value(np.array([0.5, 0.0, -1.0])) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = clf.center + rng.standard_normal(3)
        if np.linalg.norm(x - clf.center) > 1e-8:
            assert clf.value(x) > 0.0


def test_class_kappa_linear_gain():
    gamma = ClassKappa(0.25)
    assert gamma.value(0.0) == 0.0
    assert gamma.value(4.0) == pytest.approx(1.0)
    assert gamma.slope(4.0) == pytest.approx(0.25)
    with pytest.raises(InvalidParameterError):
        ClassKappa(0.0)
    with pytest.raises(InvalidParameterError):
        ClassKappa(-1.0)


def make_set():
    return CertificateSet(
        cbfs=(
            QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([2.0, 0.0]), offset=-1.0
            ),
            QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([0.0, 3.0]), offset=-1.0
            ),
        ),
        alphas=(ClassKappa(1.0), ClassKappa(2.0)),
        clf=QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2)),
        gamma=ClassKappa(1.0),
    )


def test_certificate_set_accessors():
    cs = make_set()
    x = np.array([3.0, 0.0])
    assert cs.clf.value(x) == pytest.approx(4.5)
    assert np.allclose(cs.clf.gradient(x), x)
    assert np.allclose(cs.clf.hessian(), np.eye(2))
    assert cs.gamma.value(4.5) == pytest.approx(4.5)
    assert cs.gamma.gain == pytest.approx(1.0)
    h = cs.barrier_values(x)
    assert h.shape == (2,)
    assert h[0] == pytest.approx(0.0, abs=1e-14)
    assert h[1] == pytest.approx(17.0)
    assert np.allclose(cs.alpha_gains * h, [h[0], 2.0 * h[1]])
    assert np.allclose(cs.alpha_gains, [1.0, 2.0])
    assert np.allclose(cs.alpha_gains[[1]], [2.0])  # CBF 2
    assert np.array_equal(cs.values(x), [cs.clf.value(x), *h])
    assert np.array_equal(cs.row_gains, [1.0, 1.0, 2.0])


def test_stacked_gradients_order_and_subset():
    cs = make_set()
    x = np.array([3.0, 0.0])
    # Table rows follow barrier indexing (1-based certificate ids), row 0 the CLF.
    values, grads = cs._rows_at(x)
    assert grads.shape == (3, 2)
    assert np.array_equal(values, cs.values(x))
    assert np.allclose(grads[0], cs.clf.gradient(x))
    assert np.allclose(grads[1], cs.barrier(1).gradient(x))
    assert np.allclose(grads[2], cs.barrier(2).gradient(x))
    U_2 = grads[[2]].T
    assert U_2.shape == (2, 1)
    assert np.allclose(U_2[:, 0], cs.barrier(2).gradient(x))


def test_certificate_set_requires_matching_alpha_count():
    with pytest.raises(DimensionMismatchError):
        CertificateSet(
            cbfs=(
                QuadraticCertificate.barrier(
                    shape=np.eye(2), center=np.zeros(2), offset=-1.0
                ),
            ),
            alphas=(ClassKappa(1.0), ClassKappa(1.0)),
        )


def test_clf_without_gamma_rejected():
    with pytest.raises(InvalidParameterError):
        CertificateSet(
            cbfs=(
                QuadraticCertificate.barrier(
                    shape=np.eye(2), center=np.zeros(2), offset=-1.0
                ),
            ),
            alphas=(ClassKappa(1.0),),
            clf=QuadraticCertificate.clf(shape=np.eye(2), center=np.zeros(2)),
            gamma=None,
        )


def _random_spd_set(rng, n, n_barriers, with_clf=False):
    cbfs = []
    for _ in range(n_barriers):
        B = rng.standard_normal((n, n))
        cbfs.append(QuadraticCertificate.barrier(
            shape=B @ B.T + 0.3 * np.eye(n), center=3.0 * rng.standard_normal(n),
            offset=-rng.uniform(0.5, 2.0)))
    alphas = tuple(ClassKappa(g) for g in rng.uniform(0.2, 3.0, n_barriers))
    if not with_clf:
        return CertificateSet(cbfs=tuple(cbfs), alphas=alphas)
    B = rng.standard_normal((n, n))
    clf = QuadraticCertificate.clf(B @ B.T + 0.3 * np.eye(n), rng.standard_normal(n))
    return CertificateSet(cbfs=tuple(cbfs), alphas=alphas, clf=clf,
                          gamma=ClassKappa(rng.uniform(0.2, 3.0)))


@pytest.mark.parametrize("n_barriers", range(1, MAX_BARRIERS + 1))
def test_stacked_arrays_match_per_certificate_evaluation(n_barriers):
    # The stacked table must reproduce the one-certificate-at-a-time
    # evaluation, for every index subset order; its row 0 is the CLF bit for
    # bit, and without a CLF exactly the zero substitution V = 0.
    rng = np.random.default_rng([31, n_barriers])
    for trial in range(10):
        n = int(rng.integers(1, 5))
        cs = _random_spd_set(rng, n, n_barriers, with_clf=trial % 2 == 1)
        x = 3.0 * rng.standard_normal(n)
        h_ref = np.array([b.value(x) for b in cs.cbfs])
        U_ref = np.column_stack([b.gradient(x) for b in cs.cbfs])
        alpha_ref = np.array([a.value(v) for a, v in zip(cs.alphas, h_ref)])
        slope_ref = np.array([a.slope(v) for a, v in zip(cs.alphas, h_ref)])
        # h = quadratic form + offset: scale by its terms, not by h itself
        h_scale = np.abs(h_ref - cs.offsets) + np.abs(cs.offsets)
        gains = np.array([a.gain for a in cs.alphas])
        assert np.all(np.abs(cs.barrier_values(x) - h_ref) <= 1e-12 * h_scale)
        assert np.all(np.abs(cs.alpha_gains * cs.barrier_values(x) - alpha_ref)
                      <= 1e-12 * gains * h_scale)
        table_grads = cs._rows_at(x)[1]
        assert np.allclose(table_grads[1:].T, U_ref, rtol=1e-12, atol=0.0)
        assert np.array_equal(cs.alpha_gains, slope_ref)
        idx = list(rng.permutation(n_barriers)[:int(rng.integers(0, n_barriers + 1))] + 1)
        cols = [i - 1 for i in idx]
        assert table_grads[idx].T.shape == (n, len(idx))
        assert np.allclose(table_grads[idx].T, U_ref[:, cols], rtol=1e-12, atol=0.0)
        assert np.all(np.abs(cs.alpha_gains[cols] * cs.barrier_values(x)[cols]
                             - alpha_ref[cols])
                      <= 1e-12 * gains[cols] * h_scale[cols])
        assert np.array_equal(cs.alpha_gains[cols], slope_ref[cols])

        values, grads = _quadrics(cs.row_shapes, cs.row_centers, cs.row_offsets,
                                  x[None])
        if cs.has_clf:
            assert values[0, 0] == cs.clf.value(x)
            assert np.array_equal(grads[0, 0], cs.clf.gradient(x))
            assert cs.row_gains[0] == cs.gamma.gain
        else:
            assert values[0, 0] == 0.0 and not np.signbit(values[0, 0])
            assert np.array_equal(grads[0, 0], np.zeros(n))
            assert cs.row_gains[0] == 0.0
        assert cs.values(x)[0] == values[0, 0]


def test_stacked_arrays_are_read_only():
    cs = make_set()
    assert cs.shapes.shape == (2, 2, 2)
    assert cs.centers.shape == (2, 2)
    assert cs.offsets.shape == (2,)
    assert np.array_equal(cs.alpha_gains, [1.0, 2.0])
    assert cs.row_shapes.shape == (3, 2, 2)
    assert np.array_equal(cs.row_gains, [1.0, 1.0, 2.0])
    for arr in (cs.shapes, cs.centers, cs.offsets, cs.alpha_gains,
                cs.row_shapes, cs.row_centers, cs.row_offsets, cs.row_gains):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the barrier arrays are views of rows 1..N of the table
    assert cs.shapes.base is cs.row_shapes
    assert cs.alpha_gains.base is cs.row_gains


@pytest.mark.parametrize("bad", [[0], [3], [-1], [1, 1], [2, 1, 2]])
def test_bad_or_repeated_indices_rejected(bad):
    problem = ControlProblem(
        model=DynamicsModel.driftless(input_matrix=np.eye(2)),
        certificates=make_set(),
        params=ControllerParams(mode="clf_cbf", p=1.0, cost_metric=np.eye(2),
                                nominal=NominalController.zero(2)))
    x = np.array([3.0, 0.0])
    with pytest.raises(InvalidParameterError, match="CBF index"):
        equilibrium_field_jacobian(problem, x, np.ones(len(bad)), bad)
