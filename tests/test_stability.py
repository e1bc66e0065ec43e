"""Closed-loop Jacobian assembly, its factorization, and the classification
of boundary equilibria.

The analytic Jacobians are checked against finite differences of fields
rebuilt in-test from the public evaluation primitives, the worked 2-D
deadlock problem provides exact hand values for every matrix in the
bundle, and the verdicts on all bundled-scenario equilibria are compared
against finite-difference spectra of the actual closed loop.
"""
import itertools

import numpy as np
import pytest

import fig1_tuning
from clfcbf import (
    CertificateSet,
    ClassKappa,
    ControlProblem,
    ControllerParams,
    DynamicsModel,
    NominalController,
    PreconditionError,
    QuadraticCertificate,
    SearchConfig,
    Tolerances,
    classify,
    closed_loop_field,
    closed_loop_jacobian,
    equilibrium_field,
    equilibrium_field_jacobian,
    find_boundary_equilibria,
    spectrum_cross_check,
)
from clfcbf.qp import _PointData
from clfcbf.systems import _finite_difference_jacobian
from conftest import make_twocircles2d
from oracles import (
    barrier_gradients,
    deflation_closed_loop_jacobian,
    frozen_multiplier_jacobian,
    verify_factorization,
)

X_DEADLOCK = np.array([3.0, 0.0])


def dual_block_inverse(problem, x, indices):
    """Closed-form inverse of the reduced dual matrix [[c, -v^T], [-v, M_A]].

    Oracle for the bordered-system algebra: the inverse is expressed
    through the Schur complement S_A as a rank-(r) correction of the
    leading 1/c entry.  Requires S_A invertible.
    """
    A = _PointData(problem, x).A
    rows = list(indices)
    r = len(rows)
    c = A[0, 0]
    v = -A[rows, 0]
    M_A = A[np.ix_(rows, rows)]
    S_A = M_A - np.outer(v, v) / c
    S_inv = np.linalg.inv(S_A)
    border = np.vstack([v[None, :], c * np.eye(r)])
    Ainv = np.zeros((r + 1, r + 1))
    Ainv[0, 0] = 1.0 / c
    return Ainv + (border @ S_inv @ border.T) / (c * c)


def remark_difference_diagnostic(problem, x_e, lam, indices):
    """How the two candidate formulas for J_A - J_fA actually compare.

    At the equilibrium multiplier lambda_0 = p gamma(V) the difference of
    the two Jacobians reduces to a rank-one term; the input-weighted
    candidate p gamma'(V) G grad V grad V^T matches direct differentiation,
    while the unweighted candidate p gamma'(V) grad V grad V^T only agrees
    when G is the identity.  Returns both residuals and the difference so
    the discrepancy stays visible.
    """
    indices = tuple(indices)
    lam = np.asarray(lam, dtype=float)
    certs = problem.certificates
    p = problem.params.p
    gamma_slope = certs.gamma.gain
    lambda0_e = p * (gamma_slope * certs.clf.value(x_e))
    grad_v = certs.clf.gradient(x_e)
    J_A = frozen_multiplier_jacobian(problem, x_e, lambda0_e, lam, indices)
    J_fA = equilibrium_field_jacobian(problem, x_e, lam, indices)
    difference = J_A - J_fA
    with_weight = p * gamma_slope * np.outer(problem.gram() @ grad_v, grad_v)
    without_weight = p * gamma_slope * np.outer(grad_v, grad_v)
    return {
        "difference": difference,
        "with_input_weight_residual": float(np.max(np.abs(difference - with_weight))),
        "without_input_weight_residual": float(
            np.max(np.abs(difference - without_weight))),
    }


def _frozen_field(problem, lambda0, lam, indices):
    """The multiplier-frozen field rebuilt from public evaluation calls."""
    certs = problem.certificates

    def field(x):
        G = problem.gram()
        out = problem.f_nom(x) - lambda0 * (G @ certs.clf.gradient(x))
        for k, i in enumerate(indices):
            out = out + lam[k] * (G @ certs.barrier(i).gradient(x))
        return out

    return field


def _collect_validated(problem, search):
    """Validated boundary equilibria over every active set of tractable size."""
    n = problem.n
    reports = []
    for r in range(1, min(n, problem.n_barriers) + 1):
        for indices in itertools.combinations(range(1, problem.n_barriers + 1), r):
            for rep in find_boundary_equilibria(problem, list(indices), search):
                if rep.validated:
                    reports.append(rep)
    return reports


# -- worked 2-D deadlock values ----------------------------------------------


def test_deadlock_jacobian_bundle_hand_values(deadlock2d):
    """Every matrix in the bundle at (3, 0) has a short closed form."""
    bundle = closed_loop_jacobian(deadlock2d, X_DEADLOCK, [6.75], [1])
    assert np.allclose(bundle.J_A, 9.0 * np.eye(2), atol=1e-12)
    assert np.allclose(bundle.J_fA, np.diag([0.0, 9.0]), atol=1e-12)
    assert np.allclose(bundle.J_fcl, np.diag([-1.0, 9.0]), atol=1e-12)


def test_deadlock_classification_and_cross_check(deadlock2d):
    """(3, 0) is a saddle: attracting along the constraint, repelling along y."""
    verdict = classify(deadlock2d, X_DEADLOCK, [6.75], [1])
    assert verdict.verdict == "unstable"
    assert abs(verdict.mu_max - 9.0) < 1e-10
    assert np.allclose(verdict.witness, [0.0, 1.0], atol=1e-12)
    assert np.allclose(np.sort(verdict.spectrum.real), [-1.0, 9.0], atol=1e-10)
    assert np.allclose(verdict.spectrum.imag, 0.0, atol=1e-12)
    check = spectrum_cross_check(deadlock2d, X_DEADLOCK, [6.75], [1], verdict)
    assert check.agree
    assert abs(np.max(check.eigenvalues.real) - 9.0) < 1e-6


@pytest.mark.parametrize("name, x, lam, indices", [
    ("deadlock2d", X_DEADLOCK, [6.75], [1]),
    ("fig1", np.array([0.0, 1.0, 3.0]), [1.0, 1.0], [1, 2]),
])
def test_classify_evaluates_the_state_once(name, x, lam, indices, request, assemblies,
                                           table_evaluations):
    # One QP-layer build feeds closed_loop_jacobian and the tangent basis;
    # the equilibrium-field Jacobian is the batched evaluator's stack of one.
    classify(request.getfixturevalue(name), x, lam, indices)
    assert assemblies == ["point", "batch"]
    assert table_evaluations == [1, 1]


def test_left_eigenvector_of_closed_loop(deadlock2d):
    """grad h is a left eigenvector of J_fcl with eigenvalue -alpha'(0)."""
    bundle = closed_loop_jacobian(deadlock2d, X_DEADLOCK, [6.75], [1])
    grad_h = deadlock2d.certificates.barrier(1).gradient(X_DEADLOCK)
    assert np.allclose(grad_h @ bundle.J_fcl, -1.0 * grad_h, atol=1e-12)


# -- analytic Jacobians against finite differences ---------------------------


def test_frozen_multiplier_jacobian_matches_fd(deadlock2d, fig1):
    """d/dx of f_nom + G(-lambda0 grad V + U_A lam) at frozen multipliers."""
    rng = np.random.default_rng(7)
    for problem, box in ((deadlock2d, 4.0), (fig1, 2.5)):
        n = problem.n
        for _ in range(20):
            x = rng.uniform(-box, box, size=n)
            lambda0 = float(rng.uniform(0.0, 3.0))
            indices = [1] if n == 2 else [1, 2]
            lam = rng.uniform(0.0, 3.0, size=len(indices))
            J = frozen_multiplier_jacobian(problem, x, lambda0, lam, indices)
            J_fd = _finite_difference_jacobian(
                _frozen_field(problem, lambda0, lam, indices), x)
            scale = max(1.0, float(np.max(np.abs(J))))
            assert np.max(np.abs(J - J_fd)) / scale < 1e-6


def test_bundle_J_A_matches_the_per_certificate_reference(deadlock2d, fig1):
    """The stacked J_A equals the Hessian-by-Hessian sum within 1e-12."""
    rng = np.random.default_rng(12)
    for problem, box in ((deadlock2d, 4.0), (fig1, 2.5)):
        for _ in range(20):
            x = rng.uniform(-box, box, size=problem.n)
            indices = (1,) if problem.n == 2 else (1, 2)
            lam = rng.uniform(0.0, 3.0, size=len(indices))
            bundle = closed_loop_jacobian(problem, x, lam, indices)
            certs = problem.certificates
            lambda0_e = problem.params.p * (certs.gamma.gain * certs.clf.value(x))
            J_ref = frozen_multiplier_jacobian(problem, x, lambda0_e, lam, indices)
            scale = max(1.0, float(np.max(np.abs(J_ref))))
            assert np.max(np.abs(bundle.J_A - J_ref)) <= 1e-12 * scale


def test_equilibrium_field_jacobian_matches_fd(deadlock2d, fig1):
    """d/dx of the equilibrium field, with its state-dependent CLF multiplier."""
    rng = np.random.default_rng(8)
    for problem, box in ((deadlock2d, 4.0), (fig1, 2.5)):
        n = problem.n
        for _ in range(20):
            x = rng.uniform(-box, box, size=n)
            indices = [1] if n == 2 else [1, 2]
            lam = rng.uniform(0.0, 3.0, size=len(indices))
            J = equilibrium_field_jacobian(problem, x, lam, indices)
            J_fd = _finite_difference_jacobian(
                lambda y: equilibrium_field(problem, y, lam, indices), x)
            scale = max(1.0, float(np.max(np.abs(J))))
            assert np.max(np.abs(J - J_fd)) / scale < 1e-6


def test_jacobian_difference_is_rank_one(deadlock2d, fig1):
    """J_A - J_fA at the equilibrium multiplier is p gamma'(V) G grad V grad V^T.

    The input-weighted candidate matches direct differentiation to
    rounding; dropping the weight G only survives when G is the identity.
    """
    diag = remark_difference_diagnostic(deadlock2d, X_DEADLOCK, [6.75], [1])
    assert diag["with_input_weight_residual"] < 1e-10
    assert diag["without_input_weight_residual"] < 1e-10  # G = I here

    x_far = np.array([-2.2629572862, 0.0, 3.2249830252])
    diag = remark_difference_diagnostic(fig1, x_far, [13.9056450957], [1])
    assert diag["with_input_weight_residual"] < 1e-8
    assert diag["without_input_weight_residual"] > 0.1  # G != I is visible

    certs = fig1.certificates
    grad_v = certs.clf.gradient(x_far)
    slope = certs.gamma.gain
    expected = fig1.params.p * slope * np.outer(fig1.gram() @ grad_v, grad_v)
    assert np.allclose(diag["difference"], expected, atol=1e-8)


# -- bordered dual inverse ----------------------------------------------------


def test_dual_block_inverse_hand_value(deadlock2d):
    """At (3, 0): [[10, -6], [-6, 4]]^{-1} = [[1, 1.5], [1.5, 2.5]]."""
    inv = dual_block_inverse(deadlock2d, X_DEADLOCK, [1])
    assert np.allclose(inv, np.array([[1.0, 1.5], [1.5, 2.5]]), atol=1e-12)


def test_dual_block_inverse_random_states(fig1):
    """The closed-form inverse matches the assembled dual block on subsets."""
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.uniform(-2.5, 2.5, size=3)
        A = _PointData(fig1, x).A
        for indices in ([1], [2], [1, 2]):
            sel = [0] + list(indices)
            A_sub = A[np.ix_(sel, sel)]
            inv = dual_block_inverse(fig1, x, indices)
            assert np.max(np.abs(A_sub @ inv - np.eye(len(sel)))) < 1e-8


# -- congruence factorization -------------------------------------------------


def test_factorization_residual_deadlock(deadlock2d):
    residual = verify_factorization(deadlock2d, X_DEADLOCK, [6.75], [1])
    assert residual is not None and residual < 1e-12


def test_factorization_not_applicable():
    """Zero CLF gradient or a singular Gram matrix disable the congruence."""
    filter_like = ControlProblem(
        model=DynamicsModel.driftless(input_matrix=np.eye(2)),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([2.0, 0.0]), offset=-1.0),),
            alphas=(ClassKappa(1.0),),
        ),
        params=ControllerParams(
            mode="safety_filter", p=1.0, cost_metric=np.eye(2),
            nominal=NominalController.linear_feedback(-np.eye(2))),
        tolerances=Tolerances(),
    )
    assert verify_factorization(filter_like, X_DEADLOCK, [1.5], [1]) is None

    singular_gram = ControlProblem(
        model=DynamicsModel.driftless(
            input_matrix=np.array([[1.0, 0.0], [0.0, 0.0]])),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([2.0, 0.0]), offset=-1.0),),
            alphas=(ClassKappa(1.0),),
            clf=QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2)),
            gamma=ClassKappa(1.0)),
        params=ControllerParams(
            mode="clf_cbf", p=1.0, cost_metric=np.eye(2),
            nominal=NominalController.zero(2)),
        tolerances=Tolerances(),
    )
    assert verify_factorization(singular_gram, X_DEADLOCK, [1.0], [1]) is None


# -- invariants at every bundled equilibrium ----------------------------------


def test_bundled_equilibria_jacobian_invariants(
        fig1_scenario, deadlock2d_scenario, filter2d_scenario):
    """At every validated equilibrium of every bundled scenario:
    the analytic closed-loop Jacobian matches a finite difference of the
    actual closed loop, the active gradients are left eigenvectors with
    eigenvalues -alpha', and the congruence factorization holds whenever
    it applies.
    """
    total = 0
    for scn in (fig1_scenario, deadlock2d_scenario, filter2d_scenario):
        problem = scn.problem()
        for rep in _collect_validated(problem, scn.search):
            total += 1
            indices = list(rep.indices)
            bundle = closed_loop_jacobian(problem, rep.x_e, rep.lambda_e, indices)
            J_fd = _finite_difference_jacobian(
                lambda y: closed_loop_field(problem, y), rep.x_e)
            scale = max(1.0, float(np.max(np.abs(bundle.J_fcl))))
            assert np.max(np.abs(bundle.J_fcl - J_fd)) / scale < 1e-5, scn.name

            U_A = barrier_gradients(problem, rep.x_e, indices)
            lam_prime = problem.certificates.alpha_gains[[i - 1 for i in indices]]
            left = U_A.T @ bundle.J_fcl + np.diag(lam_prime) @ U_A.T
            assert np.max(np.abs(left)) / scale < 1e-6, scn.name

            residual = verify_factorization(problem, rep.x_e, rep.lambda_e, indices)
            if residual is not None:
                assert residual < 1e-8, scn.name
    # fig1 has five, deadlock2d one, filter2d one per obstacle.
    assert total == 8


def test_dual_solve_matches_the_deflation_assembly(
        fig1_scenario, deadlock2d_scenario, filter2d_scenario, dupcbf_scenario):
    """J_fcl from one solve on the dual block A_RR equals the deflation
    assembly (P_V, S_A and P_UA from the certificates' own methods) within
    1e-12 relative at every validated equilibrium: the bundled scenarios,
    the duplicated barrier, the r = n corners of two circles, and the
    pinned and seeded members of the fig1 family."""
    cases = [(scn.problem(), scn.search) for scn in (
        fig1_scenario, deadlock2d_scenario, filter2d_scenario, dupcbf_scenario)]
    cases.append((make_twocircles2d(), SearchConfig(
        box=np.array([[-3.0, 3.0], [-3.0, 3.0]]),
        boundary_seeds=32, interior_seeds=8, seed=0)))
    cases.append((fig1_tuning.build_problem((0.5, 2.0, 0.5)), fig1_tuning.SEARCH))
    rng = np.random.default_rng(2026)
    for _ in range(12):
        clf_diag = tuple(rng.uniform(0.3, 4.0, size=3))
        cases.append((fig1_tuning.build_problem(clf_diag, rng.uniform(0.1, 1.0)),
                      fig1_tuning.SEARCH))
    worst, total, corners = 0.0, 0, 0
    for problem, search in cases:
        for rep in _collect_validated(problem, search):
            total += 1
            corners += len(rep.indices) == problem.n
            J = closed_loop_jacobian(problem, rep.x_e, rep.lambda_e, rep.indices).J_fcl
            J_ref = deflation_closed_loop_jacobian(
                problem, rep.x_e, rep.lambda_e, rep.indices)
            diff = float(np.max(np.abs(J - J_ref))) / max(1.0, float(np.max(np.abs(J_ref))))
            assert diff <= 1e-12, (rep.x_e, rep.indices, diff)
            worst = max(worst, diff)
    assert total >= 30 and corners == 2, (total, corners)
    print(f"{total} equilibria, largest relative difference {worst:.1e}")


def test_bundled_equilibria_verdicts(
        fig1_scenario, deadlock2d_scenario, filter2d_scenario):
    """Frozen verdicts, and spectrum agreement on every non-marginal one."""
    expected_fig1 = [
        ((-2.2629572862, 0.0, 3.2249830252), "unstable", 4.529053403),
        ((2.2629572862, 0.0, 3.2249830252), "unstable", 397.4846776),
        ((0.0, -0.44997704257, 36.0 / 11.0), "unstable", 45.25593472),
        ((0.0, 0.44997704257, 36.0 / 11.0), "unstable", 45.25593472),
        ((0.0, 0.0, 3.3535533905932737), "stable", -3.5351664049),
    ]
    seen = []
    for scn in (fig1_scenario, deadlock2d_scenario, filter2d_scenario):
        problem = scn.problem()
        for rep in _collect_validated(problem, scn.search):
            verdict = classify(problem, rep.x_e, rep.lambda_e, list(rep.indices))
            assert verdict.verdict != "marginal", scn.name
            assert (verdict.witness is not None) == (verdict.verdict == "unstable")
            if verdict.witness is not None:
                assert abs(np.linalg.norm(verdict.witness) - 1.0) < 1e-12
            check = spectrum_cross_check(
                problem, rep.x_e, rep.lambda_e, list(rep.indices), verdict)
            assert check.agree, (scn.name, rep.x_e, verdict.verdict)
            seen.append((scn.name, rep.x_e, verdict))

    fig1_verdicts = [(x, v) for name, x, v in seen if name == "fig1"]
    assert len(fig1_verdicts) == len(expected_fig1)
    for x_exp, word, mu in expected_fig1:
        match = min(fig1_verdicts, key=lambda t: np.linalg.norm(t[0] - x_exp))
        assert np.linalg.norm(match[0] - x_exp) < 1e-6
        assert match[1].verdict == word
        assert abs(match[1].mu_max - mu) < 1e-5 * max(1.0, abs(mu))

    deadlock_verdicts = [v for name, _, v in seen if name == "deadlock2d"]
    assert len(deadlock_verdicts) == 1
    assert deadlock_verdicts[0].verdict == "unstable"
    assert abs(deadlock_verdicts[0].mu_max - 9.0) < 1e-8

    # one repelling far-side saddle per disjoint obstacle
    filter_verdicts = sorted(
        (v for name, _, v in seen if name == "filter2d"), key=lambda v: v.mu_max)
    assert [v.verdict for v in filter_verdicts] == ["unstable", "unstable"]
    assert np.allclose([v.mu_max for v in filter_verdicts], [2.0, 3.0], atol=1e-8)


def test_fig1_unstable_pole_witness(fig1):
    """The repelling direction at the near pole is the decoupled y axis."""
    x_far = np.array([-2.2629572862, 0.0, 3.2249830252])
    verdict = classify(fig1, x_far, [13.9056450957], [1])
    assert verdict.verdict == "unstable"
    assert np.allclose(verdict.witness, [0.0, 1.0, 0.0], atol=1e-9)
    assert abs(verdict.mu_max - 4.529053403) < 1e-8


# -- corner case: active set spans the whole state space ----------------------


def test_corner_equilibria_are_vacuously_stable(twocircles2d):
    """With r = n there is no tangent space; all directions attract with
    rates -alpha'_i, so the spectrum is exactly {-1, -2} here."""
    config = SearchConfig(
        box=np.array([[-3.0, 3.0], [-3.0, 3.0]]),
        boundary_seeds=32, interior_seeds=8, seed=0)
    reports = [r for r in find_boundary_equilibria(twocircles2d, [1, 2], config)
               if r.validated]
    assert len(reports) == 2
    for rep in sorted(reports, key=lambda r: r.x_e[1]):
        assert abs(abs(rep.x_e[1]) - 1.0) < 1e-9
        assert np.allclose(rep.lambda_e, [0.25, 0.25], atol=1e-9)
        verdict = classify(twocircles2d, rep.x_e, rep.lambda_e, [1, 2])
        assert verdict.verdict == "stable"
        assert verdict.mu_max == -np.inf
        assert verdict.witness is None
        assert np.allclose(np.sort(verdict.spectrum.real), [-2.0, -1.0], atol=1e-9)
        check = spectrum_cross_check(
            twocircles2d, rep.x_e, rep.lambda_e, [1, 2], verdict)
        assert check.agree


# -- duplicated barrier: the closed loop is only piecewise smooth -------------


def test_duplicate_barrier_equilibrium_is_one_sided(dupcbf, dupcbf_scenario):
    """Registering one circle twice with different alpha gains leaves the
    closed loop continuous but kinked across the shared boundary: the
    gain-1 row binds outside, the gain-2 row inside.  The analytic
    Jacobian built on either single row is one-sided there, so a central
    finite difference straddling the kink averages the two attraction
    rates.  The verdict itself is robust: the repelling tangent direction
    is identical on both sides."""
    reports = [r for r in find_boundary_equilibria(
        dupcbf, [1], dupcbf_scenario.search) if r.validated]
    assert len(reports) == 1
    x_e, lam = reports[0].x_e, reports[0].lambda_e
    assert np.allclose(x_e, [3.0, 0.0], atol=1e-9)

    outside = closed_loop_jacobian(dupcbf, x_e, lam, [1])
    inside = closed_loop_jacobian(dupcbf, x_e, lam, [2])
    assert np.allclose(outside.J_fcl, np.diag([-1.0, 9.0]), atol=1e-9)
    assert np.allclose(inside.J_fcl, np.diag([-2.0, 9.0]), atol=1e-9)
    J_fd = _finite_difference_jacobian(
        lambda y: closed_loop_field(dupcbf, y), x_e)
    assert abs(J_fd[0, 0] - (-1.5)) < 1e-5  # mean of the one-sided rates
    assert abs(J_fd[1, 1] - 9.0) < 1e-5

    for indices in ([1], [2]):
        verdict = classify(dupcbf, x_e, lam, indices)
        assert verdict.verdict == "unstable"
        assert abs(verdict.mu_max - 9.0) < 1e-9
        check = spectrum_cross_check(dupcbf, x_e, lam, indices, verdict)
        assert check.agree


# -- marginal band and its guard ----------------------------------------------


def test_marginal_equilibrium_makes_no_claim():
    """An obstacle tuned so the tangent curvature cancels exactly lands in
    the guard band, and the spectrum cross-check refuses the verdict."""
    x_r = 2.0 + 1.0 / np.sqrt(3.0)
    s_y = 3.0 / (2.0 * np.sqrt(3.0) + 1.0)  # zeroes the tangent curvature
    lam = x_r ** 3 / (4.0 * np.sqrt(3.0))
    problem = ControlProblem(
        model=DynamicsModel.driftless(input_matrix=np.eye(2)),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.diag([3.0, s_y]), center=np.array([2.0, 0.0]),
                offset=-1.0),),
            alphas=(ClassKappa(1.0),),
            clf=QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2)),
            gamma=ClassKappa(1.0)),
        params=ControllerParams(
            mode="clf_cbf", p=1.0, cost_metric=np.eye(2),
            nominal=NominalController.zero(2)),
        tolerances=Tolerances(),
    )
    x_e = np.array([x_r, 0.0])
    assert np.max(np.abs(equilibrium_field(problem, x_e, [lam], [1]))) < 1e-12
    verdict = classify(problem, x_e, [lam], [1])
    assert verdict.verdict == "marginal"
    assert abs(verdict.mu_max) < 1e-12
    with pytest.raises(PreconditionError):
        spectrum_cross_check(problem, x_e, [lam], [1], verdict)


# -- the tangent test is sufficient, not necessary ----------------------------


def test_stable_verdict_is_corroborated_not_proven():
    """A negative tangent statistic alone can coexist with a growing mode
    of the true closed loop when the input weighting is very anisotropic;
    the cross-check is what catches it, and it must report the clash
    rather than smooth it over."""
    problem = fig1_tuning.build_problem((0.5, 2.0, 0.5))
    reports = [r for r in find_boundary_equilibria(
        problem, [1], fig1_tuning.SEARCH)
        if r.validated and r.x_e[0] < -2.0 and abs(r.x_e[1]) < 1e-8]
    assert len(reports) == 1
    rep = reports[0]
    verdict = classify(problem, rep.x_e, rep.lambda_e, [1])
    assert verdict.verdict == "stable"
    assert verdict.mu_max < -0.5
    assert np.max(verdict.spectrum.real) > 1.0  # the analytic spectrum knows
    check = spectrum_cross_check(problem, rep.x_e, rep.lambda_e, [1], verdict)
    assert not check.agree
    assert np.max(check.eigenvalues.real) > 1.0


# -- preconditions ------------------------------------------------------------


def test_precondition_errors(deadlock2d, dupcbf):
    with pytest.raises(PreconditionError, match="nonempty"):
        closed_loop_jacobian(deadlock2d, X_DEADLOCK, [], [])
    with pytest.raises(PreconditionError, match="dependent"):
        closed_loop_jacobian(dupcbf, X_DEADLOCK, [3.375, 3.375], [1, 2])

    no_authority = ControlProblem(
        model=DynamicsModel.linear(
            drift_matrix=np.array([[0.0, 0.0], [0.0, -1.0]]),
            input_matrix=np.array([[1.0], [0.0]])),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.array([[0.0, 0.0], [0.0, 1.0]]), center=np.zeros(2),
                offset=-1.0),),
            alphas=(ClassKappa(1.0),),
        ),
        params=ControllerParams(
            mode="safety_filter", p=1.0, cost_metric=np.eye(1),
            nominal=NominalController.zero(1)),
        tolerances=Tolerances(),
    )
    with pytest.raises(PreconditionError, match="authority"):
        closed_loop_jacobian(no_authority, np.array([0.0, 1.0]), [1.0], [1])

    nearly_dup = ControlProblem(
        model=DynamicsModel.driftless(input_matrix=np.eye(2)),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([2.0, 0.0]), offset=-1.0),
                QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([2.0, 1e-7]), offset=-1.0)),
            alphas=(ClassKappa(1.0), ClassKappa(1.0)),
            clf=QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2)),
            gamma=ClassKappa(1.0)),
        params=ControllerParams(
            mode="clf_cbf", p=1.0, cost_metric=np.eye(2),
            nominal=NominalController.zero(2)),
        tolerances=Tolerances(),
    )
    with pytest.raises(PreconditionError, match="numerically singular"):
        closed_loop_jacobian(nearly_dup, X_DEADLOCK, [3.0, 3.75], [1, 2])


# -- CLF tuning reproduces the stability flip ---------------------------------


def test_clf_shape_sweep_reproduces_verdict_flip():
    """Sweeping the CLF y curvature flips the top intersection equilibrium
    from unstable to stable exactly at the analytic boundary ratio, which
    the bundled 3-D scenario clears with margin."""
    z = 3.0 + np.sqrt(1.0 / 8.0)
    V = z ** 2
    gamma = 0.25 * V
    lam_top = gamma * z / (8.0 * (z - 3.0))
    ratio = fig1_tuning.verdict_boundary_ratio()
    assert abs(ratio - 2.0 * lam_top / gamma) < 1e-12  # mu = 0 at the ratio
    assert abs(ratio - 2.3713203436) < 1e-9
    assert 3.0 > ratio  # the bundled CLF diag (1, 3, 1) sits on the stable side

    rows = fig1_tuning.sweep_clf_y_curvature([1.0, 2.0, 2.5, 3.0])
    verdicts = [word for _, word, _ in rows]
    assert verdicts == ["unstable", "unstable", "stable", "stable"]
    mus = [mu for _, _, mu in rows]
    assert all(a > b for a, b in zip(mus, mus[1:]))
    for q_y, _, mu in rows:
        predicted = 4.0 * lam_top - 2.0 * gamma * q_y
        assert abs(mu - predicted) < 1e-6
    assert abs(mus[-1] - (-3.5351664049)) < 1e-8
