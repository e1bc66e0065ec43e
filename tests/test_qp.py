"""Pointwise QP solver, dual assembly, independent-oracle cross checks, and
the dual-image feasibility certificate."""
from dataclasses import FrozenInstanceError, asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from clfcbf import (
    MODES,
    CertificateSet,
    ClassKappa,
    ControlProblem,
    ControllerParams,
    DynamicsModel,
    NominalController,
    QpSolution,
    QuadraticCertificate,
    Tolerances,
    check_feasibility_condition,
    closed_loop_field,
    oracle_solve,
    solve_pointwise,
)
from clfcbf.cli import _sample_safe_states
from clfcbf.errors import DimensionMismatchError, InfeasibleQPError
from clfcbf.qp import _PointData, _schur
from clfcbf.systems import _eval_drift
from oracles import barrier_gradients, deflated_reduced_system, deflation


# --- dual assembly: hand-derived anchors ------------------------------------


def test_dual_assembly_onedim_filter(onedim_filter):
    # x = 1.5: U = grad h = 1, G = 1, safety filter so the CLF block is
    # c = 1/p = 1 and v = 0; F_h = grad h . f_nom + alpha(h) = -1.5 + 0.5.
    d = _PointData(onedim_filter, np.array([1.5]))
    A, b = d.A, d.b
    assert np.allclose(A, np.eye(2), atol=1e-14)
    assert np.allclose(b, [0.0, 1.0], atol=1e-14)


def test_dual_assembly_deadlock_point(deadlock2d):
    # x = (3,0): c = 1/p + gradV^T G gradV = 1 + 9 = 10,
    # v = U^T G gradV = (2,0).(3,0) = 6, U^T G U = 4,
    # F_V = gamma(V) = 4.5, F_h = alpha(h) = 0.
    x = np.array([3.0, 0.0])
    d = _PointData(deadlock2d, x)
    A, b = d.A, d.b
    assert np.allclose(A, [[10.0, -6.0], [-6.0, 4.0]], atol=1e-12)
    assert np.allclose(b, [4.5, 0.0], atol=1e-12)
    assert d.A[0, 0] == pytest.approx(10.0)
    # CLF row eliminated: S = 4 - 6 * 6 / 10, b2 = 0 + 6 * 4.5 / 10
    S, b2 = _schur(d)
    assert np.allclose(S, [[0.4]], atol=1e-14)
    assert np.allclose(b2, [2.7], atol=1e-14)


def test_clf_gradient_deflation_hand_value(deadlock2d):
    # P_V = I - G gradV gradV^T / c at (3,0) with G = I, c = 10.
    P_V = deflation(deadlock2d, np.array([3.0, 0.0]))
    assert np.allclose(P_V, [[0.1, 0.0], [0.0, 1.0]], atol=1e-12)


def test_deflation_annihilates_gram_weighted_gradient(fig1):
    # P_V G gradV scaled by gradV^T reproduces the deflation identity:
    # gradV^T P_V G gradV = gradV^T G gradV * (1 - gradV^T G gradV / c).
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        P_V = deflation(fig1, x)
        grad = fig1.certificates.clf.gradient(x)
        c = _PointData(fig1, x).A[0, 0]
        G = fig1.gram()
        lhs = grad @ P_V @ G @ grad
        q = grad @ G @ grad
        assert lhs == pytest.approx(q * (1.0 - q / c), rel=1e-10, abs=1e-12)


# --- pointwise solves: worked examples --------------------------------------


def test_onedim_filter_solution(onedim_filter):
    # Constraint u >= -0.5 clips u_nom = -1.5 to the boundary.
    sol = solve_pointwise(onedim_filter, np.array([1.5]))
    assert sol.u_star == pytest.approx(-0.5, abs=1e-10)
    assert sol.lam[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.delta_star == pytest.approx(0.0, abs=1e-12)
    assert 1 in sol.active_set


def test_deadlock_equilibrium_point_solution(deadlock2d):
    # At x_e = (3,0) the closed loop vanishes: lambda0 = p gamma(V) = 4.5,
    # lambda_1 = 6.75 from p gamma(V) gradV = lambda gradh.
    sol = solve_pointwise(deadlock2d, np.array([3.0, 0.0]))
    assert np.allclose(sol.u_star, np.zeros(2), atol=1e-10)
    assert sol.lambda0 == pytest.approx(4.5, abs=1e-9)
    assert sol.lam[0] == pytest.approx(6.75, abs=1e-9)
    field = closed_loop_field(deadlock2d, np.array([3.0, 0.0]))
    assert np.linalg.norm(field) <= 1e-8


def test_deadlock_blocked_approach_solution(deadlock2d):
    # At (5,0): CBF row requires u_1 >= -4/3 (grad h = (6,0), alpha(h) = 8);
    # the CLF row is also active, and the KKT system gives u = (-4/3, 0).
    sol = solve_pointwise(deadlock2d, np.array([5.0, 0.0]))
    assert np.allclose(sol.u_star, [-4.0 / 3.0, 0.0], atol=1e-9)
    assert sol.active_set == frozenset({0, 1})
    # the multiplier chain: delta* = lambda0 / p, stationarity in u_1.
    assert sol.delta_star == pytest.approx(sol.lambda0, abs=1e-12)
    assert sol.u_star[0] == pytest.approx(
        -5.0 * sol.lambda0 + 6.0 * sol.lam[0], abs=1e-9
    )


def test_clf_center_is_fixed_point(deadlock2d):
    # At the CLF minimum the nominal objective is already optimal: u* = 0.
    sol = solve_pointwise(deadlock2d, np.zeros(2))
    assert np.allclose(sol.u_star, np.zeros(2), atol=1e-12)
    assert np.allclose(
        closed_loop_field(deadlock2d, np.zeros(2)), np.zeros(2), atol=1e-12
    )


# --- KKT structure on random states -----------------------------------------


def kkt_blocks(problem, x, sol):
    """Recompute the four KKT blocks from scratch (independent of the
    solver's internal residual).  The constraint rows act on the actual
    closed-loop derivative f + g u*, not on the nominal field."""
    certs = problem.certificates
    f = _eval_drift(problem.model, x)
    g = problem.model.input_matrix
    H = problem.params.cost_metric
    u_nom = problem.params.nominal(x)
    p = problem.params.p
    if certs.clf is None:
        grad_V = np.zeros(x.size)
        gamma_V = 0.0
    else:
        grad_V = certs.clf.gradient(x)
        gamma_V = certs.gamma.gain * certs.clf.value(x)
    U = barrier_gradients(problem, x)

    xdot = f + g @ sol.u_star
    stationarity = sol.u_star - (
        u_nom + np.linalg.solve(H, g.T @ (-sol.lambda0 * grad_V + U @ sol.lam))
    )
    slack_stationarity = p * sol.delta_star - sol.lambda0
    clf_row = grad_V @ xdot + gamma_V - sol.delta_star
    cbf_rows = U.T @ xdot + certs.alpha_gains * certs.barrier_values(x)
    return stationarity, slack_stationarity, clf_row, cbf_rows


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d", "dupcbf"])
def test_kkt_blocks_on_random_safe_states(name, request):
    scenario = request.getfixturevalue(f"{name}_scenario")
    problem = scenario.problem()
    states = _sample_safe_states(problem, scenario.search.box, 200, seed=1)
    for x in states:
        sol = solve_pointwise(problem, x)
        stationarity, slack_st, clf_row, cbf_rows = kkt_blocks(problem, x, sol)
        assert np.max(np.abs(stationarity)) <= 1e-7
        assert abs(slack_st) <= 1e-9
        # primal feasibility
        assert clf_row <= 1e-7
        assert np.min(cbf_rows) >= -1e-7
        # dual feasibility and complementary slackness
        assert sol.lambda0 >= -1e-10
        assert np.min(sol.lam) >= -1e-10
        assert abs(sol.lambda0 * clf_row) <= 1e-6
        assert np.max(np.abs(sol.lam * cbf_rows)) <= 1e-6


# --- the dual (A, b) on every mode --------------------------------------------


def _in_mode(problem, mode):
    """``problem`` posed in ``mode``: the CLF dropped for the safety filter,
    or V = |x|^2 added where there is none, and the nominal u = -[I 0] x
    except in clf_cbf mode."""
    certs = problem.certificates
    n, m = problem.n, problem.model.m
    if mode == "safety_filter":
        certs = replace(certs, clf=None, gamma=None)
    elif not certs.has_clf:
        certs = replace(certs, clf=QuadraticCertificate.clf(np.eye(n), np.zeros(n)),
                        gamma=ClassKappa(1.0))
    nominal = (NominalController.zero(m) if mode == "clf_cbf"
               else NominalController.linear_feedback(-np.eye(m, n)))
    return replace(problem, certificates=certs,
                   params=replace(problem.params, mode=mode, nominal=nominal))


def _every_mode(request):
    """(label, problem, box): the four scenarios and the 8-barrier ring, each
    in all three modes."""
    cases = []
    for name in ("deadlock2d", "fig1", "filter2d", "dupcbf"):
        scenario = request.getfixturevalue(f"{name}_scenario")
        cases.append((name, scenario.problem(), scenario.search.box))
    cases.append(("ring8", _ring_of_discs()[0], np.array([[-3.0, 3.0]] * 2)))
    return [(f"{name} {mode}", _in_mode(problem, mode), box)
            for name, problem, box in cases for mode in MODES]


def test_row_values_are_A_l_minus_b(request):
    # For any l >= 0, A l - b are the row values of the control
    # u(l) = u_nom + H^{-1} g^T (-l_0 grad V + U l_1..N) and delta = l_0 / p,
    # rebuilt from f + g u(l) like kkt_blocks does.
    rng = np.random.default_rng(31)
    for label, problem, box in _every_mode(request):
        certs = problem.certificates
        H, g, p = problem.params.cost_metric, problem.model.input_matrix, problem.params.p
        for _ in range(10):
            x = rng.uniform(box[:, 0], box[:, 1])
            l = rng.uniform(0.0, 5.0, size=problem.n_barriers + 1)
            grad_V = certs.clf.gradient(x) if certs.has_clf else np.zeros(problem.n)
            U = barrier_gradients(problem, x)
            u = problem.u_nom(x) + np.linalg.solve(H, g.T @ (-l[0] * grad_V + U @ l[1:]))
            sol = SimpleNamespace(u_star=u, lambda0=l[0], lam=l[1:], delta_star=l[0] / p)
            _, _, clf_row, cbf_rows = kkt_blocks(problem, x, sol)
            d = _PointData(problem, x)
            scale = max(1.0, np.max(np.abs(d.A @ l)), np.max(np.abs(d.b)))
            rows = np.concatenate(([-clf_row], cbf_rows))
            assert np.max(np.abs(d.A @ l - d.b - rows)) <= 1e-12 * scale, label


def test_schur_complements_match_the_deflation_formulas(request):
    # The Schur complement of A on row 0 is U^T P_V G U and its right-hand
    # side U^T (gamma(V) G grad V / c - P_V f_nom) - alpha, over all
    # barriers: the reduced system of the feasibility certificate.
    rng = np.random.default_rng(32)
    for label, problem, box in _every_mode(request):
        all_rows = tuple(range(1, problem.n_barriers + 1))
        for _ in range(5):
            x = rng.uniform(box[:, 0], box[:, 1])
            d = _PointData(problem, x)
            scale = max(1.0, np.max(np.abs(d.A)), np.max(np.abs(d.b)))
            M, b2 = _schur(d)
            M_ref, b2_ref = deflated_reduced_system(problem, x, all_rows)
            assert np.max(np.abs(M - M_ref)) <= 1e-12 * scale, label
            assert np.max(np.abs(b2 - b2_ref)) <= 1e-12 * scale, label


def test_solution_fields_fill_on_first_read(deadlock2d):
    # u* and the KKT audit are computed when first read and then kept, at
    # the solved state even when the caller has since reused its state
    # buffer; the solution stays a frozen dataclass with the same fields in
    # the same order, for the direct solver and for the oracle alike.
    names = ["u_star", "delta_star", "lambda0", "lam", "active_set",
             "kkt_residual", "xdot"]
    assert [f.name for f in fields(QpSolution)] == names
    buffer = np.array([3.2, 0.3])
    for solve in (solve_pointwise, oracle_solve):
        ref = solve(deadlock2d, buffer.copy())
        ref_fields = [ref.u_star.tobytes(), ref.kkt_residual, ref.active_set]
        sol = solve(deadlock2d, buffer)
        buffer[0] = 5.0
        assert "u_star" not in vars(sol) and "kkt_residual" not in vars(sol)
        u, residual = sol.u_star, sol.kkt_residual
        assert [u.tobytes(), residual, sol.active_set] == ref_fields
        assert sol.u_star is u and vars(sol)["kkt_residual"] == residual
        assert residual <= 1e-7 and sol.active_set == frozenset({0, 1})
        assert list(asdict(sol)) == names
        with pytest.raises(FrozenInstanceError):
            sol.u_star = u
        with pytest.raises(AttributeError):
            sol.missing
        buffer[0] = 3.2


def test_a_corrupted_dual_shows_in_the_kkt_residual(deadlock2d, monkeypatch):
    # kkt_residual is measured on the primal rows of f + g u*, so a solve on
    # a b that is off by 1e-3 in an active row cannot pass as a clean one.
    import clfcbf.qp as qp

    x = np.array([3.0, 0.0])
    clean = solve_pointwise(deadlock2d, x)
    assert clean.active_set == frozenset({0, 1})
    assert clean.kkt_residual <= 1e-10

    class CorruptedPointData(qp._PointData):
        __slots__ = ()

        def __init__(self, problem, x):
            super().__init__(problem, x)
            self.b[1] += 1e-3

    monkeypatch.setattr(qp, "_PointData", CorruptedPointData)
    corrupted = solve_pointwise(deadlock2d, x)
    assert corrupted.active_set == clean.active_set
    assert corrupted.kkt_residual >= 1e-3


def test_safety_filter_clf_multiplier_is_positive_zero(filter2d_scenario):
    problem = filter2d_scenario.problem()
    states = _sample_safe_states(problem, filter2d_scenario.search.box, 100, seed=6)
    for x in states:
        for sol in (solve_pointwise(problem, x), oracle_solve(problem, x)):
            assert sol.lambda0 == 0.0 and not np.signbit(sol.lambda0)
            assert sol.delta_star == 0.0 and not np.signbit(sol.delta_star)
            assert 0 in sol.active_set


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d", "dupcbf"])
def test_solver_agrees_with_dual_iteration_oracle(name, request):
    scenario = request.getfixturevalue(f"{name}_scenario")
    problem = scenario.problem()
    states = _sample_safe_states(problem, scenario.search.box, 150, seed=2)
    for x in states:
        sol = solve_pointwise(problem, x)
        direct = oracle_solve(problem, x)
        assert np.max(np.abs(sol.u_star - direct.u_star)) <= 1e-6
        assert direct.kkt_residual <= 1e-7


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d", "dupcbf"])
def test_oracle_evaluates_the_state_once(name, request, assemblies):
    scenario = request.getfixturevalue(f"{name}_scenario")
    problem = scenario.problem()
    x = _sample_safe_states(problem, scenario.search.box, 1, seed=2)[0]
    oracle_solve(problem, x)
    assert assemblies == ["point"]


def test_warm_start_guess_never_changes_solution(fig1):
    # The QP is strictly convex, so any active-set hint must reproduce the
    # exact same optimum (the hint only reorders the candidate search).
    rng = np.random.default_rng(9)
    states = _sample_safe_states(
        fig1, np.array([[-3.0, 3.0], [-3.0, 3.0], [0.0, 6.0]]), 60, seed=3
    )
    guesses = [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1, 2}),
        frozenset({0, 2}),
        frozenset({99}),  # out of range: must be sanitized, not crash
    ]
    for x in states:
        baseline = solve_pointwise(fig1, x)
        guess = guesses[int(rng.integers(len(guesses)))]
        warm = solve_pointwise(fig1, x, first_guess=guess)
        assert np.array_equal(warm.u_star, baseline.u_star) or np.max(
            np.abs(warm.u_star - baseline.u_star)
        ) <= 1e-12
        assert warm.delta_star == pytest.approx(baseline.delta_star, abs=1e-12)
        assert warm.active_set == baseline.active_set


def test_duplicate_barrier_degenerate_active_set(dupcbf):
    # Two copies of the same boundary with different margins: the dual is
    # singular whenever both rows activate, but u* stays unique.
    x = np.array([3.2, 0.3])
    sol = solve_pointwise(dupcbf, x)
    direct = oracle_solve(dupcbf, x)
    assert np.max(np.abs(sol.u_star - direct.u_star)) <= 1e-6
    stationarity, slack_st, clf_row, cbf_rows = kkt_blocks(dupcbf, x, sol)
    assert np.max(np.abs(stationarity)) <= 1e-7
    assert np.min(cbf_rows) >= -1e-8


def _uncontrollable_barrier():
    """Input only drives x_1 while the barrier depends on x_2 alone, and the
    drift pushes h down: L_g h = 0 with dot h < -alpha(h) is infeasible.

    h = x_2^2 - 1, dot h = -2 x_2^2: at x_2 = 1.2, dot h = -2.88 while
    -alpha(h) = -0.44 and u cannot influence h.
    """
    model = DynamicsModel.linear(
        drift_matrix=np.array([[0.0, 0.0], [0.0, -1.0]]),
        input_matrix=np.array([[1.0], [0.0]]),
    )
    certificates = CertificateSet(
        cbfs=(
            QuadraticCertificate.barrier(
                shape=np.array([[0.0, 0.0], [0.0, 1.0]]),
                center=np.zeros(2),
                offset=-1.0,
            ),
        ),
        alphas=(ClassKappa(1.0),),
    )
    params = ControllerParams(
        mode="safety_filter",
        p=1.0,
        cost_metric=np.eye(1),
        nominal=NominalController.zero(1),
    )
    problem = ControlProblem(
        model=model, certificates=certificates, params=params, tolerances=Tolerances()
    )
    return problem, np.array([0.0, 1.2])


def test_infeasible_qp_raises():
    problem, x = _uncontrollable_barrier()
    with pytest.raises(InfeasibleQPError):
        solve_pointwise(problem, x)


def test_infeasible_solve_evaluates_the_state_once(assemblies):
    # The certificate the error carries comes from the solver's own build.
    problem, x = _uncontrollable_barrier()
    with pytest.raises(InfeasibleQPError) as err:
        solve_pointwise(problem, x)
    assert assemblies == ["point"]
    assert err.value.feasibility == check_feasibility_condition(problem, x)
    assert not err.value.feasibility.holds


def test_gain_width_is_checked_at_construction(filter2d):
    # A 2 x 3 gain on a 2-state plant is rejected when the problem is
    # built, not at its first solve; the controller alone still checks
    # the state it is called with.
    nominal = NominalController.linear_feedback(-np.eye(2, 3))
    with pytest.raises(DimensionMismatchError, match="3 columns"):
        replace(filter2d, params=replace(filter2d.params, nominal=nominal))
    with pytest.raises(DimensionMismatchError, match="3 columns"):
        nominal(np.zeros(2))


# --- feasibility certificate -------------------------------------------------


def test_feasibility_certificate_deadlock_anchor(deadlock2d):
    report = check_feasibility_condition(deadlock2d, np.array([3.0, 0.0]))
    assert report.holds
    assert report.rank == 1
    assert report.residual <= 1e-12


def test_feasibility_holds_everywhere_driftless(fig1):
    # Driftless with u_nom = 0 and full-rank G: the certificate must hold on
    # every sampled safe state.
    states = _sample_safe_states(
        fig1, np.array([[-3.0, 3.0], [-3.0, 3.0], [0.0, 6.0]]), 100, seed=4
    )
    for x in states:
        assert check_feasibility_condition(fig1, x).holds


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d", "dupcbf"])
def test_feasibility_certificate_is_sound(name, request):
    # Soundness: whenever the certificate holds the solver must succeed.
    # (The converse is not claimed and not tested.)
    scenario = request.getfixturevalue(f"{name}_scenario")
    problem = scenario.problem()
    states = _sample_safe_states(problem, scenario.search.box, 200, seed=5)
    for x in states:
        report = check_feasibility_condition(problem, x)
        if report.holds:
            solve_pointwise(problem, x)  # must not raise


def test_duplicate_barrier_rank_deficiency_reported(dupcbf):
    # Identical gradients make the reduced dual matrix rank 1 even with two
    # active rows; the certificate reports the numerical rank it used.
    report = check_feasibility_condition(dupcbf, np.array([3.0, 0.0]))
    assert report.rank == 1


# --- the closed-loop field carried by the solution ----------------------------


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d", "dupcbf"])
def test_solution_carries_the_closed_loop_field(name, request, assemblies,
                                                table_evaluations):
    # xdot is assembled from the multipliers; it must equal f + g u*, from
    # the direct solver and from the oracle alike, and closed_loop_field
    # must hand it back unchanged.  Without a solution the field is read
    # off the dual at one build of the state, bit for bit the same.
    scenario = request.getfixturevalue(f"{name}_scenario")
    problem = scenario.problem()
    states = _sample_safe_states(problem, scenario.search.box, 30, seed=4)
    for x in states:
        f = _eval_drift(problem.model, x)
        g = problem.model.input_matrix
        for sol in (solve_pointwise(problem, x), oracle_solve(problem, x)):
            assert sol.xdot.shape == (problem.n,)
            assert np.max(np.abs(sol.xdot - (f + g @ sol.u_star))) <= 1e-8
            assert closed_loop_field(problem, x, solution=sol) is sol.xdot
        assemblies.clear()
        table_evaluations.clear()
        field = closed_loop_field(problem, x)
        assert assemblies == ["point"] and table_evaluations == [1]
        assert field.tobytes() == solve_pointwise(problem, x).xdot.tobytes()


def _ring_of_discs(n_barriers=8):
    """Single integrator, V = |x|^2 / 2, n_barriers discs on a ring of radius 2."""
    angles = 2.0 * np.pi * np.arange(n_barriers) / n_barriers
    centers = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    return ControlProblem(
        model=DynamicsModel.driftless(input_matrix=np.eye(2)),
        certificates=CertificateSet(
            cbfs=tuple(QuadraticCertificate.barrier(
                shape=np.eye(2) / 0.36, center=c, offset=-1.0) for c in centers),
            alphas=tuple(ClassKappa(0.5 + 0.25 * k) for k in range(n_barriers)),
            clf=QuadraticCertificate.clf(shape=0.5 * np.eye(2), center=np.zeros(2)),
            gamma=ClassKappa(1.0),
        ),
        params=ControllerParams(
            mode="clf_cbf", p=2.0, cost_metric=np.eye(2),
            nominal=NominalController.zero(2)),
        tolerances=Tolerances(),
    ), centers


def test_every_first_guess_reproduces_the_cold_solve_at_eight_barriers():
    # All 2^9 candidate active sets as warm-start hints: a hit, a miss, or
    # a hint that is never KKT-consistent must all give the cold solution.
    import itertools

    problem, centers = _ring_of_discs()
    rows = range(problem.n_barriers + 1)
    guesses = [frozenset(c) for r in range(len(rows) + 1)
               for c in itertools.combinations(rows, r)]
    assert len(guesses) == 2 ** 9
    rng = np.random.default_rng(12)
    # behind an obstacle (barrier active), between two (maybe both), and free
    states = [c * (1.0 + 0.65 / 2.0) + 0.02 * rng.standard_normal(2)
              for c in centers[:3]]
    states += [1.3 * (centers[0] + centers[1]), np.array([0.4, -0.3])]
    assert all(problem.certificates.barrier_values(x).min() > 0.0 for x in states)
    colds = [solve_pointwise(problem, x) for x in states]
    assert any(len(s.active_set) > 1 for s in colds)
    assert any(len(s.active_set) == 1 for s in colds)
    for x, cold in zip(states, colds):
        for guess in guesses:
            warm = solve_pointwise(problem, x, first_guess=guess)
            assert warm.active_set == cold.active_set
            assert np.array_equal(warm.u_star, cold.u_star)
            assert warm.lambda0 == cold.lambda0
            assert np.array_equal(warm.lam, cold.lam)
