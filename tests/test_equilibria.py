"""Boundary/interior equilibrium location: hand anchors, a dense grid-scan
oracle over the boundary curves, and the validation semantics."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

import clfcbf.equilibria as equilibria
import clfcbf.stability as stability
import fig1_tuning
from clfcbf import (
    MODES,
    CertificateSet,
    ClassKappa,
    ControllerParams,
    ControlProblem,
    DynamicsModel,
    EquilibriumReport,
    InvalidParameterError,
    NominalController,
    PreconditionError,
    QuadraticCertificate,
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
from oracles import (
    barrier_gradients,
    multistart_boundary_equilibria,
    multistart_interior_equilibria,
    newton,
    public_system,
)

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
        G = problem.gram()
        certs = problem.certificates
        target = (
            problem.params.p
            * certs.gamma.gain * certs.clf.value(x)
            * (G @ certs.clf.gradient(x))
        )
        U = barrier_gradients(problem, x, indices)
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
            lhs = fig1.params.p * certs.gamma.gain * certs.clf.value(
                rep.x_e
            ) * certs.clf.gradient(rep.x_e)
            rhs = barrier_gradients(fig1, rep.x_e, rep.indices) @ rep.lambda_e
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


def _spd(rng, n, lo, hi):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    S = Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T
    return 0.5 * (S + S.T)


def random_interior_problem(rng, n, mode, drift, centred):
    """m = n plant, zero or linear drift, two obstacles 2.5-3.5 from the
    origin, and a CLF centred at the origin or up to 1 away from it."""
    while True:
        g = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        if np.linalg.cond(g) < 4.0:
            break
    model = (DynamicsModel.linear(0.8 * rng.normal(size=(n, n)), g) if drift
             else DynamicsModel.driftless(g))
    nominal = (NominalController.zero(n) if mode == "clf_cbf"
               else NominalController.linear_feedback(0.8 * rng.normal(size=(n, n))))
    cbfs = []
    for _ in range(2):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        cbfs.append(QuadraticCertificate.barrier(
            _spd(rng, n, 0.5, 1.5), rng.uniform(2.5, 3.5) * direction, -1.0))
    clf = gamma = None
    if mode != "safety_filter":
        center = np.zeros(n) if centred else rng.uniform(-1.0, 1.0, n)
        clf = QuadraticCertificate.clf(_spd(rng, n, 0.3, 1.0), center)
        gamma = ClassKappa(rng.uniform(0.5, 2.0))
    certificates = CertificateSet(cbfs=tuple(cbfs),
                                  alphas=(ClassKappa(1.0), ClassKappa(1.5)),
                                  clf=clf, gamma=gamma)
    params = ControllerParams(mode=mode, p=rng.uniform(0.5, 2.0),
                              cost_metric=_spd(rng, n, 0.5, 2.0), nominal=nominal)
    return ControlProblem(model=model, certificates=certificates, params=params)


def interior_sweep(seed, reps=2):
    """Seeded problems over n, mode, drift and CLF centre (safety-filter
    problems have no CLF, so no centre variants)."""
    rng = np.random.default_rng(seed)
    for n, mode, drift, centred, _ in itertools.product(
            (2, 3, 4), MODES, (False, True), (True, False), range(reps)):
        if mode == "safety_filter" and not centred:
            continue
        yield random_interior_problem(rng, n, mode, drift, centred)


def test_interior_enumeration_contains_every_multistart_root():
    # The reference is the rejection-sampled multistart Newton search the
    # enumeration replaced: every root it finds in its box is enumerated.
    reference_roots = off_centre = 0
    for problem in interior_sweep(2024):
        box = np.array([[-4.0, 4.0]] * problem.n)
        config = SearchConfig(box=box, interior_seeds=32, seed=7)
        reports = find_interior_equilibria(problem, config)
        assert all(rep.validated and rep.residual_field <= 1e-10 for rep in reports)
        found = [rep.x_e for rep in reports]
        for x in multistart_interior_equilibria(problem, config):
            if np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
                continue
            reference_roots += 1
            if problem.certificates.has_clf:
                off_centre += np.linalg.norm(x - problem.certificates.clf.center) > 1e-3
            assert any(np.linalg.norm(x - y) <= 1e-6 for y in found), (x, found)
    # the sweep exercises roots away from the CLF centre, not just the centre
    assert reference_roots >= 80 and off_centre >= 30


def _assert_same_reports(first, other):
    """Equal report lists, every field bit for bit."""
    assert len(other) == len(first)
    for a, b in zip(first, other):
        for name in a.__dataclass_fields__:
            va, vb = getattr(a, name), getattr(b, name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), name
            else:
                assert va == vb, name


def test_interior_reports_ignore_seed_count_seed_and_box(fig1, filter2d):
    # The enumeration draws no seeds: interior_seeds, seed and box are
    # accepted for schema 1 and change nothing, bit for bit.
    problems = [fig1, filter2d] + [p for p in interior_sweep(5, reps=1)
                                   if p.params.mode == "generalized"]
    for problem in problems:
        n = problem.n
        configs = [SearchConfig(box=[[-4.0, 4.0]] * n, interior_seeds=32, seed=0),
                   SearchConfig(box=[[-0.5, 9.0]] * n, interior_seeds=1, seed=91),
                   SearchConfig(box=[[-40.0, 1.0]] * n, interior_seeds=0, seed=3)]
        first, *rest = [find_interior_equilibria(problem, c) for c in configs]
        for other in rest:
            _assert_same_reports(first, other)


def _small_problem(A, g, Q=None, center=None, mode="clf_cbf"):
    """u_nom = 0, drift A (None: zero), V = (x - center)^T Q (x - center)
    (Q None: no CLF; center None: the origin), one far obstacle, p = 1."""
    g = np.asarray(g, dtype=float)
    n, m = g.shape
    model = DynamicsModel.driftless(g) if A is None else DynamicsModel.linear(A, g)
    clf = gamma = None
    if Q is not None:
        center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        clf, gamma = QuadraticCertificate.clf(Q, center), ClassKappa(1.0)
    certificates = CertificateSet(
        cbfs=(QuadraticCertificate.barrier(np.eye(n), np.full(n, 5.0), -1.0),),
        alphas=(ClassKappa(1.0),), clf=clf, gamma=gamma)
    params = ControllerParams(mode=mode, p=1.0, cost_metric=np.eye(m),
                              nominal=NominalController.zero(m))
    return ControlProblem(model=model, certificates=certificates, params=params)


@pytest.mark.parametrize("problem, message", [
    # zero drift, one input in the plane: the field never leaves range(g)
    (_small_problem(None, [[1.0], [0.0]], np.eye(2)), "rank of [F | B] is 1"),
    # safety filter with f_nom = 0: every safe state is an equilibrium
    (_small_problem(None, np.eye(2), mode="safety_filter"), "rank of [F | B] is 0"),
    # F - tau B has the null vector e_2 for every tau: the line x_1 = 0
    (_small_problem(np.diag([1.0, 0.0]), [[1.0], [-1.0]], [[2.0, 1.0], [1.0, 1.0]]),
     "pencil is singular"),
    # F = I, B = I / 2: the whole circle beta |x|^2 / 2 = 2 is equilibria
    (_small_problem(np.eye(2), np.eye(2), 0.5 * np.eye(2)), "dimension 2 at tau = 2"),
])
def test_non_isolated_interior_equilibria_are_rejected(problem, message):
    config = SearchConfig(box=[[-4.0, 4.0]] * 2)
    with pytest.raises(PreconditionError, match="not isolated") as err:
        find_interior_equilibria(problem, config)
    assert message in str(err.value)


def test_double_null_space_without_solutions_is_no_continuum():
    # F = diag(1, 1, 2), B = I: F - tau B has the null space span(e1, e2)
    # at tau = 1, but F c_V = (1, -1, 0) is not in its range, so no root
    # has tau = 1.  The isolated root (s, -s, 0) with s = 4 (s - 1)^3 is
    # still enumerated.
    problem = _small_problem(np.diag([1.0, 1.0, 2.0]), np.eye(3), np.eye(3),
                             center=[1.0, -1.0, 0.0])
    reports = find_interior_equilibria(problem, SearchConfig(box=[[-4.0, 4.0]] * 3))
    assert reports and all(rep.validated for rep in reports)
    s = next(rep.x_e[0] for rep in reports
             if abs(rep.x_e[0] + rep.x_e[1]) < 1e-9 and abs(rep.x_e[2]) < 1e-9)
    assert s == pytest.approx(4.0 * (s - 1.0) ** 3, abs=1e-9)


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


def test_validation_evaluates_the_state_once(deadlock2d, assemblies, table_evaluations):
    # The barrier values come off the validating solve's own table evaluation.
    rep = EquilibriumReport(
        x_e=np.array([3.0, 0.0]), kind="boundary", indices=(1,),
        lambda_e=np.array([6.75]), lambda0_e=4.5, residual_field=0.0,
        residual_boundary=0.0)
    assert validate_equilibrium(deadlock2d, rep).validated
    assert assemblies == ["point"]
    assert table_evaluations == [1]


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


# --- one-barrier enumeration -----------------------------------------------------


def random_one_barrier_problem(rng, n, N, mode):
    """A problem the one-barrier enumeration covers: f_nom = 0 in the CLF
    modes (``generalized`` with a zero gain) and f_nom = -P x with P SPD
    without a CLF; random SPD CLF shape, cost metric and obstacle shapes,
    a random nonsingular input map, and N obstacles 1.5-3.5 from the
    origin with offsets in [-1.5, -0.5]."""
    while True:
        g = rng.normal(size=(n, n))
        if np.linalg.cond(g) < 10.0:
            break
    model = (DynamicsModel.linear(-_spd(rng, n, 0.3, 2.0), g) if mode == "safety_filter"
             else DynamicsModel.driftless(g))
    cbfs = []
    for _ in range(N):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        cbfs.append(QuadraticCertificate.barrier(
            _spd(rng, n, 0.3, 3.0), rng.uniform(1.5, 3.5) * direction,
            -rng.uniform(0.5, 1.5)))
    clf = gamma = None
    if mode != "safety_filter":
        clf = QuadraticCertificate.clf(_spd(rng, n, 0.2, 3.0), rng.uniform(-1.0, 1.0, n))
        gamma = ClassKappa(rng.uniform(0.25, 2.0))
    certificates = CertificateSet(
        cbfs=tuple(cbfs), alphas=tuple(ClassKappa(rng.uniform(0.5, 2.0)) for _ in cbfs),
        clf=clf, gamma=gamma)
    params = ControllerParams(mode=mode, p=rng.uniform(0.5, 2.0),
                              cost_metric=_spd(rng, n, 0.5, 2.0),
                              nominal=NominalController.zero(n))
    return ControlProblem(model=model, certificates=certificates, params=params)


def test_one_barrier_enumeration_contains_every_multistart_root():
    # The reference is the 64-seed multistart the enumeration replaced:
    # every validated root it finds is an enumerated Newton start, and is
    # reported validated unless that start already sits at the rounding
    # floor of the field.  There, Newton's absolute residual test (1e-12)
    # needs a rounding draw below the floor, which some of the multistart's
    # many paths into the same root happen to get and one start does not.
    rng = np.random.default_rng(2025)
    eps = np.finfo(float).eps
    reference_roots = extra = at_floor = 0
    for n, N, mode, _ in itertools.product((2, 3, 4), (1, 2, 3), MODES, range(3)):
        problem = random_one_barrier_problem(rng, n, N, mode)
        config = SearchConfig(box=[[-4.0, 4.0]] * n, boundary_seeds=64, seed=n + N)
        for i in range(1, N + 1):
            starts = equilibria._boundary_candidates(problem, i)
            found = [rep.x_e for rep in find_boundary_equilibria(problem, (i,), config)
                     if rep.validated]
            reference = [rep for rep in multistart_boundary_equilibria(problem, (i,), config)
                         if rep.validated]
            for rep in reference:
                reference_roots += 1
                assert np.min(np.linalg.norm(starts - rep.x_e, axis=1)) <= 1e-6
                if any(np.linalg.norm(rep.x_e - x) <= 1e-6 for x in found):
                    continue
                at_floor += 1
                start = starts[np.argmin(np.linalg.norm(starts - rep.x_e, axis=1))]
                system = stability._EquilibriumSystem(problem, (i,))
                F, J = system(np.append(start, 0.0)[None])
                lam = equilibria._nnls(J[0, :n, n:], -F[0, :n])
                F, J = system(np.append(start, lam)[None])
                term = float(np.max(np.abs(J[0, :n, n:] @ lam)))
                assert float(np.max(np.abs(F))) <= 8.0 * eps * term, (rep.x_e, lam)
            extra += sum(not any(np.linalg.norm(rep.x_e - x) <= 1e-6 for rep in reference)
                         for x in found)
    # 156 reference roots over the three modes; the enumeration reports 23
    # validated roots the multistart misses, and leaves 1 at the floor
    assert reference_roots >= 140 and extra >= 15, (reference_roots, extra, at_floor)


def test_enumeration_finds_the_far_pole_the_seeded_search_misses():
    # A census fig1 member: its 16 seeds find the barrier-1 far pole but
    # miss the barrier-2 one.  With f_nom = 0 and G nonsingular the
    # equilibrium condition p gamma(V) Q x = lam S (x - c) does not involve
    # G, so the barrier-2 pole mirrors the barrier-1 pole in x_1.
    problem = fig1_tuning.build_problem(
        (1.7576073913178947, 3.039267639391003, 1.0893529771333303),
        obstacle_diag=(0.49402317851509636, 0.9392251529849198, 3.9811181002195073))
    config = SearchConfig(box=[[-3.0, 3.0], [-3.0, 3.0], [0.0, 6.0]],
                          boundary_seeds=16, interior_seeds=8, seed=505509199)
    assert not [rep for rep in multistart_boundary_equilibria(problem, (2,), config)
                if rep.validated]
    (left,) = [rep for rep in find_boundary_equilibria(problem, (1,), config)
               if rep.validated]
    (right,) = [rep for rep in find_boundary_equilibria(problem, (2,), config)
                if rep.validated]
    assert np.allclose(right.x_e, [2.3665776, 0.0, 3.13942904], atol=1e-7)
    assert right.lambda_e[0] == pytest.approx(31.69981763, abs=1e-7)
    assert np.allclose(right.x_e * [-1.0, 1.0, 1.0], left.x_e, atol=1e-12)
    assert right.lambda_e[0] == pytest.approx(left.lambda_e[0], rel=1e-12)


def test_enumeration_reaches_the_hard_case_through_the_null_space():
    # The fault member (CLF diag(0.5, 2, 0.5)), barrier 2: at t = 2,
    # Q - t S = diag(-0.5, 0, -7.5) is singular and Q (c_V - c) has no e_2
    # part, so the roots y = (1, +-s, 0.2) with s^2 = 1 - 0.5 - 4 (0.2)^2
    # come from the null-space term, with V = 7.8 and lam = t p gamma(V) =
    # 3.9.  The 16-seed multistart finds only the s < 0 one of the pair.
    problem = fig1_tuning.build_problem((0.5, 2.0, 0.5))
    config = replace(fig1_tuning.SEARCH, boundary_seeds=16)
    s = np.sqrt(0.34)
    reference = [rep.x_e for rep in multistart_boundary_equilibria(problem, (2,), config)]
    assert len(reference) == 2
    assert np.allclose(reference[0], [2.0, -s, 3.2], atol=1e-9)
    assert np.allclose(reference[1], [2.2629572862, 0.0, 3.2249830252], atol=1e-9)
    reports = find_boundary_equilibria(problem, (2,), config)
    assert [rep.validated for rep in reports] == [True] * 3
    assert np.allclose(reports[0].x_e, [2.0, -s, 3.2], atol=1e-12)
    assert np.allclose(reports[1].x_e, [2.0, s, 3.2], atol=1e-12)
    assert np.allclose(reports[2].x_e, reference[1], atol=1e-12)
    for rep in reports[:2]:
        assert rep.lambda_e[0] == pytest.approx(3.9, abs=1e-12)
        assert rep.lambda0_e == pytest.approx(0.25 * 7.8, abs=1e-12)


def _filter_problem(drift, shape=np.eye(2), offset=-1.0):
    """Safety filter on the plane: drift ``drift``, g = I, one obstacle
    (x - (2, 1))^T ``shape`` (x - (2, 1)) + ``offset``."""
    return ControlProblem(
        model=DynamicsModel.linear(drift, np.eye(2)),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(shape, [2.0, 1.0], offset),),
            alphas=(ClassKappa(1.0),)),
        params=ControllerParams(mode="safety_filter", p=1.0, cost_metric=np.eye(2),
                                nominal=NominalController.zero(2)))


@pytest.mark.parametrize("problem, indices", [
    # a CLF with a nonzero nominal field: generalized with a gain
    (next(p for p in interior_sweep(5, reps=1) if p.params.mode == "generalized"),
     (1,)),
    # G singular: one input in the plane
    (_small_problem(None, [[1.0], [0.0]], np.eye(2)), (1,)),
    # rho <= 0 and a non-definite shape: no boundary to enumerate or sample
    (_filter_problem(-np.eye(2), offset=0.5), (1,)),
    (_filter_problem(-np.eye(2), shape=np.diag([1.0, -1.0])), (1,)),
    # no CLF and F singular: boundary points in its null space have lam = 0
    (_filter_problem(np.diag([-1.0, 0.0])), (1,)),
    # w = 0: the CLF centred on the barrier's centre
    (_small_problem(None, np.eye(2), np.diag([1.0, 2.0]), center=[5.0, 5.0]), (1,)),
    # two active barriers
    (load_bundled_scenario("fig1").problem(), (1, 2)),
])
def test_searches_outside_the_enumeration_run_the_seeded_multistart(problem, indices):
    config = SearchConfig(box=[[-4.0, 4.0]] * problem.n, boundary_seeds=16, seed=3)
    if len(indices) == 1:
        assert equilibria._boundary_candidates(problem, indices[0]) is None
    _assert_same_reports(multistart_boundary_equilibria(problem, indices, config),
                         find_boundary_equilibria(problem, indices, config))


def test_one_barrier_reports_ignore_seed_count_and_seed(fig1, deadlock2d, filter2d):
    # The enumeration draws no seeds: boundary_seeds and seed change
    # nothing, bit for bit.
    rng = np.random.default_rng(9)
    problems = [fig1, deadlock2d, filter2d] + [
        random_one_barrier_problem(rng, n, 2, mode) for n in (2, 3) for mode in MODES]
    for problem in problems:
        box = [[-4.0, 4.0]] * problem.n
        for i in range(1, problem.n_barriers + 1):
            first, *rest = [find_boundary_equilibria(problem, (i,), config) for config in (
                SearchConfig(box=box, boundary_seeds=64, seed=0),
                SearchConfig(box=box, boundary_seeds=1, seed=91),
                SearchConfig(box=box, boundary_seeds=0, seed=3))]
            assert first
            for other in rest:
                _assert_same_reports(first, other)


# --- lockstep Newton: one batched evaluation per iteration -------------------------


def _watch_newton(monkeypatch, built):
    """Wrap the lockstep Newton: keep each call's system, start stack and
    roots, and count the system's evaluations and the builds each makes."""
    seen = {"runs": [], "system": 0, "builds": []}
    newton = equilibria._newton

    def watched(system, Z0, *args):
        def counted_system(Z):
            before = len(built)
            out = system(Z)
            seen["system"] += 1
            seen["builds"].append(tuple(built[before:]))
            return out

        roots = newton(counted_system, Z0, *args)
        seen["runs"].append((system, np.array(Z0), args, roots))
        return roots

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
    assert seen["system"] > 1
    # one batched build per lockstep evaluation, its Jacobians included
    assert seen["builds"] == [("batch",)] * seen["system"]
    # the QP layer is built once per root, by the solve that validates it
    assert assemblies.count("point") == len(reports)


@pytest.mark.parametrize("name, indices", [
    ("deadlock2d", (1,)), ("fig1", (1,)), ("fig1", (1, 2)), ("fig1", ())])
def test_newton_system_is_the_public_field_and_jacobian(
        name, indices, request, monkeypatch):
    # Bit for bit, row by row: the search evaluates the same arithmetic as
    # the public equilibrium_field / equilibrium_field_jacobian.
    problem = request.getfixturevalue(name)
    box = np.array([[-4.0, 4.0]] * problem.n)
    config = SearchConfig(box=box, boundary_seeds=8, interior_seeds=1, seed=0)
    seen = _watch_newton(monkeypatch, [])
    if indices:
        find_boundary_equilibria(problem, indices, config)
    else:
        find_interior_equilibria(problem, config)
    system = seen["runs"][0][0]
    n = problem.n
    rng = np.random.default_rng(17)
    X = rng.uniform(-4.0, 4.0, (6, n))
    L = rng.uniform(0.0, 5.0, (6, len(indices)))
    F, J = system(np.hstack([X, L]))
    for x, lam, F_row, J_row in zip(X, L, F, J):
        assert np.array_equal(F_row[:n], equilibrium_field(problem, x, lam, indices))
        assert np.array_equal(
            J_row[:n, :n], equilibrium_field_jacobian(problem, x, lam, indices))


def random_boundary_problem(rng, n, mode, drift):
    """A random_interior_problem whose second obstacle is moved to within
    1.2-1.8 of the first, so that the two boundaries usually meet."""
    problem = random_interior_problem(rng, n, mode, drift, centred=False)
    certs = problem.certificates
    first, second = certs.cbfs
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    moved = QuadraticCertificate.barrier(
        second.shape, first.center + rng.uniform(1.2, 1.8) * direction, -1.0)
    return replace(problem, certificates=replace(certs, cbfs=(first, moved)))


def test_lockstep_newton_matches_the_reference_seed_by_seed(monkeypatch):
    # Every seed of every search, run alone through the reference Newton on
    # the public field, Jacobian and barriers, gives the lockstep root bit
    # for bit, or the same failure.
    seen = _watch_newton(monkeypatch, [])
    rng = np.random.default_rng(88)
    searches = []
    for n, mode, drift in itertools.product((2, 3, 4), MODES, (False, True)):
        problem = random_boundary_problem(rng, n, mode, drift)
        config = SearchConfig(box=[[-4.0, 4.0]] * n, boundary_seeds=16, seed=n)
        for indices in ((1,), (1, 2), ()):
            runs = len(seen["runs"])
            if indices:
                find_boundary_equilibria(problem, indices, config)
            else:
                find_interior_equilibria(problem, config)
            searches += [(problem, indices, run) for run in seen["runs"][runs:]]
    outcomes = {(r, ok): 0 for r in (0, 1, 2) for ok in (True, False)}
    for problem, indices, (_, Z0, args, roots) in searches:
        tol = problem.tolerances
        assert args == (tol.newton_residual, tol.newton_step, 100, 8)
        system = public_system(problem, indices)
        for z0, root in zip(Z0, roots):
            expected = newton(system, z0, *args)
            if expected is None:
                assert root is None
            else:
                assert np.array_equal(root, expected)
            outcomes[len(indices), expected is not None] += 1
    # roots and failures both occur, for every active-set size
    assert all(count >= 3 for count in outcomes.values()), sorted(outcomes.items())


def _count_solves(monkeypatch):
    """Count the stacked linear solves, one per lockstep Newton iteration."""
    solves = []
    solve_stack = equilibria._solve_stack

    def counted(J, b):
        solves.append(J.shape[0])
        return solve_stack(J, b)

    monkeypatch.setattr(equilibria, "_solve_stack", counted)
    return solves


def _traced(system):
    """Wrap a reference-Newton system: the list it returns gets one entry
    per iteration, the number of trial points that iteration evaluated."""
    trials = []

    def wrapped(z):
        F, jacobian = system(z)
        if trials:
            trials[-1] += 1

        def counted_jacobian():
            trials.append(0)
            return jacobian()

        return F, counted_jacobian

    return wrapped, trials


@pytest.mark.parametrize("name, indices", [
    ("fig1", (1,)), ("fig1", (2,)), ("deadlock2d", (1,)), ("fig1", ())])
def test_newton_evaluates_at_most_twice_per_iteration(
        name, indices, request, monkeypatch):
    # The full steps in one stacked evaluation, every remaining halving in
    # a second: never a third, however many halvings a row needs.
    problem = request.getfixturevalue(name)
    config = request.getfixturevalue(f"{name}_scenario").search
    seen = _watch_newton(monkeypatch, [])
    solves = _count_solves(monkeypatch)
    if indices:
        # the seeded multistart: enumerated one-barrier starts need no halving
        multistart_boundary_equilibria(problem, indices, config)
    else:
        find_interior_equilibria(problem, config)
    assert len(seen["runs"]) == 1 and solves
    assert seen["system"] <= 1 + 2 * len(solves)
    if indices:
        # some iteration halved, at the price of one evaluation
        assert seen["system"] > 1 + len(solves)


@pytest.mark.parametrize("max_halvings", [8, 0])
def test_halving_stack_matches_the_reference_halving_one_at_a_time(
        fig1, fig1_scenario, monkeypatch, max_halvings):
    # fig1 {1} from the multistart's 64 bundled seeds: some seeds accept a
    # step only at a scale <= 1/4, some reject every scale and stop.  Each
    # seed, run alone through the reference Newton that halves one step at
    # a time, gives the lockstep root bit for bit, or the same failure.
    seen = _watch_newton(monkeypatch, [])
    solves = _count_solves(monkeypatch)
    config = replace(fig1_scenario.search, max_halvings=max_halvings)
    multistart_boundary_equilibria(fig1, (1,), config)
    (_, Z0, args, roots), = seen["runs"]
    assert args[-1] == max_halvings
    deep = exhausted = converged = 0
    for z0, root in zip(Z0, roots):
        system, trials = _traced(public_system(fig1, (1,)))
        expected = newton(system, z0, *args)
        if expected is None:
            assert root is None
        else:
            assert np.array_equal(root, expected)
        # every iteration but a failed run's last accepted a trial
        accepted = trials if expected is not None else trials[:-1]
        deep += any(count >= 3 for count in accepted)
        exhausted += expected is None and trials[-1:] == [max_halvings + 1]
        converged += expected is not None
    assert converged and exhausted and bool(deep) == bool(max_halvings)
    if not max_halvings:
        # nothing to halve: one evaluation per iteration
        assert seen["system"] == 1 + len(solves)


@pytest.mark.parametrize("name, indices", [("fig1", (1, 2)), ("deadlock2d", (1,)),
                                           ("filter2d", ())])
def test_batch_rows_equal_batches_of_one(name, indices, request):
    # up to K = 512, the largest halving stack of a 64-seed search
    # (64 rows x 8 halvings)
    problem = request.getfixturevalue(name)
    system = stability._EquilibriumSystem(problem, indices)
    rng = np.random.default_rng(5)
    Z = rng.uniform(-4.0, 4.0, (512, problem.n + len(indices)))
    for K in (1, 7, 64, 512):
        F, J = system(Z[:K])
        for k in range(K):
            F1, J1 = system(Z[k:k + 1])
            assert np.array_equal(F[k], F1[0]) and np.array_equal(J[k], J1[0])


def test_report_order_ignores_signed_zero_noise():
    # Roots whose zero coordinate differs only by rounding sort on their
    # other coordinates, and keep seed order when nothing else differs.
    def rep(x):
        return EquilibriumReport(
            x_e=np.array(x), kind="boundary", indices=(1, 2), lambda_e=np.ones(2),
            lambda0_e=1.0, residual_field=0.0, residual_boundary=0.0)

    def order(reports):
        return [id(r) for r in sorted(reports, key=equilibria._report_order)]

    upper, lower = rep([1e-17, 0.45, 3.0]), rep([-1e-17, -0.45, 3.0])
    assert order([upper, lower]) == order([lower, upper]) == [id(lower), id(upper)]
    plus, minus = rep([1e-17, 0.45, 3.0]), rep([-1e-17, 0.45, 3.0])
    assert order([plus, minus]) == [id(plus), id(minus)]
    assert order([minus, plus]) == [id(minus), id(plus)]


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


def test_nnls_matches_scipy():
    # Full column rank: the same unique minimizer.  Rank deficient (a zero
    # matrix, twin columns, a scaled copy of a column): the minimizer is not
    # unique, so the residual norm is compared.  One column takes the
    # closed form.
    from scipy.optimize import nnls

    rng = np.random.default_rng(11)
    cases = [(np.zeros((3, 2)), np.ones(3), True),
             (np.array([[1.0, -1.0], [1.0, -1.0]]), np.ones(2), True),
             (np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([-1.0, 3.0]), True)]
    for trial in range(600):
        m, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        A = rng.normal(size=(m, k))
        deficient = k > 1 and trial % 3 == 0
        if deficient:
            A[:, -1] = rng.normal() * A[:, 0]
        cases.append((A, rng.normal(size=m), deficient))
    for A, b, deficient in cases:
        x = equilibria._nnls(A, b)
        x_ref, r_ref = nnls(A, b)
        assert x.shape == (A.shape[1],) and np.all(x >= 0.0)
        # rounding of A x_ref - b, with x_ref up to ~1e3 on these draws
        scale = np.linalg.norm(A, 2) * np.linalg.norm(x_ref) + np.linalg.norm(b)
        assert abs(np.linalg.norm(A @ x - b) - r_ref) <= 1e-12 * scale
        unique = np.linalg.matrix_rank(A) == A.shape[1] and np.linalg.cond(A) < 1e6
        if not deficient and unique:
            assert np.allclose(x, x_ref, rtol=1e-10, atol=1e-12), (A, b)


def _run_python(*args):
    """Run a fresh interpreter on this checkout's package; return the result."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import clfcbf

    env = dict(os.environ)
    src = str(Path(clfcbf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # The package imports no SciPy module at all.
    out = _run_python(
        "-c", "import sys, clfcbf; print('scipy.optimize' in sys.modules)")
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["deadlock2d", "fig1", "filter2d"])
def test_equilibria_command_loads_no_scipy(name, tmp_path):
    # -X importtime lists every module the run imports on stderr.
    out = _run_python("-X", "importtime", "-m", "clfcbf", "equilibria",
                      "--scenario", name, "--out", str(tmp_path))
    imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "clfcbf.equilibria" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("indices", [(), (0,), (3,), (1, 1), (2, 1, 2)])
def test_boundary_search_rejects_bad_indices_before_sampling(
        fig1, fig1_scenario, indices, monkeypatch):
    # Empty, out-of-range and repeated index sets fail with a typed error
    # before any seed is drawn.
    def no_sampling(*args):
        raise AssertionError("seeds drawn before the indices were checked")

    monkeypatch.setattr(equilibria, "_boundary_samples", no_sampling)
    with pytest.raises(InvalidParameterError):
        find_boundary_equilibria(fig1, indices, fig1_scenario.search)
