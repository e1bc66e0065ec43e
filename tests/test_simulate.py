"""Fixed-step closed-loop integration, trajectory logging, and the CSV
round trip.

The integrator is checked for fourth-order self-convergence and against
an independent radial solution of the unconstrained CLF flow, then
exercised on the worked saddle geometry and on the 3-D scenario, where
perturbation runs confirm the equilibrium verdicts dynamically: stable
means the tangent perturbation dies, unstable means it grows at the rate
the classifier reported.
"""
import numpy as np
import pytest
from scipy.optimize import brentq

from clfcbf import (
    CertificateSet,
    ClassKappa,
    ControlProblem,
    ControllerParams,
    DynamicsModel,
    IntegrationError,
    NominalController,
    QpSolution,
    QuadraticCertificate,
    Tolerances,
    integrate,
    read_trajectory_csv,
    safety_margin,
    write_trajectory_csv,
)
from oracles import reference_integrate

FIG1_TOP = np.array([0.0, 0.0, 3.3535533905932737])
FIG1_POLE = np.array([-2.2629572862, 0.0, 3.2249830252])
FIG1_POLE_MU = 4.529053403


def _uncontrollable_problem(alpha_gain):
    """Scalar input that cannot act on x_2 while h depends on x_2 only.

    The barrier row reads -2 x_2^2 >= -alpha (x_2^2 - 1): feasible iff
    (alpha - 2) x_2^2 >= alpha, so with gain 4 the QP is feasible exactly
    for |x_2| >= sqrt(2) and the drift x_2' = -x_2 must cross that line.
    """
    return ControlProblem(
        model=DynamicsModel.linear(
            drift_matrix=np.array([[0.0, 0.0], [0.0, -1.0]]),
            input_matrix=np.array([[1.0], [0.0]])),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.array([[0.0, 0.0], [0.0, 1.0]]), center=np.zeros(2),
                offset=-1.0),),
            alphas=(ClassKappa(alpha_gain),),
        ),
        params=ControllerParams(
            mode="safety_filter", p=1.0, cost_metric=np.eye(1),
            nominal=NominalController.zero(1)),
        tolerances=Tolerances(),
    )


def _assert_same_run(run, ref):
    """Every Trajectory field bit-identical, and the same termination."""
    assert run.termination == ref.termination
    for name in ("t", "x", "u", "delta", "lambda0", "lam", "h", "V", "active_mask"):
        a, b = getattr(run, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# -- integrator accuracy -------------------------------------------------------


def test_rk4_fourth_order_self_convergence(deadlock2d):
    """Richardson ratio of final-state differences is ~16 for RK4."""
    x0 = np.array([0.5, 0.2])
    finals = {}
    for dt in (0.04, 0.02, 0.01):
        finals[dt] = integrate(deadlock2d, x0, dt=dt, t_final=1.0).x[-1]
    ratio = (np.linalg.norm(finals[0.04] - finals[0.02])
             / np.linalg.norm(finals[0.02] - finals[0.01]))
    assert 8.0 < ratio < 32.0


def test_unconstrained_clf_flow_matches_radial_solution(deadlock2d):
    """Far from the obstacle the closed loop is x' = -V x / (1 + |x|^2);
    its radius satisfies -1/(2 r^2) + ln r = const - t/2, which a scalar
    root-find inverts independently of the integrator."""
    x0 = np.array([0.5, 0.2])
    r0 = float(np.linalg.norm(x0))

    def phi(r):
        return -0.5 / r ** 2 + np.log(r)

    r_exact = brentq(lambda r: phi(r) - (phi(r0) - 0.5), 1e-6, r0, xtol=1e-15)
    trajectory = integrate(deadlock2d, x0, dt=1e-3, t_final=1.0)
    final = trajectory.x[-1]
    assert abs(np.linalg.norm(final) - r_exact) < 1e-10
    assert np.max(np.abs(final / np.linalg.norm(final) - x0 / r0)) < 1e-12


def test_clf_center_is_a_fixed_point(deadlock2d):
    trajectory = integrate(deadlock2d, np.zeros(2), dt=1e-3, t_final=0.05)
    assert trajectory.termination.reason == "time_limit"
    assert np.max(np.abs(trajectory.x)) == 0.0
    assert np.max(np.abs(trajectory.u)) == 0.0


# -- worked saddle geometry ----------------------------------------------------


def test_axis_ride_converges_to_saddle(deadlock2d):
    """From (5, 0) the run stays on the saddle's stable manifold."""
    trajectory = integrate(
        deadlock2d, [5.0, 0.0], dt=2e-3, t_final=20.0,
        target=[3.0, 0.0], target_tol=1e-3)
    assert trajectory.termination.reason == "converged"
    assert abs(trajectory.termination.time - 8.312) < 0.05
    assert np.linalg.norm(trajectory.final_state - [3.0, 0.0]) <= 1e-3
    assert trajectory.x[-1][1] == 0.0  # the axis is invariant
    assert safety_margin(trajectory)[0] > 0.0


def test_offset_start_skirts_the_obstacle(deadlock2d):
    """A small lateral offset is ejected along the unstable direction and
    the run proceeds around the obstacle toward the CLF minimum."""
    trajectory = integrate(deadlock2d, [5.0, 0.1], dt=2e-3, t_final=6.0)
    assert trajectory.termination.reason == "time_limit"
    assert np.linalg.norm(trajectory.final_state) < 1.0  # past the obstacle
    assert safety_margin(trajectory)[0] > 0.49  # never grazes the boundary
    assert trajectory.V[-1] < 0.03 * trajectory.V[0]


# -- dynamical confirmation of the 3-D verdicts --------------------------------


def test_stable_intersection_absorbs_perturbations(fig1):
    """A tangent kick at the stable intersection equilibrium decays by
    better than four orders of magnitude within three time units."""
    x0 = FIG1_TOP + np.array([0.0, 1e-3, 0.0])
    trajectory = integrate(fig1, x0, dt=2e-3, t_final=3.0)
    final_dist = np.linalg.norm(trajectory.final_state - FIG1_TOP)
    assert final_dist < 1e-6
    assert final_dist < 1e-4 * np.linalg.norm(x0 - FIG1_TOP)
    assert np.min(safety_margin(trajectory)) > 0.0


def test_unstable_pole_ejects_along_witness(fig1):
    """A kick along the classifier's witness grows at rate mu_max while
    the run keeps riding the single active boundary."""
    x0 = FIG1_POLE + np.array([0.0, 1e-3, 0.0])
    early = integrate(fig1, x0, dt=1e-3, t_final=0.1)
    growth = abs(early.final_state[1]) / 1e-3
    assert abs(growth - np.exp(0.1 * FIG1_POLE_MU)) < 1e-4

    longer = integrate(fig1, x0, dt=1e-3, t_final=0.51)
    assert abs(longer.final_state[1]) > 5e-3  # keeps growing past the window
    assert set(longer.active_mask.tolist()) == {3}  # CLF row + first barrier
    assert np.min(safety_margin(longer)) >= 0.0


# -- terminations and edge cases ----------------------------------------------


def test_unsafe_initial_state_warns_and_recovers(deadlock2d):
    with pytest.warns(UserWarning, match="outside the safe set"):
        trajectory = integrate(deadlock2d, [2.5, 0.0], dt=1e-3, t_final=0.5)
    assert trajectory.h[0, 0] == -0.75
    assert trajectory.h[-1, 0] > trajectory.h[0, 0]  # pushed back out


def test_divergence_raises_with_partial_trajectory():
    """An unstable nominal feedback with no barrier in the way blows up;
    the exception carries everything sampled before the divergence."""
    problem = ControlProblem(
        model=DynamicsModel.driftless(input_matrix=np.eye(2)),
        certificates=CertificateSet(
            cbfs=(QuadraticCertificate.barrier(
                shape=np.eye(2), center=np.array([100.0, 0.0]), offset=-1.0),),
            alphas=(ClassKappa(1.0),),
        ),
        params=ControllerParams(
            mode="safety_filter", p=1.0, cost_metric=np.eye(2),
            nominal=NominalController.linear_feedback(2.0 * np.eye(2))),
        tolerances=Tolerances(),
    )
    with pytest.raises(IntegrationError, match="diverged") as excinfo:
        integrate(problem, [-1.0, 0.0], dt=1e-2, t_final=20.0)
    partial = excinfo.value.partial_trajectory
    with pytest.raises(IntegrationError, match="diverged") as excinfo:
        reference_integrate(problem, [-1.0, 0.0], dt=1e-2, t_final=20.0)
    _assert_same_run(partial, excinfo.value.partial_trajectory)
    assert partial.t.shape[0] > 1000
    assert np.all(np.isfinite(partial.x))
    # pure exponential until the blow-up guard: x(t) = -e^{2t} e_1
    assert np.allclose(partial.x[:, 0], -np.exp(2.0 * partial.t), rtol=1e-4)


def test_infeasible_qp_truncates_the_run():
    """Feasibility is lost exactly when the uncontrolled coordinate
    crosses sqrt(2); the run stops there and reports it as an outcome."""
    problem = _uncontrollable_problem(alpha_gain=4.0)
    trajectory = integrate(problem, [0.0, 2.0], dt=1e-3, t_final=2.0)
    _assert_same_run(trajectory,
                     reference_integrate(problem, [0.0, 2.0], dt=1e-3, t_final=2.0))
    assert trajectory.termination.reason == "qp_infeasible"
    assert abs(trajectory.termination.time - np.log(np.sqrt(2.0))) < 2e-3
    assert trajectory.x[-1][1] == pytest.approx(np.sqrt(2.0), abs=2e-3)
    assert np.all(trajectory.delta == 0.0)  # no CLF row in this mode


def test_infeasible_at_start_yields_empty_run(tmp_path):
    """When even the initial state is infeasible the trajectory is empty
    but well shaped, and it survives the CSV round trip."""
    problem = _uncontrollable_problem(alpha_gain=4.0)
    trajectory = integrate(problem, [0.0, 1.1], dt=1e-3, t_final=1.0)
    _assert_same_run(trajectory,
                     reference_integrate(problem, [0.0, 1.1], dt=1e-3, t_final=1.0))
    assert trajectory.termination.reason == "qp_infeasible"
    assert trajectory.termination.time == 0.0
    assert trajectory.t.shape == (0,)
    assert trajectory.x.shape == (0, 2)
    assert trajectory.lam.shape == (0, 1)
    path = tmp_path / "empty.csv"
    write_trajectory_csv(trajectory, path)
    back = read_trajectory_csv(path)
    assert back.t.shape == (0,)
    assert back.x.shape == (0, 2)


# -- CSV round trip -------------------------------------------------------------


def test_trajectory_csv_round_trip_is_bit_exact(deadlock2d, tmp_path):
    trajectory = integrate(deadlock2d, [5.0, 0.1], dt=1e-2, t_final=0.5)
    path = tmp_path / "run.csv"
    write_trajectory_csv(trajectory, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x_0,x_1,u_0,u_1,delta,lambda_0,lambda_1,h_1,V,active_mask"
    back = read_trajectory_csv(path)
    for field in ("t", "x", "u", "delta", "lambda0", "lam", "h", "V",
                  "active_mask"):
        assert np.array_equal(getattr(back, field), getattr(trajectory, field)), field
    assert back.termination is None
    assert np.array_equal(safety_margin(back), safety_margin(trajectory))


# -- one evaluation per state --------------------------------------------------


@pytest.mark.parametrize("steps", [1, 5])
def test_integrate_assembles_each_state_once(deadlock2d, assemblies,
                                             table_evaluations, steps):
    # Four RK4 stage states per step plus the final sample: each is
    # assembled once, by its solve, and that one evaluation of the table
    # also serves the safe-set check at x0 and every recorded h and V.
    run = integrate(deadlock2d, np.array([4.0, 0.3]), dt=0.01, t_final=0.01 * steps)
    assert run.t.shape == (steps + 1,)
    assert len(assemblies) == 4 * steps + 1
    assert table_evaluations == [1] * (4 * steps + 1)


def test_integrate_reads_only_the_field_at_stages(deadlock2d, monkeypatch):
    # Stage solutions give their field and active set; u* is filled in only
    # at the recorded samples, and the primal KKT audit never runs.
    filled = []
    fill = QpSolution.__getattr__

    def counting_fill(solution, name):
        filled.append(name)
        return fill(solution, name)

    monkeypatch.setattr(QpSolution, "__getattr__", counting_fill)
    run = integrate(deadlock2d, np.array([4.0, 0.3]), dt=0.01, t_final=0.05)
    assert run.t.shape == (6,)
    assert filled == ["u_star"] * 6


# -- bit identity with the public-call reference -------------------------------


@pytest.mark.parametrize("name, reason", [
    ("deadlock2d", "time_limit"),
    ("fig1", "converged"),
    ("filter2d", "converged"),
])
def test_integrate_matches_the_public_reference_bit_for_bit(name, reason, request):
    # Every bundled start at dt = 0.01: reading h and V off each sample's
    # own solve reproduces the loop that evaluated certs.values per sample,
    # across active-set switches and in both modes.
    scenario = request.getfixturevalue(f"{name}_scenario")
    problem = scenario.problem()
    masks = set()
    for x0 in scenario.initial_states:
        kwargs = dict(dt=0.01, t_final=scenario.t_final, target=scenario.target,
                      target_tol=scenario.target_tol)
        run = integrate(problem, x0, **kwargs)
        assert run.termination.reason == reason
        masks.update(run.active_mask.tolist())
        _assert_same_run(run, reference_integrate(problem, x0, **kwargs))
    assert len(masks) >= 2
