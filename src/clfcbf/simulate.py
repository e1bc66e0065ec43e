"""Closed-loop simulation with per-stage QP solves and trajectory export.

The control law is defined pointwise by the QP, so the closed loop is
integrated with a fixed-step classical Runge-Kutta scheme whose every
stage re-solves the QP at the stage state.  Fixed step keeps runs exactly
reproducible; the step size is a scenario parameter.

A stage evaluates the certificate table once, at its state, and reads
only the field f_nom + G D l and the active set (the next stage's warm
start) off the QP solution there; u* and the KKT audit are not formed.
Each saved sample (the first stage of a step) also logs the full QP
solution at that state, read off the same multipliers and the same
evaluation: control, relaxation, multipliers, barrier values, CLF value
and the active set as a bitmask with bit 0 = CLF row, bit i = CBF i.  A
trajectory file is thus enough to audit complementarity and safety
margins offline.
"""

import csv
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleQPError, IntegrationError
from .qp import closed_loop_field, solve_pointwise

__all__ = [
    "Termination",
    "Trajectory",
    "integrate",
    "safety_margin",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

#: consecutive in-tolerance samples required to declare convergence.
CONVERGENCE_WINDOW = 10

#: state magnitude treated as a diverged integration.
BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class Termination:
    """Why and when an integration stopped."""

    reason: str  # "time_limit" | "converged" | "qp_infeasible"
    time: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run; row k is time ``t[k]``.

    ``u``, ``delta``, ``lambda0``, ``lam`` and ``active_mask`` hold the
    QP solution evaluated at ``x[k]`` (the first integration stage), so
    the last row carries the control that *would* act at the final state.
    """

    t: np.ndarray            # (K,)
    x: np.ndarray            # (K, n)
    u: np.ndarray            # (K, m)
    delta: np.ndarray        # (K,)
    lambda0: np.ndarray      # (K,)
    lam: np.ndarray          # (K, N)
    h: np.ndarray            # (K, N)
    V: np.ndarray            # (K,)
    active_mask: np.ndarray  # (K,) int
    termination: Optional[Termination] = None

    @property
    def final_state(self):
        return self.x[-1]


class _Recorder:
    """Accumulates per-sample rows and assembles the Trajectory."""

    def __init__(self, n, m, n_barriers):
        self.dims = (n, m, n_barriers)
        self.rows = []

    def add(self, t, x, h, V, solution):
        self.rows.append((
            float(t), np.array(x), np.array(solution.u_star),
            float(solution.delta_star), float(solution.lambda0),
            np.array(solution.lam), np.array(h), float(V),
            int(solution.active_mask)))

    def build(self, termination):
        if not self.rows:
            # infeasible before the first sample: an empty, well-shaped run
            n, m, n_barriers = self.dims
            return Trajectory(
                t=np.zeros(0), x=np.zeros((0, n)), u=np.zeros((0, m)),
                delta=np.zeros(0), lambda0=np.zeros(0),
                lam=np.zeros((0, n_barriers)), h=np.zeros((0, n_barriers)),
                V=np.zeros(0), active_mask=np.zeros(0, dtype=int),
                termination=termination)
        t, x, u, delta, lambda0, lam, h, V, mask = zip(*self.rows)
        return Trajectory(
            t=np.array(t), x=np.array(x), u=np.array(u),
            delta=np.array(delta), lambda0=np.array(lambda0),
            lam=np.array(lam), h=np.array(h), V=np.array(V),
            active_mask=np.array(mask, dtype=int), termination=termination)


def _solve_sample(problem, x, guess):
    """The QP solution at a saved sample, or None where the QP is infeasible."""
    try:
        return solve_pointwise(problem, x, first_guess=guess)
    except InfeasibleQPError:
        return None


def integrate(problem, x0, dt=1e-3, t_final=20.0, target=None, target_tol=1e-3):
    """Run the closed loop from ``x0`` with fixed-step RK4.

    Each of the four stages of a step solves the QP at its state,
    warm-started with the previous stage's active set, and reads the field
    f_nom + G D l and the active set off the solution.  Only the first
    stage, at the saved sample x[k], also reads the recorded row off its
    solution (u*, delta*, multipliers, active mask), and h and V off the
    evaluation of the certificate table that solution was built from,
    which at x0 also serves the safe-set check.  A run of n steps
    therefore evaluates the table 4n + 1 times.

    Parameters
    ----------
    problem : ControlProblem
    x0 : (n,) array_like
    dt : float
        Fixed integration step, > 0.
    t_final : float
        Time horizon; the run takes ``round(t_final / dt)`` steps unless
        it converges or the QP becomes infeasible first.
    target : (n,) array_like, optional
        Convergence probe; the run stops early once the state stays
        within ``target_tol`` (2-norm) of the target for
        ``CONVERGENCE_WINDOW`` consecutive samples.
    target_tol : float

    Returns
    -------
    Trajectory
        With ``termination.reason`` set to "converged", "time_limit" or
        "qp_infeasible".  An infeasible QP is a reportable outcome, not
        an exception: the trajectory is truncated at the last feasible
        sample.

    Raises
    ------
    IntegrationError
        If the state diverges or turns non-finite; the partial trajectory
        is attached to the exception.
    """
    x = np.asarray(x0, dtype=float).ravel()
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    n_steps = int(round(t_final / dt))
    solution = _solve_sample(problem, x, None)
    h0 = (problem.certificates.barrier_values(x) if solution is None
          else solution._values[1:])
    if float(h0.min()) < 0.0:
        warnings.warn(
            f"initial state is outside the safe set (min h = {h0.min():.6g}); "
            "forward invariance is not guaranteed", stacklevel=2)
    recorder = _Recorder(problem.n, problem.model.m, problem.n_barriers)
    in_tol = 0
    if target is not None:
        target = np.asarray(target, dtype=float).ravel()

    for k in range(n_steps + 1):
        t = k * dt
        if solution is None:
            return recorder.build(Termination(reason="qp_infeasible", time=t))
        values = solution._values
        recorder.add(t, x, values[1:], values[0], solution)
        if target is not None:
            in_tol = in_tol + 1 if np.linalg.norm(x - target) <= target_tol else 0
            if in_tol >= CONVERGENCE_WINDOW:
                return recorder.build(Termination(reason="converged", time=t))
        if k == n_steps:
            break
        try:
            # warm-start each stage with the previous stage's active set
            k1 = closed_loop_field(problem, x, solution=solution)
            guess = solution.active_set
            x2 = x + 0.5 * dt * k1
            s2 = solve_pointwise(problem, x2, first_guess=guess)
            k2 = closed_loop_field(problem, x2, solution=s2)
            guess = s2.active_set
            x3 = x + 0.5 * dt * k2
            s3 = solve_pointwise(problem, x3, first_guess=guess)
            k3 = closed_loop_field(problem, x3, solution=s3)
            guess = s3.active_set
            x4 = x + dt * k3
            s4 = solve_pointwise(problem, x4, first_guess=guess)
            k4 = closed_loop_field(problem, x4, solution=s4)
            guess = s4.active_set
        except InfeasibleQPError:
            return recorder.build(
                Termination(reason="qp_infeasible", time=t))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)) or float(np.max(np.abs(x))) > BLOWUP_LIMIT:
            partial = recorder.build(Termination(reason="time_limit", time=t))
            raise IntegrationError(
                f"state diverged at t = {t + dt:.6g}", partial_trajectory=partial)
        solution = _solve_sample(problem, x, guess)
    return recorder.build(Termination(reason="time_limit", time=n_steps * dt))


def safety_margin(trajectory):
    """Per-barrier minimum of h_i along the run; negative means a violation."""
    return trajectory.h.min(axis=0)


def _header(n, m, n_barriers):
    names = ["t"]
    names += [f"x_{i}" for i in range(n)]
    names += [f"u_{i}" for i in range(m)]
    names += ["delta"]
    names += [f"lambda_{i}" for i in range(n_barriers + 1)]
    names += [f"h_{i}" for i in range(1, n_barriers + 1)]
    names += ["V", "active_mask"]
    return names


def write_trajectory_csv(trajectory, path):
    """Write the sampled run to ``path``.

    Column layout: t, x_0..x_{n-1}, u_0..u_{m-1}, delta,
    lambda_0..lambda_N, h_1..h_N, V, active_mask.  Floats carry 17
    significant digits so a read-back reproduces them bit for bit.
    """
    n = trajectory.x.shape[1]
    m = trajectory.u.shape[1]
    n_barriers = trajectory.h.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(n, m, n_barriers))
        for k in range(trajectory.t.shape[0]):
            row = [f"{trajectory.t[k]:.17g}"]
            row += [f"{v:.17g}" for v in trajectory.x[k]]
            row += [f"{v:.17g}" for v in trajectory.u[k]]
            row += [f"{trajectory.delta[k]:.17g}", f"{trajectory.lambda0[k]:.17g}"]
            row += [f"{v:.17g}" for v in trajectory.lam[k]]
            row += [f"{v:.17g}" for v in trajectory.h[k]]
            row += [f"{trajectory.V[k]:.17g}", str(int(trajectory.active_mask[k]))]
            writer.writerow(row)


def read_trajectory_csv(path):
    """Read a trajectory written by :func:`write_trajectory_csv`.

    The termination record is not part of the file; the returned
    trajectory has ``termination=None``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [line for line in reader if line]
    n = sum(1 for name in header if name.startswith("x_"))
    m = sum(1 for name in header if name.startswith("u_"))
    n_barriers = sum(1 for name in header if name.startswith("h_"))
    expected = _header(n, m, n_barriers)
    if header != expected:
        raise ValueError(
            f"unrecognized trajectory header {header!r}; expected {expected!r}")
    data = np.array([[float(v) for v in line] for line in rows])
    data = data.reshape(len(rows), len(expected))
    col = 1
    x = data[:, col:col + n]; col += n
    u = data[:, col:col + m]; col += m
    delta = data[:, col]; col += 1
    lambda0 = data[:, col]; col += 1
    lam = data[:, col:col + n_barriers]; col += n_barriers
    h = data[:, col:col + n_barriers]; col += n_barriers
    V = data[:, col]; col += 1
    mask = data[:, col].astype(int)
    return Trajectory(
        t=data[:, 0], x=x, u=u, delta=delta, lambda0=lambda0, lam=lam,
        h=h, V=V, active_mask=mask, termination=None)
