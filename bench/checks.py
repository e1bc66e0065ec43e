"""Independent checks of the program's outputs, written against NumPy only.

Nothing here imports the program.  Every check rebuilds what it needs from
the generated scenario document (the plain dictionary in ``inputs.Case``),
takes the program's output as plain arrays, and returns a list of problem
strings: empty means the output passed.  The benchmark's own tests feed
each check a corrupted output and require a non-empty list.
"""

import math

import numpy as np

#: scaled KKT residual accepted for a QP solution or a trajectory row.
KKT_TOL = 1e-7
#: forward-invariance bound on every recorded barrier value (criterion 7).
INVARIANCE_BOUND = -1e-4
#: agreement of the benchmark's RK4 with the program's integrate.
RK4_TOL = 1e-8
#: closed forms, equilibrium residuals and the left-eigenvector identity.
ROOT_TOL = 1e-8
CLOSED_FORM_TOL = 1e-7
#: solver against the dual-ascent oracle (the program's own audit bound).
ORACLE_TOL = 1e-6


class QpModel:
    """The QP data of one scenario document, evaluated for stacks of states."""

    def __init__(self, doc):
        dyn = doc["dynamics"]
        self.B = np.asarray(dyn["input"]["matrix"], dtype=float)
        n, m = self.B.shape
        drift = dyn["drift"]
        self.A = (np.asarray(drift["matrix"], dtype=float)
                  if drift["kind"] == "linear" else np.zeros((n, n)))
        nominal = doc["nominal"]
        self.K = (np.asarray(nominal["gain"], dtype=float)
                  if nominal["kind"] == "linear_feedback" else np.zeros((m, n)))
        ctl = doc["controller"]
        self.p = float(ctl["p"])
        self.H = np.asarray(ctl["cost_metric"], dtype=float)
        self.G = self.B @ np.linalg.solve(self.H, self.B.T)
        clf = doc["clf"]
        if clf is None:
            self.P = np.zeros((n, n))
            self.clf_center = np.zeros(n)
            self.gamma = 0.0
        else:
            self.P = np.asarray(clf["shape"], dtype=float)
            self.clf_center = np.asarray(clf["center"], dtype=float)
            self.gamma = float(clf["gamma_gain"])
        cbfs = doc["cbfs"]
        self.S = np.array([b["shape"] for b in cbfs], dtype=float)
        self.centers = np.array([b["center"] for b in cbfs], dtype=float)
        self.offsets = np.array([b["offset"] for b in cbfs], dtype=float)
        self.alphas = np.array([b["alpha_gain"] for b in cbfs], dtype=float)

    # all state arguments are (k, n) stacks
    def f(self, X):
        return X @ self.A.T

    def u_nom(self, X):
        return X @ self.K.T

    def f_nom(self, X):
        return self.f(X) + self.u_nom(X) @ self.B.T

    def V(self, X):
        D = X - self.clf_center
        return np.einsum("ki,ij,kj->k", D, self.P, D)

    def grad_V(self, X):
        return 2.0 * (X - self.clf_center) @ self.P

    def h(self, X):
        D = X[:, None, :] - self.centers[None]
        return np.einsum("kbi,bij,kbj->kb", D, self.S, D) + self.offsets

    def grad_h(self, X):
        """(k, N, n) barrier gradients."""
        D = X[:, None, :] - self.centers[None]
        return 2.0 * np.einsum("bij,kbj->kbi", self.S, D)

    def field(self, X, U):
        return self.f(X) + U @ self.B.T


def _stack(a, k):
    return np.asarray(a, dtype=float).reshape(k, -1)


def kkt_residuals(model, X, U, delta, lambda0, lam):
    """Largest scaled KKT violation of each (state, solution) row.

    Stationarity in u, the slack relation p delta = lambda0, primal
    feasibility of the CLF and barrier rows, dual feasibility and
    complementarity, each divided by the size of the terms it balances.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = X.shape[0]
    U = _stack(U, k)
    delta = np.asarray(delta, dtype=float).reshape(k)
    lambda0 = np.asarray(lambda0, dtype=float).reshape(k)
    lam = _stack(lam, k)
    gV = model.grad_V(X)
    gh = model.grad_h(X)
    Bt_gV = gV @ model.B
    Bt_gh = np.einsum("kbi,im->kbm", gh, model.B)
    cost = (U - model.u_nom(X)) @ model.H.T
    pull = -lambda0[:, None] * Bt_gV + np.einsum("kb,kbm->km", lam, Bt_gh)
    scale_stat = 1.0 + np.abs(cost).max(1) + np.abs(lambda0) * np.abs(Bt_gV).max(1) \
        + np.einsum("kb,kb->k", np.abs(lam), np.abs(Bt_gh).max(2))
    stat = np.abs(cost - pull).max(1) / scale_stat
    slack = np.abs(model.p * delta - lambda0) / (1.0 + np.abs(lambda0))
    xdot = model.field(X, U)
    LV = np.einsum("ki,ki->k", gV, xdot)
    gammaV = model.gamma * model.V(X)
    clf_row = delta - (LV + gammaV)
    clf_scale = 1.0 + np.abs(LV) + np.abs(gammaV) + np.abs(delta)
    Lh = np.einsum("kbi,ki->kb", gh, xdot)
    alpha_h = model.alphas * model.h(X)
    cbf_rows = Lh + alpha_h
    cbf_scale = 1.0 + np.abs(Lh) + np.abs(alpha_h)
    primal = np.maximum(np.maximum(-clf_row / clf_scale, 0.0),
                        np.max(-cbf_rows / cbf_scale, axis=1, initial=0.0))
    dual = np.maximum(np.maximum(-lambda0, 0.0), np.max(-lam, axis=1, initial=0.0))
    comp = np.maximum(
        np.abs(lambda0 * clf_row) / ((1.0 + np.abs(lambda0)) * clf_scale),
        np.max(np.abs(lam * cbf_rows) / ((1.0 + np.abs(lam)) * cbf_scale),
               axis=1, initial=0.0))
    return np.max(np.stack([stat, slack, primal, dual, comp]), axis=0)


def check_solutions(model, X, U, delta, lambda0, lam, label):
    """KKT verifier over a stack of pointwise solutions."""
    res = kkt_residuals(model, X, U, delta, lambda0, lam)
    bad = np.flatnonzero(~(res <= KKT_TOL))
    if bad.size:
        k = int(bad[0])
        return [f"{label}: KKT residual {res[k]:.3e} > {KKT_TOL:g} at state {k} "
                f"({bad.size} of {res.size} states)"]
    return []


def check_trajectory(model, traj, label):
    """KKT of every recorded row, recorded h and V, and forward invariance.

    ``traj`` is a mapping with the program's arrays ``x``, ``u``, ``delta``,
    ``lambda0``, ``lam``, ``h`` and ``V``.
    """
    X = np.asarray(traj["x"], dtype=float)
    problems = check_solutions(model, X, traj["u"], traj["delta"], traj["lambda0"],
                               traj["lam"], label)
    h = model.h(X)
    if not np.allclose(traj["h"], h, rtol=0.0, atol=1e-9):
        problems.append(f"{label}: recorded h differs from h(x)")
    if model.gamma and not np.allclose(traj["V"], model.V(X), rtol=1e-12, atol=1e-12):
        problems.append(f"{label}: recorded V differs from V(x)")
    worst = float(np.min(traj["h"]))
    if not worst >= INVARIANCE_BOUND:
        problems.append(f"{label}: barrier value {worst:.3e} below {INVARIANCE_BOUND:g}")
    return problems


def rk4_reintegrate(model, x0, dt, steps, u_star):
    """Fixed-step RK4 of f(x) + B u*(x) with the caller's u* and our own field."""
    x = np.asarray(x0, dtype=float).copy()
    out = [x.copy()]

    def xdot(y):
        return model.field(y[None], np.asarray(u_star(y), dtype=float)[None])[0]

    for _ in range(steps):
        k1 = xdot(x)
        k2 = xdot(x + 0.5 * dt * k1)
        k3 = xdot(x + 0.5 * dt * k2)
        k4 = xdot(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x.copy())
    return np.array(out)


def check_reintegration(states, reference, label):
    """The program's trajectory states against the benchmark's RK4."""
    states = np.asarray(states, dtype=float)
    if states.shape != reference.shape:
        return [f"{label}: {states.shape[0]} recorded states, expected "
                f"{reference.shape[0]}"]
    gap = float(np.max(np.abs(states - reference) / (1.0 + np.abs(reference))))
    if not gap <= RK4_TOL:
        return [f"{label}: states differ from the independent RK4 by {gap:.3e}"]
    return []


def check_oracle(u_star, u_oracle, label):
    gap = float(np.max(np.abs(np.asarray(u_star) - np.asarray(u_oracle))))
    if not gap <= ORACLE_TOL:
        return [f"{label}: solver and oracle u* differ by {gap:.3e}"]
    return []


def check_feasibility_report(holds, residual, rank, n_barriers, solved, label):
    """Soundness (holds implies a solution) and the report's own ranges."""
    problems = []
    if holds and not solved:
        problems.append(f"{label}: certificate holds but the solve failed")
    if not (0 <= rank <= n_barriers):
        problems.append(f"{label}: rank {rank} outside 0..{n_barriers}")
    if not (math.isfinite(residual) and residual >= 0.0):
        problems.append(f"{label}: residual {residual!r} is not a finite >= 0 value")
    return problems


# -- equilibria --------------------------------------------------------------

def check_root(model, x_e, lam, indices, label):
    """f_A(x_e, lam) = 0, h_A(x_e) = 0, lam >= 0 and every barrier h >= 0,
    with f_A = f_nom - p gamma(V) G grad V + G U_A lam."""
    X = np.asarray(x_e, dtype=float)[None]
    lam = np.asarray(lam, dtype=float)
    cols = [i - 1 for i in indices]
    field = model.f_nom(X)[0] - model.p * model.gamma * model.V(X)[0] \
        * (model.G @ model.grad_V(X)[0])
    h = model.h(X)[0]
    if cols:
        field = field + model.G @ (model.grad_h(X)[0][cols].T @ lam)
    f_res = float(np.max(np.abs(field)))
    h_res = float(np.max(np.abs(h[cols]), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(lam), initial=0.0))
    problems = []
    if not f_res <= ROOT_TOL * scale:
        problems.append(f"{label}: |f_A| = {f_res:.3e} at x_e")
    if not h_res <= ROOT_TOL:
        problems.append(f"{label}: |h_A| = {h_res:.3e} at x_e")
    if lam.size and not float(lam.min()) >= 0.0:
        problems.append(f"{label}: negative multiplier {lam.min():.3e}")
    if not float(h.min()) >= -ROOT_TOL:
        problems.append(f"{label}: x_e lies inside an obstacle")
    return problems


def check_left_eigenvectors(model, x_e, indices, J_fcl, label):
    """U_A^T J_fcl = -diag(alpha') U_A^T: active gradients are left eigenvectors."""
    X = np.asarray(x_e, dtype=float)[None]
    cols = [i - 1 for i in indices]
    U_A = model.grad_h(X)[0][cols].T
    lhs = U_A.T @ np.asarray(J_fcl, dtype=float)
    rhs = -np.diag(model.alphas[cols]) @ U_A.T
    gap = float(np.max(np.abs(lhs - rhs)))
    scale = 1.0 + float(np.max(np.abs(U_A))) * (1.0 + float(np.max(np.abs(J_fcl))))
    if not gap <= ROOT_TOL * scale:
        return [f"{label}: left-eigenvector identity off by {gap:.3e}"]
    return []


def check_verdict_spectrum(verdict, spectrum_max_real, label):
    """A verdict must agree in sign with the largest real part of a spectrum."""
    if verdict == "unstable" and spectrum_max_real > 0.0:
        return []
    if verdict == "stable" and spectrum_max_real < 0.0:
        return []
    return [f"{label}: verdict {verdict!r} against max Re spectrum "
            f"{spectrum_max_real:.3e}"]


def _close(a, b):
    return abs(a - b) <= CLOSED_FORM_TOL * (1.0 + abs(b))


def check_deadlock(params, boundary, label):
    """Disc of radius rho at (c, 0), V = |x|^2/2, unit gains, search A = {1}.

    ``boundary`` lists (x_e, lam, validated, verdict, mu_max) rows.  Exactly
    one validated root, at (c + rho, 0), with lambda = (c + rho)^3 / (4 rho),
    verdict 'unstable' and mu_max = c (c + rho)^2 / (2 rho).
    """
    c, rho = params["c"], params["rho"]
    roots = [row for row in boundary if row[2]]
    if len(roots) != 1:
        return [f"{label}: {len(roots)} validated boundary roots, expected 1"]
    x_e, lam, _, verdict, mu = roots[0]
    problems = []
    if not (_close(x_e[0], c + rho) and abs(x_e[1]) <= CLOSED_FORM_TOL):
        problems.append(f"{label}: root {list(x_e)} != ({c + rho}, 0)")
    if not _close(float(lam[0]), (c + rho) ** 3 / (4.0 * rho)):
        problems.append(f"{label}: lambda {lam[0]} != (c+rho)^3/(4 rho)")
    if verdict != "unstable":
        problems.append(f"{label}: verdict {verdict!r}, expected 'unstable'")
    if not _close(mu, c * (c + rho) ** 2 / (2.0 * rho)):
        problems.append(f"{label}: mu_max {mu} != c (c+rho)^2/(2 rho)")
    return problems


def check_filter(params, index, boundary, label):
    """Safety filter over u = -x, search A = {index} on disc (c, rho).

    Exactly one validated root, at the far point (|c| + rho) c/|c|, with
    lambda = (|c| + rho)/(2 rho), verdict 'unstable' and mu_max = |c|/rho.
    """
    c = np.asarray(params["centers"][index - 1])
    rho = params["radii"][index - 1]
    dist = float(np.linalg.norm(c))
    roots = [row for row in boundary if row[2]]
    if len(roots) != 1:
        return [f"{label}: {len(roots)} validated boundary roots, expected 1"]
    x_e, lam, _, verdict, mu = roots[0]
    problems = []
    if not np.all(np.abs(x_e - (dist + rho) * c / dist)
                  <= CLOSED_FORM_TOL * (1.0 + dist + rho)):
        problems.append(f"{label}: root {list(x_e)} is not the far point")
    if not _close(float(lam[0]), (dist + rho) / (2.0 * rho)):
        problems.append(f"{label}: lambda {lam[0]} != (|c|+rho)/(2 rho)")
    if verdict != "unstable" or not _close(mu, dist / rho):
        problems.append(f"{label}: verdict {verdict!r} mu_max {mu}, "
                        f"expected unstable {dist / rho}")
    return problems


def is_fig1_top(row):
    """A validated root on the z axis above the obstacle centres."""
    x_e, _, validated = row[:3]
    return (validated and abs(x_e[0]) <= CLOSED_FORM_TOL
            and abs(x_e[1]) <= CLOSED_FORM_TOL and x_e[2] > 3.0)


def check_fig1_top(params, boundary, label):
    """A validated {1, 2} root on the z axis above the centres is the top root
    (0, 0, 3 + sqrt((1 - s_x)/s_z)), stable iff q_y/q_z > (s_y/s_z) z/(z - 3).

    The multistart search may miss the top root (its result is a list of
    the roots it found), so a missing top root is not a problem here; the
    run reports how many members missed it.
    """
    s, q = params["s"], params["q"]
    z = 3.0 + math.sqrt((1.0 - s[0]) / s[2])
    expected = "stable" if q[1] / q[2] > (s[1] / s[2]) * z / (z - 3.0) else "unstable"
    top = [row for row in boundary if is_fig1_top(row)]
    problems = []
    if len(top) > 1:
        problems.append(f"{label}: {len(top)} validated top roots")
    for x_e, _, _, verdict, _ in top:
        if not _close(x_e[2], z):
            problems.append(f"{label}: top root at z = {x_e[2]}, expected {z}")
        if verdict != expected:
            problems.append(f"{label}: top verdict {verdict!r}, expected {expected!r}")
    return problems


def check_origin(interior, label):
    """The interior search finds the origin and nothing else."""
    if len(interior) != 1 or not np.all(np.abs(interior[0]) <= CLOSED_FORM_TOL):
        return [f"{label}: interior roots {[list(x) for x in interior]}, "
                "expected the origin alone"]
    return []
