"""Test-only reference implementations the library is checked against.

``barrier_gradients`` stacks each barrier's own ``gradient``, the U_A the
checks compare against; ``frozen_multiplier_jacobian`` is the
multiplier-frozen Jacobian summed certificate by certificate from each
Hessian, the reference for the stacked ``JacobianBundle.J_A``;
``deflation`` is the CLF-gradient deflation P_V = I - G grad V grad V^T / c
and ``deflated_reduced_system`` the reduced dual system
U_A^T P_V G U_A y = b2 written with it, the reference for the Schur
complement of the dual matrix; ``deflation_closed_loop_jacobian`` is the
closed-loop Jacobian assembled from P_V, the Schur complement S_A and the
active-gradient deflation P_UA, the reference for the library's solve on
the dual block; ``verify_factorization`` re-derives, on its own, the
congruence behind the stability test; ``newton`` is the damped Newton
method for one seed that the library's lockstep Newton replaced, and
``public_system`` its augmented equilibrium system built from public
evaluation calls, kept to show that the lockstep run returns every seed's
root bit for bit; ``multistart_interior_equilibria`` is the
rejection-sampled multistart Newton search that the eigenvalue
enumeration of ``find_interior_equilibria`` replaced, kept to show that
the enumeration finds every root the multistart finds;
``reference_integrate`` is the RK4 loop as it stood before each sample
read h and V off its own solve (``values`` per sample, every sample solved
at the top of the loop), kept to show that every trajectory field is
unchanged bit for bit.
"""
import numpy as np

from clfcbf import (
    InfeasibleQPError,
    IntegrationError,
    Termination,
    Trajectory,
    closed_loop_field,
    equilibrium_field,
    equilibrium_field_jacobian,
    solve_pointwise,
)
from clfcbf.simulate import BLOWUP_LIMIT, CONVERGENCE_WINDOW
from clfcbf.systems import _eval_drift


def barrier_gradients(problem, x, indices=None):
    """[grad h_{a_1} .. grad h_{a_r}] (n, r) from each barrier's own
    ``gradient``; all N in natural order when ``indices`` is omitted."""
    certs = problem.certificates
    if indices is None:
        indices = range(1, problem.n_barriers + 1)
    x = np.asarray(x, dtype=float)
    return np.column_stack([certs.barrier(i).gradient(x) for i in indices])


def frozen_multiplier_jacobian(problem, x, lambda0, lam, indices):
    """State Jacobian of f_nom + G(-lambda0 grad V + U_A lam), multipliers frozen.

    Sums the curvature one certificate at a time from its own Hessian.
    ``lam`` is a float vector and ``indices`` a tuple of ints.
    """
    certs = problem.certificates
    G = problem.gram()
    J = problem.f_nom_jacobian()
    if lambda0 != 0.0:
        J = J - lambda0 * (G @ certs.clf.hessian())
    for k, i in enumerate(indices):
        if lam[k] == 0.0:
            continue
        J = J + lam[k] * (G @ certs.cbfs[i - 1].hessian())
    return J


def _clf_terms(problem, x):
    """(grad V, gamma(V), c = 1/p + grad V^T G grad V) from the CLF's own
    methods, zeros without a CLF."""
    certs = problem.certificates
    if certs.clf is None:
        grad_v, gamma_v = np.zeros(problem.n), 0.0
    else:
        grad_v = certs.clf.gradient(x)
        gamma_v = certs.gamma.gain * certs.clf.value(x)
    c = 1.0 / problem.params.p + grad_v @ problem.gram() @ grad_v
    return grad_v, gamma_v, c


def deflation(problem, x):
    """P_V = I - G grad V grad V^T / c, the CLF-gradient deflation at ``x``.

    ``c = 1/p + ||grad V||_G^2`` is the dual-cost curvature of the CLF
    row; P_V is the identity whenever grad V = 0 (no CLF, or the CLF
    center).
    """
    grad_v, _, c = _clf_terms(problem, np.asarray(x, dtype=float))
    return np.eye(problem.n) - np.outer(problem.gram() @ grad_v, grad_v) / c


def deflated_reduced_system(problem, x, indices):
    """(M, b2) of the barrier rows ``indices`` with the CLF multiplier eliminated.

    M = U_A^T P_V G U_A and b2 = U_A^T (gamma(V) G grad V / c - P_V f_nom)
    - alpha_A, with P_V the :func:`deflation`, built from the
    certificates' own ``gradient`` and ``value``.
    """
    certs = problem.certificates
    x = np.asarray(x, dtype=float)
    grad_v, gamma_v, c = _clf_terms(problem, x)
    G = problem.gram()
    P_V = deflation(problem, x)
    U_A = barrier_gradients(problem, x, indices)
    alpha_A = np.array([certs.alphas[i - 1].value(certs.barrier(i).value(x))
                        for i in indices])
    f_nom = _eval_drift(problem.model, x) + problem.model.input_matrix @ problem.u_nom(x)
    M = U_A.T @ P_V @ G @ U_A
    b2 = U_A.T @ ((gamma_v / c) * (G @ grad_v) - P_V @ f_nom) - alpha_A
    return 0.5 * (M + M.T), b2


def deflation_closed_loop_jacobian(problem, x_e, lam, indices):
    """The closed-loop Jacobian by the deflation algebra.

    With P_V the :func:`deflation`, S_A = U_A^T P_V G U_A the Schur
    complement of the dual block on (0,) + A and the active-gradient
    deflation P_UA = I - P_V G U_A S_A^{-1} U_A^T,

        J_fcl = P_UA (P_V J_A - gamma'/c G grad V grad V^T)
                - P_V G U_A S_A^{-1} diag(alpha'_A) U_A^T,

    with J_A the :func:`frozen_multiplier_jacobian` at lambda_0 = p gamma(V)
    (gamma' = 0 without a CLF), all from the certificates' own methods.
    """
    indices = tuple(int(i) for i in indices)
    lam = np.asarray(lam, dtype=float).ravel()
    x_e = np.asarray(x_e, dtype=float).ravel()
    certs = problem.certificates
    grad_v, gamma_v, c = _clf_terms(problem, x_e)
    gamma_slope = certs.gamma.gain if certs.has_clf else 0.0
    G = problem.gram()
    P_V = deflation(problem, x_e)
    U_A = barrier_gradients(problem, x_e, indices)
    S_inv = np.linalg.inv(deflated_reduced_system(problem, x_e, indices)[0])
    slopes = np.array([certs.alphas[i - 1].slope(0.0) for i in indices])
    J_A = frozen_multiplier_jacobian(
        problem, x_e, problem.params.p * gamma_v, lam, indices)
    PVG_UA = P_V @ G @ U_A
    P_UA = np.eye(problem.n) - PVG_UA @ S_inv @ U_A.T
    core = P_V @ J_A - (gamma_slope / c) * np.outer(G @ grad_v, grad_v)
    return P_UA @ core - PVG_UA @ S_inv @ np.diag(slopes) @ U_A.T


def verify_factorization(problem, x_e, lam, indices):
    """Residual of the congruence factorization of the deflated Jacobian.

    Checks that P J_A - gamma'(V)/c * G grad V grad V^T equals
    (B^T)^{-1} D B^T J_fA with B = [grad V | basis of {G grad V}^perp] and
    D = diag(1/(p c), I): the deflated multiplier-frozen Jacobian is
    congruent to the equilibrium-field Jacobian, which is why the latter
    decides stability.  Returns the relative residual, or None when the
    factorization does not apply (grad V = 0 or singular G).
    """
    indices = tuple(int(i) for i in indices)
    lam = np.asarray(lam, dtype=float).ravel()
    x_e = np.asarray(x_e, dtype=float).ravel()
    tol = problem.tolerances
    n = x_e.shape[0]
    grad_v, gamma_v, c = _clf_terms(problem, x_e)
    G = problem.gram()
    if float(np.max(np.abs(grad_v))) < 1e-12:
        return None
    g_sv = np.linalg.svd(G, compute_uv=False)
    if g_sv[-1] <= tol.rank * max(1.0, float(g_sv[0])):
        return None
    p = problem.params.p
    lambda0_e = p * gamma_v
    gamma_slope = problem.certificates.gamma.gain
    J_A = frozen_multiplier_jacobian(problem, x_e, lambda0_e, lam, indices)
    J_fA = equilibrium_field_jacobian(problem, x_e, lam, indices)
    P_V = deflation(problem, x_e)
    lhs = P_V @ J_A - (gamma_slope / c) * np.outer(G @ grad_v, grad_v)
    # any orthonormal complement of G grad V: the residual does not depend on it
    W = np.linalg.svd((G @ grad_v)[:, None])[0][:, 1:]
    B = np.column_stack([grad_v, W])
    D = np.diag(np.concatenate([[1.0 / (p * c)], np.ones(n - 1)]))
    rhs = np.linalg.solve(B.T, D @ B.T @ J_fA)
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs))))


def newton(system, z0, tol_res, tol_step, max_iter, max_halvings):
    """Damped Newton; returns the root or None.

    ``system(z)`` evaluates the state once and returns ``(F(z), jacobian)``,
    where ``jacobian()`` builds J(z) from that same evaluation.  It is
    called only at accepted iterates, never at line-search trial points.
    """
    z = np.asarray(z0, dtype=float).copy()
    Fz, jacobian = system(z)
    if not np.all(np.isfinite(Fz)):
        return None
    res = float(np.max(np.abs(Fz)))
    for _ in range(max_iter):
        Jz = jacobian()
        try:
            step = np.linalg.solve(Jz, -Fz)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(Jz, -Fz, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return None
        scale = 1.0
        for _ in range(max_halvings + 1):
            z_new = z + scale * step
            F_new, jacobian_new = system(z_new)
            res_new = float(np.max(np.abs(F_new))) if np.all(np.isfinite(F_new)) \
                else np.inf
            if res_new < res or res_new <= tol_res:
                break
            scale *= 0.5
        else:
            return None
        z, Fz, jacobian, res = z_new, F_new, jacobian_new, res_new
        step_inf = float(np.max(np.abs(scale * step)))
        if res <= tol_res and step_inf <= tol_step * max(1.0, float(np.max(np.abs(z)))):
            return z
    return None


def public_system(problem, indices):
    """The augmented system [f_A; h_A] of ``indices`` for :func:`newton`.

    f_A and its Jacobian are the public ``equilibrium_field`` and
    ``equilibrium_field_jacobian``; h_A and its gradients come from the
    barriers' own ``value`` and ``gradient``.  The Jacobian is
    [[J_fA, G U_A], [U_A^T, 0]].
    """
    indices = tuple(int(i) for i in indices)
    barriers = [problem.certificates.barrier(i) for i in indices]
    n, r = problem.n, len(indices)

    def system(z):
        x, lam = z[:n], z[n:]
        F = np.concatenate([equilibrium_field(problem, x, lam, indices),
                            [b.value(x) for b in barriers]])

        def jacobian():
            U_A = np.column_stack([b.gradient(x) for b in barriers]) if r \
                else np.zeros((n, 0))
            return np.block([
                [equilibrium_field_jacobian(problem, x, lam, indices),
                 problem.gram() @ U_A],
                [U_A.T, np.zeros((r, r))]])

        return F, jacobian

    return system


def multistart_interior_equilibria(problem, config):
    """Interior equilibria by damped Newton from rejection-sampled seeds.

    The seeds are the CLF centre (when safe) plus up to
    ``config.interior_seeds`` uniform draws from ``config.box`` that lie
    in the safe set; roots are deduplicated and filtered like the
    library's search.  Returns the sorted list of root states.
    """
    n = problem.n
    tol = problem.tolerances
    certs = problem.certificates
    rng = np.random.default_rng(config.seed)

    seeds = []
    if certs.has_clf:
        center = certs.clf.center
        if np.all(certs.barrier_values(center) > 0.0):
            seeds.append(center.astype(float))
    lo, hi = config.box[:, 0], config.box[:, 1]
    attempts = 0
    while len(seeds) < config.interior_seeds and attempts < 200:
        batch = rng.uniform(lo, hi, size=(max(config.interior_seeds, 8), n))
        for x in batch:
            if np.all(certs.barrier_values(x) > 0.0):
                seeds.append(x)
                if len(seeds) >= config.interior_seeds:
                    break
        attempts += 1

    system = public_system(problem, ())

    roots = []
    for x0 in seeds:
        x = newton(system, x0, tol.newton_residual, tol.newton_step,
                   config.newton_max_iter, config.max_halvings)
        if x is None:
            continue
        if not any(np.linalg.norm(x - seen) <= tol.dedup for seen in roots):
            roots.append(x)

    kept = []
    for x_e in roots:
        if float(np.min(certs.barrier_values(x_e))) <= tol.interior:
            continue
        try:
            sol = solve_pointwise(problem, x_e)
        except InfeasibleQPError:
            continue
        if any(i >= 1 for i in sol.active_set):
            continue
        if float(np.max(np.abs(sol.xdot))) > tol.validate:
            continue
        kept.append(x_e)
    kept.sort(key=tuple)
    return kept


def reference_integrate(problem, x0, dt=1e-3, t_final=20.0, target=None,
                        target_tol=1e-3):
    """Fixed-step RK4 of the closed loop from public calls: a
    ``solve_pointwise`` per stage, warm-started with the previous stage's
    active set, its ``closed_loop_field``, and ``certs.values`` per saved
    sample.  Same arguments, outputs and terminations as ``integrate``."""
    x = np.asarray(x0, dtype=float).ravel()
    n_steps = int(round(t_final / dt))
    certs = problem.certificates
    rows = []

    def build(reason, time):
        n, m, N = problem.n, problem.model.m, problem.n_barriers
        if not rows:
            return Trajectory(
                t=np.zeros(0), x=np.zeros((0, n)), u=np.zeros((0, m)),
                delta=np.zeros(0), lambda0=np.zeros(0), lam=np.zeros((0, N)),
                h=np.zeros((0, N)), V=np.zeros(0),
                active_mask=np.zeros(0, dtype=int),
                termination=Termination(reason=reason, time=time))
        t, xs, u, delta, lambda0, lam, h, V, mask = zip(*rows)
        return Trajectory(
            t=np.array(t), x=np.array(xs), u=np.array(u), delta=np.array(delta),
            lambda0=np.array(lambda0), lam=np.array(lam), h=np.array(h),
            V=np.array(V), active_mask=np.array(mask, dtype=int),
            termination=Termination(reason=reason, time=time))

    in_tol = 0
    if target is not None:
        target = np.asarray(target, dtype=float).ravel()
    guess = None
    for k in range(n_steps + 1):
        t = k * dt
        try:
            solution = solve_pointwise(problem, x, first_guess=guess)
        except InfeasibleQPError:
            return build("qp_infeasible", t)
        values = certs.values(x)
        rows.append((
            float(t), np.array(x), np.array(solution.u_star),
            float(solution.delta_star), float(solution.lambda0),
            np.array(solution.lam), np.array(values[1:]), float(values[0]),
            int(solution.active_mask)))
        if target is not None:
            in_tol = in_tol + 1 if np.linalg.norm(x - target) <= target_tol else 0
            if in_tol >= CONVERGENCE_WINDOW:
                return build("converged", t)
        if k == n_steps:
            break
        try:
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
            return build("qp_infeasible", t)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)) or float(np.max(np.abs(x))) > BLOWUP_LIMIT:
            raise IntegrationError(
                f"state diverged at t = {t + dt:.6g}",
                partial_trajectory=build("time_limit", t))
    return build("time_limit", n_steps * dt)
